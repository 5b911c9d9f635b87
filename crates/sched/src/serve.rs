//! A registry-free multi-threaded serving loop over the scheduler —
//! the CROSS stack's request/response pipeline.
//!
//! [`run`] is the single-tenant constructor: it registers one
//! [`DEFAULT_TENANT`] with the multi-tenant engine in
//! [`crate::session`] and hands the closure that tenant's
//! [`Session`]. The engine executes with scoped threads (no `tokio`
//! exists in the offline image — DESIGN.md §5, §8 and §11):
//!
//! * **clients** (any threads inside the closure passed to [`run`])
//!   insert ciphertexts into a shared store and
//!   [`submit`](Session::submit) operations over store ids, getting a
//!   [`Completion`](crate::queue::Completion) handle per ticket;
//! * a **dispatcher** thread pops submission bursts off a bounded
//!   [`crate::channel`], validates them, forms batches with the
//!   existing [`Scheduler`], and hands each dispatch to the workers;
//! * **worker** threads execute dispatches through
//!   [`crate::exec::execute_schedule`], every member of a fused batch
//!   on its own through the eager evaluator (whose kernels fan out over
//!   `cross_math::par`), store each result ciphertext, and fulfill the
//!   ticket's completion with the result id plus the modeled cost of
//!   the fused batch it rode in. Only the model fuses; the host never
//!   packs a batch.
//!
//! Backpressure is explicit: the intake channel holds at most
//! [`ServeConfig::capacity`] pending submissions, and
//! [`ServeConfig::policy`] picks between blocking the producer
//! ([`Backpressure::Block`]) and handing the request back
//! ([`Backpressure::Reject`], surfaced as [`SubmitError::QueueFull`]).
//! The ciphertext store is bounded too
//! ([`ServeConfig::store_capacity`]): unclaimed results are evicted
//! least-recently-used under pressure, and a request whose operand
//! was evicted fails its own ticket with
//! [`crate::queue::ServeError::Evicted`] — never a wrong result.
//!
//! Functional results are **bit-exact** with eager
//! [`cross_ckks::Evaluator`] calls regardless of worker count or
//! batch formation — they *are* eager calls — pinned end-to-end by
//! `tests/serve_model.rs` and `tests/serve_tenants.rs`.
//!
//! For per-tenant sessions, tenant-owned keys behind the LRU
//! [`crate::keycache::KeyCache`], fair scheduling, and admission
//! quotas, use [`crate::session::serve_tenants`] directly.
//!
//! # Examples
//!
//! Serve a burst of rotations and squarings from one client:
//!
//! ```
//! use cross_ckks::{CkksContext, CkksParams};
//! use cross_sched::serve::{self, ServeConfig, ServeKeys};
//! use cross_tpu::TpuGeneration;
//!
//! let ctx = CkksContext::new(CkksParams::toy(), 5);
//! let kp = ctx.generate_keys();
//! let keys = ServeKeys::new()
//!     .with_relin(kp.relin.clone())
//!     .with_rotation(1, ctx.generate_rotation_key(&kp.secret, 1));
//! let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(2);
//!
//! let occupancy = serve::run(&ctx, &keys, &config, |session| {
//!     let msg = vec![0.25; ctx.slot_count()];
//!     let x = session.insert(ctx.encrypt(&msg, &kp.public));
//!     let pending: Vec<_> = (0..4)
//!         .map(|_| session.rotate(x, 1).expect("submit"))
//!         .collect();
//!     let mut ops = 0;
//!     for completion in pending {
//!         let done = completion.wait().expect("ticket completes");
//!         ops += done.batch.ops; // batch occupancy the op rode in
//!         let _ct = session.take(done.id).expect("result stored");
//!     }
//!     ops as f64 / 4.0
//! });
//! assert!(occupancy >= 1.0);
//! ```

use crate::exec::ReplayKeys;
use crate::keycache::KeyRef;
use crate::queue::{Backpressure, DEFAULT_TENANT};
use crate::sched::Scheduler;
use crate::session::{serve_tenants, Session, TenantSpec};
use cross_ckks::{CkksContext, SwitchingKey};
use std::collections::BTreeMap;
use std::time::Duration;

/// The switching keys a tenant owns (the loop shares them by
/// reference across the worker threads). The dispatcher validates
/// every request against the submitting tenant's set before queueing,
/// so workers never panic on a missing key: the ticket fails with
/// [`crate::queue::ServeError::MissingKey`] instead.
#[derive(Debug, Clone, Default)]
pub struct ServeKeys {
    relin: Option<SwitchingKey>,
    rotation: BTreeMap<usize, SwitchingKey>,
}

impl ServeKeys {
    /// No keys (enough to serve `Add`/`Rescale`/`ModDrop`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the relinearization key (enables `Mult`).
    pub fn with_relin(mut self, key: SwitchingKey) -> Self {
        self.relin = Some(key);
        self
    }

    /// Adds the rotation key for `steps` (enables `Rotate { steps }`).
    pub fn with_rotation(mut self, steps: usize, key: SwitchingKey) -> Self {
        self.rotation.insert(steps, key);
        self
    }

    /// Bytes of the key `key` names, if this set holds it — what the
    /// [`crate::keycache::KeyCache`] charges residency against.
    pub fn key_bytes(&self, key: KeyRef) -> Option<f64> {
        match key {
            KeyRef::Relin => self.relin.as_ref().map(|k| k.bytes() as f64),
            KeyRef::Rotation(steps) => self.rotation.get(&steps).map(|k| k.bytes() as f64),
        }
    }

    /// These keys as the executor reads them.
    pub(crate) fn replay(&self) -> ReplayKeys<'_> {
        let mut keys = ReplayKeys::new();
        if let Some(k) = &self.relin {
            keys = keys.with_relin(k);
        }
        for (&steps, k) in &self.rotation {
            keys = keys.with_rotation(steps, k);
        }
        keys
    }
}

/// Serving-loop configuration: the pod the scheduler batches for plus
/// the loop's thread/queue shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// TPU generation of the modeled target pod.
    pub gen: cross_tpu::TpuGeneration,
    /// Tensor cores in the modeled pod.
    pub cores: u32,
    /// Worker threads executing dispatches (≥ 1).
    pub workers: usize,
    /// Most requests one deficit-round-robin scheduling window pops
    /// (the `max_ops` drained per dispatcher cycle, split across
    /// tenants by weight when several are backlogged).
    pub drain_max: usize,
    /// Most submissions queued at the intake before backpressure.
    pub capacity: usize,
    /// What happens at capacity: block the producer or reject.
    pub policy: Backpressure,
    /// Micro-batching window — the batching delay each request
    /// tolerates: an idle dispatcher that has its first request keeps
    /// gathering until the intake holds [`capacity`] requests or the
    /// *oldest* queued request's deadline (`submitted_at +
    /// batch_window`) arrives. `ZERO` (the default) dispatches
    /// whatever is queued immediately — latency-optimal; a window of a
    /// kernel-latency or two trades that latency for batch occupancy
    /// (throughput). On an idle loop this is the classic fixed window
    /// from the first arrival; a request that already waited behind a
    /// backlog has spent its budget and dispatches at once, while late
    /// arrivals still join the batch for free. Bounded, so partial
    /// batches always dispatch.
    ///
    /// [`capacity`]: ServeConfig::capacity
    pub batch_window: Duration,
    /// Most ciphertexts the shared store holds before LRU-evicting
    /// unpinned entries (client inputs are pinned until
    /// [`Session::release`]d or taken; results arrive unpinned).
    pub store_capacity: usize,
    /// Modeled VMEM bytes of switching-key residency. A batch whose
    /// key is not resident charges the modeled re-admission cost
    /// (HBM read + pod scatter) onto the schedule's wall seconds and
    /// may evict another tenant's key. `INFINITY` (the default) never
    /// misses after first touch.
    pub key_cache_bytes: f64,
    /// Test hook: the worker that picks up dispatch number `n`
    /// (0-based, in dispatch-formation order) panics mid-execution,
    /// exercising the fault-isolation path. Never set in production.
    #[doc(hidden)]
    pub inject_worker_panic: Option<u64>,
}

impl ServeConfig {
    /// Defaults for a pod of `cores` tensor cores of `gen`: workers =
    /// `min(4, available_parallelism)`, drain cap 16, intake capacity
    /// 64, blocking backpressure, store capacity 256, unbounded key
    /// cache, no batching window. The scheduler keeps
    /// [`Scheduler::new`]'s fusion cap and lowering mode.
    pub fn new(gen: cross_tpu::TpuGeneration, cores: u32) -> Self {
        Self {
            gen,
            cores,
            workers: cross_math::par::parallelism().min(4),
            drain_max: 16,
            capacity: 64,
            policy: Backpressure::Block,
            batch_window: Duration::ZERO,
            store_capacity: 256,
            key_cache_bytes: f64::INFINITY,
            inject_worker_panic: None,
        }
    }

    /// Same configuration with an explicit worker count.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Same configuration with an explicit per-window drain cap.
    ///
    /// # Panics
    /// Panics if `drain_max == 0`.
    pub fn with_drain_max(mut self, drain_max: usize) -> Self {
        assert!(drain_max >= 1, "drain cap must be ≥ 1");
        self.drain_max = drain_max;
        self
    }

    /// Same configuration with an explicit intake capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "intake capacity must be ≥ 1");
        self.capacity = capacity;
        self
    }

    /// Same configuration with an explicit backpressure policy.
    pub fn with_policy(mut self, policy: Backpressure) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration with an explicit micro-batching window (see
    /// [`batch_window`](ServeConfig::batch_window)).
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Same configuration with an explicit ciphertext-store bound (see
    /// [`store_capacity`](ServeConfig::store_capacity)).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_store_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "store capacity must be ≥ 1");
        self.store_capacity = capacity;
        self
    }

    /// Same configuration with an explicit key-residency budget in
    /// modeled VMEM bytes (see
    /// [`key_cache_bytes`](ServeConfig::key_cache_bytes)).
    ///
    /// # Panics
    /// Panics if `bytes` is not positive.
    pub fn with_key_cache_bytes(mut self, bytes: f64) -> Self {
        assert!(bytes > 0.0, "key cache budget must be positive");
        self.key_cache_bytes = bytes;
        self
    }

    /// The same configuration: this setting has no effect on the
    /// graphs a drain forms (see [`Scheduler::with_optimize`]).
    pub fn with_optimize(self, _optimize: bool) -> Self {
        self
    }

    pub(crate) fn scheduler(&self) -> Scheduler {
        Scheduler::new(self.gen, self.cores)
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The intake is at capacity under [`Backpressure::Reject`] —
    /// retry, shed, or switch the config to [`Backpressure::Block`].
    QueueFull,
    /// The submitting tenant is at its in-flight quota
    /// ([`crate::session::TenantSpec::with_quota`]) — wait for
    /// pending tickets to resolve.
    TenantOverQuota,
    /// The serving loop is shutting down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("serving intake at capacity"),
            SubmitError::TenantOverQuota => f.write_str("tenant in-flight quota reached"),
            SubmitError::Closed => f.write_str("serving loop closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate serving counters, readable any time via
/// [`Session::stats`] / [`Server::stats`](crate::session::Server::stats).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Dispatches handed to the worker pool.
    pub dispatches: u64,
    /// Fused batches formed across all dispatches.
    pub batches: u64,
    /// Ciphertext operations scheduled.
    pub ops: u64,
    /// Ops that rode in a batch of more than one (shared kernel).
    pub fused_ops: u64,
    /// Tickets refused at validation or failed at dispatch (bad
    /// operand/key/level, evicted operand, cross-tenant reference).
    pub failed: u64,
    /// Σ modeled wall seconds of every formed schedule, including
    /// key re-admission penalties.
    pub modeled_wall_s: f64,
    /// Switching-key residency hits (see [`crate::keycache`]).
    pub key_hits: u64,
    /// Switching-key residency misses (each billed a re-admission).
    pub key_misses: u64,
    /// Keys evicted from modeled VMEM by residency pressure.
    pub key_evictions: u64,
    /// Σ modeled seconds spent re-admitting keys (part of
    /// [`modeled_wall_s`](ServeStats::modeled_wall_s)).
    pub key_admit_s: f64,
    /// Fraction of the key-residency budget currently occupied.
    pub key_occupancy: f64,
    /// Ciphertexts LRU-evicted from the bounded store.
    pub ct_evictions: u64,
}

impl ServeStats {
    /// Mean ops per fused batch — the batch-occupancy figure the
    /// throughput story rests on (1.0 = nothing ever fused).
    pub fn occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// Runs a single-tenant serving loop for the closure's lifetime:
/// [`serve_tenants`] with all traffic as [`DEFAULT_TENANT`] (weight
/// 1, no quota), `f` receiving that tenant's [`Session`]. After `f`
/// returns every pending submission drains before the threads join —
/// every accepted ticket is fulfilled by the time `run` returns.
///
/// The session is `Sync`: fan out N client threads inside `f` with
/// [`std::thread::scope`] and share `&Session` across them. Results
/// are bit-exact with eager [`cross_ckks::Evaluator`] calls for any
/// worker count; execution order (and therefore result-id
/// interleaving) is deterministic with a single worker and a single
/// client thread.
pub fn run<R>(
    ctx: &CkksContext,
    keys: &ServeKeys,
    config: &ServeConfig,
    f: impl FnOnce(&Session) -> R,
) -> R {
    let tenant = TenantSpec::new(DEFAULT_TENANT, keys.clone());
    serve_tenants(ctx, vec![tenant], config, |server| {
        f(&server.session(DEFAULT_TENANT))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::HeOpKind;
    use crate::queue::ServeError;
    use cross_ckks::{CkksParams, Evaluator};
    use cross_tpu::TpuGeneration;

    fn toy_ctx() -> (CkksContext, cross_ckks::KeyPair) {
        let ctx = CkksContext::new(CkksParams::toy(), 41);
        let kp = ctx.generate_keys();
        (ctx, kp)
    }

    #[test]
    fn serves_adds_without_keys() {
        let (ctx, kp) = toy_ctx();
        let keys = ServeKeys::new();
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
        let msg = vec![0.125; ctx.slot_count()];
        serve_assertions(&ctx, &kp, &keys, &config, &msg);
    }

    fn serve_assertions(
        ctx: &CkksContext,
        kp: &cross_ckks::KeyPair,
        keys: &ServeKeys,
        config: &ServeConfig,
        msg: &[f64],
    ) {
        let ct = ctx.encrypt(msg, &kp.public);
        let ev = Evaluator::new(ctx);
        let want = ev.add(&ct, &ct);
        let got = run(ctx, keys, config, |session| {
            let x = session.insert(ct.clone());
            let done = session.add(x, x).unwrap().wait().unwrap();
            assert_eq!(done.batch.ops, 1);
            session.take(done.id).unwrap()
        });
        assert_eq!(got.c0.limbs(), want.c0.limbs());
        assert_eq!(got.c1.limbs(), want.c1.limbs());
    }

    #[test]
    fn validation_errors_fail_the_ticket_not_the_server() {
        let (ctx, kp) = toy_ctx();
        let keys = ServeKeys::new(); // no rotation or relin keys
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
        let msg = vec![0.25; ctx.slot_count()];
        let ct = ctx.encrypt(&msg, &kp.public);
        run(&ctx, &keys, &config, |session| {
            let x = session.insert(ct.clone());
            // Unknown operand id.
            let bad = session.add(x, 999).unwrap().wait();
            assert_eq!(bad, Err(ServeError::UnresolvedOperand(999)));
            // Missing keys.
            let rot = session.rotate(x, 1).unwrap().wait();
            assert_eq!(rot, Err(ServeError::MissingKey("Rotate")));
            let mult = session.mult(x, x).unwrap().wait();
            assert_eq!(mult, Err(ServeError::MissingKey("HE-Mult")));
            // Level too low for a rescale after dropping to level 1.
            let low = session.mod_drop(x, 1).unwrap().wait().unwrap();
            let rs = session.rescale(low.id).unwrap().wait();
            assert_eq!(rs, Err(ServeError::InvalidLevel("Rescale")));
            // Const kinds need a scalar table a session has none of.
            for kind in [
                HeOpKind::PlainMultConst { cid: 0 },
                HeOpKind::PlainAddConst { cid: 0 },
            ] {
                let konst = session.submit(kind, &[x]).unwrap().wait();
                assert_eq!(konst, Err(ServeError::Unservable(kind.label())));
            }
            // Wrong operand counts, both ways — including a binary op
            // with one operand, whose second shape is never indexed.
            for (kind, operands, expected) in [
                (HeOpKind::Add, &[x][..], 2),
                (HeOpKind::Sub, &[][..], 2),
                (HeOpKind::Rescale, &[x, x][..], 1),
            ] {
                let got = operands.len();
                let arity = session.submit(kind, operands).unwrap().wait();
                assert_eq!(arity, Err(ServeError::WrongArity { expected, got }));
            }
            // A mod-drop to level 0 is no level at all.
            let zero = session.mod_drop(x, 0).unwrap().wait();
            assert_eq!(zero, Err(ServeError::InvalidLevel("ModDrop")));
            // The loop is still healthy after all those failures.
            assert!(session.add(x, x).unwrap().wait().is_ok());
            assert_eq!(session.stats().failed, 10);
            assert_eq!(session.in_flight(), 0);
        });
    }

    #[test]
    fn unbounded_result_growth_is_capped_by_the_store() {
        // Regression: the PR-5 store grew without bound when clients
        // never claimed results. Now unclaimed (unpinned) results are
        // LRU-evicted at `store_capacity`, and a later reference to an
        // evicted id fails precisely.
        let (ctx, kp) = toy_ctx();
        let keys = ServeKeys::new();
        let config = ServeConfig::new(TpuGeneration::V6e, 4)
            .with_workers(1)
            .with_store_capacity(8);
        let msg = vec![0.25; ctx.slot_count()];
        let ct = ctx.encrypt(&msg, &kp.public);
        run(&ctx, &keys, &config, |session| {
            let x = session.insert(ct.clone());
            let mut first_result = None;
            for _ in 0..32 {
                let done = session.add(x, x).unwrap().wait().unwrap();
                first_result.get_or_insert(done.id);
            }
            // 32 unclaimed results against capacity 8: the store is
            // bounded and the earliest result is long gone.
            assert!(session.stored() <= 8);
            assert!(session.stats().ct_evictions >= 24);
            let first = first_result.unwrap();
            assert!(session.fetch(first).is_err());
            let stale = session.add(first, first).unwrap().wait();
            assert_eq!(stale, Err(ServeError::Evicted(first)));
            // The pinned input survived all that pressure.
            assert!(session.fetch(x).is_ok());
        });
    }

    #[test]
    fn cost_only_kinds_cannot_be_served() {
        let (ctx, kp) = toy_ctx();
        // Fully keyed: the refusal is about the kind, not a key.
        let keys = ServeKeys::new().with_relin(kp.relin.clone());
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
        let ct = ctx.encrypt(&vec![0.25; ctx.slot_count()], &kp.public);
        run(&ctx, &keys, &config, |session| {
            let x = session.insert(ct.clone());
            for kind in [
                HeOpKind::Input,
                HeOpKind::PlainMult,
                HeOpKind::KeySwitch,
                HeOpKind::Bootstrap,
                HeOpKind::HoistDecomp,
            ] {
                let operands = vec![x; kind.arity()];
                let refused = session.submit(kind, &operands).unwrap().wait();
                assert_eq!(refused, Err(ServeError::Unservable(kind.label())));
            }
            assert_eq!(session.stats().failed, 5);
            assert!(session.add(x, x).unwrap().wait().is_ok());
        });
    }
}
