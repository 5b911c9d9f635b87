//! Multi-tenant serving: per-tenant sessions over one shared serving
//! loop, with tenant-owned key material behind the
//! [`KeyCache`] residency model, a bounded ciphertext store with
//! explicit retain/release and LRU eviction, per-tenant admission
//! control, and deficit-round-robin fair scheduling.
//!
//! [`serve_tenants`] is the multi-tenant generalization of
//! [`crate::serve::run`] (which delegates here with a single
//! [`crate::queue::DEFAULT_TENANT`]): register a [`TenantSpec`] per tenant — its
//! [`ServeKeys`], fair-share weight, and in-flight quota — and the
//! closure receives a [`Server`] from which each client thread opens
//! its tenant's [`Session`]. The engine is the same
//! dispatcher/worker pipeline as the single-tenant loop, with four
//! multi-tenant behaviors layered in (DESIGN.md §11):
//!
//! * **Isolation** — every stored ciphertext is owned by the tenant
//!   that created it; a request naming another tenant's [`CtId`]
//!   fails its own ticket with [`ServeError::CrossTenant`], and fused
//!   batches never mix tenants (a fused batch shares one switching
//!   key, and keys are tenant-owned), enforced structurally by
//!   forming one dispatch per tenant
//!   (`RequestQueue::pop_fair_by_tenant`).
//! * **Fairness** — the dispatcher pops each scheduling window by
//!   deficit round robin over the per-tenant queues
//!   ([`RequestQueue::pop_fair`]), so a flooding tenant gets its
//!   weight's share of every window instead of starving light ones.
//! * **Bounded memory** — the ciphertext store holds at most
//!   [`crate::serve::ServeConfig::store_capacity`] entries: inputs
//!   are inserted pinned (the client manages their lifetime via
//!   [`Session::release`]/[`Session::take`]), results arrive
//!   unpinned and are evicted least-recently-used under pressure. A
//!   request whose operand was evicted fails its own ticket with
//!   [`ServeError::Evicted`] — never a wrong result. Switching-key
//!   residency is bounded the same way by the [`KeyCache`], whose
//!   misses bill modeled re-admission seconds onto the schedule. When
//!   the last session closes, the context's spare limbs go back to
//!   the allocator ([`cross_poly::LimbPool::release`]).
//! * **Admission control** — each tenant has an in-flight quota;
//!   beyond it, [`Session::submit`] returns
//!   [`SubmitError::TenantOverQuota`] without touching the shared
//!   intake.
//!
//! A served request is **one value** end to end: [`Session::submit`]
//! builds a ticket (operand ids, completion slot, submit time, quota
//! counter), the dispatcher validates it in one place and queues it as
//! the [`RequestQueue`] payload, and whoever ends its life — a
//! validation failure, an evicted operand, a worker — resolves that
//! same value. Micro-batching rides the ticket too: an idle dispatcher
//! gathers until the oldest queued ticket's `submitted_at +`
//! [`batch_window`](crate::serve::ServeConfig::batch_window) passes
//! ([`crate::channel::Receiver::recv_batch`]).
//!
//! Functional results remain **bit-exact** with eager per-tenant
//! [`Evaluator`] calls under any tenant interleaving, worker count,
//! eviction pressure, or key-cache capacity — the cache and store are
//! residency/cost models, and correctness never depends on them
//! (pinned by `tests/serve_tenants.rs`).
//!
//! # Examples
//!
//! Two tenants with their own keys, served concurrently:
//!
//! ```
//! use cross_ckks::{CkksContext, CkksParams};
//! use cross_sched::serve::{ServeConfig, ServeKeys};
//! use cross_sched::session::{self, TenantSpec};
//! use cross_tpu::TpuGeneration;
//!
//! let ctx = CkksContext::new(CkksParams::toy(), 5);
//! let kp_a = ctx.generate_keys();
//! let kp_b = ctx.generate_keys();
//! let tenants = vec![
//!     TenantSpec::new(1, ServeKeys::new().with_relin(kp_a.relin.clone())),
//!     TenantSpec::new(2, ServeKeys::new().with_relin(kp_b.relin.clone())).with_weight(2),
//! ];
//! let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(2);
//! session::serve_tenants(&ctx, tenants, &config, |server| {
//!     let a = server.session(1);
//!     let b = server.session(2);
//!     let msg = vec![0.25; ctx.slot_count()];
//!     let xa = a.insert(ctx.encrypt(&msg, &kp_a.public));
//!     let xb = b.insert(ctx.encrypt(&msg, &kp_b.public));
//!     let da = a.mult(xa, xa).unwrap().wait().unwrap();
//!     let db = b.mult(xb, xb).unwrap().wait().unwrap();
//!     // Each tenant's result decrypts under its own secret key.
//!     assert!(a.take(da.id).is_some());
//!     assert!(b.take(db.id).is_some());
//!     // Isolation: tenant B cannot consume tenant A's ciphertext.
//!     let leak = b.add(xa, xb).unwrap().wait();
//!     assert!(leak.is_err());
//! });
//! ```

use crate::channel::{self, Receiver, Sender, TrySendError};
use crate::exec::{execute_borrowed, ReplayKeys, Slot};
use crate::ir::{ExecOp, HeOpKind, NodeId};
use crate::keycache::KeyCache;
use crate::queue::{
    Backpressure, BatchStats, Completed, Completion, CtId, Dispatch, HeRequest, RequestQueue,
    ServeError, TenantId,
};
use crate::sched::{ProbeCache, Schedule, Scheduler};
use crate::serve::{ServeConfig, ServeKeys, ServeStats, SubmitError};
use cross_ckks::{scales_agree, Ciphertext, CkksContext, Evaluator};
use cross_poly::LimbPool;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One tenant's registration with [`serve_tenants`]: its key
/// material, fair-share weight, and admission quota.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant's id (unique per server).
    pub id: TenantId,
    /// The switching keys this tenant's requests execute under.
    pub keys: ServeKeys,
    /// Deficit-round-robin weight (default 1; see
    /// [`RequestQueue::set_weight`]).
    pub weight: u64,
    /// Most in-flight (submitted, not yet completed) requests before
    /// [`Session::submit`] returns [`SubmitError::TenantOverQuota`]
    /// (default unlimited).
    pub quota: usize,
}

impl TenantSpec {
    /// A tenant with weight 1 and no quota.
    pub fn new(id: TenantId, keys: ServeKeys) -> Self {
        Self {
            id,
            keys,
            weight: 1,
            quota: usize::MAX,
        }
    }

    /// Same spec with an explicit fair-share weight.
    ///
    /// # Panics
    /// Panics if `weight == 0`.
    pub fn with_weight(mut self, weight: u64) -> Self {
        assert!(weight >= 1, "tenant weight must be ≥ 1");
        self.weight = weight;
        self
    }

    /// Same spec with an explicit in-flight quota.
    ///
    /// # Panics
    /// Panics if `quota == 0` (a zero quota could never submit).
    pub fn with_quota(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "quota must be ≥ 1");
        self.quota = quota;
        self
    }
}

// ---------------------------------------------------------------------
// Bounded, tenant-owned ciphertext store
// ---------------------------------------------------------------------

#[derive(Debug)]
struct StoreEntry {
    /// Shared with every dispatch that resolved this entry and has not
    /// finished: eviction or `take` drops only the store's reference.
    ct: Arc<Ciphertext>,
    tenant: TenantId,
    pinned: bool,
    last_used: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    next: CtId,
    clock: u64,
    entries: BTreeMap<CtId, StoreEntry>,
    /// Ids reclaimed by LRU pressure (so a later reference fails with
    /// the precise [`ServeError::Evicted`] instead of the generic
    /// unresolved error). Ids are 8 bytes — tracking them is noise
    /// next to the ciphertexts the eviction actually freed.
    evicted: BTreeSet<CtId>,
    evictions: u64,
}

impl StoreInner {
    /// The entry `id` if `tenant` owns it, else the precise reason:
    /// never allocated / already taken →
    /// [`ServeError::UnresolvedOperand`]; reclaimed by pressure →
    /// [`ServeError::Evicted`]; owned by someone else →
    /// [`ServeError::CrossTenant`].
    fn owned(&mut self, tenant: TenantId, id: CtId) -> Result<&mut StoreEntry, ServeError> {
        match self.entries.get_mut(&id) {
            Some(e) if e.tenant == tenant => Ok(e),
            Some(_) => Err(ServeError::CrossTenant(id)),
            None if self.evicted.contains(&id) => Err(ServeError::Evicted(id)),
            None => Err(ServeError::UnresolvedOperand(id)),
        }
    }
}

/// The serving loop's shared ciphertext store: entries are owned by
/// the inserting tenant, the population is capped, and unpinned
/// entries are evicted least-recently-used under pressure. An entry is
/// held behind an [`Arc`], so resolving it for a dispatch copies no
/// residue.
pub(crate) struct CtStore {
    capacity: usize,
    inner: Mutex<StoreInner>,
}

impl CtStore {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "store capacity must be ≥ 1");
        Self {
            capacity,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Inserts a ciphertext owned by `tenant`, then evicts
    /// least-recently-used *unpinned* entries while the store exceeds
    /// capacity. When every entry is pinned the store runs over
    /// capacity rather than invalidating a pin — pins are explicit
    /// client holds.
    fn insert(&self, tenant: TenantId, ct: Ciphertext, pinned: bool) -> CtId {
        let mut st = self.inner.lock().unwrap();
        let id = st.next;
        st.next += 1;
        st.clock += 1;
        let last_used = st.clock;
        st.entries.insert(
            id,
            StoreEntry {
                ct: Arc::new(ct),
                tenant,
                pinned,
                last_used,
            },
        );
        while st.entries.len() > self.capacity {
            let Some(coldest) = st
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id)
            else {
                break; // everything pinned: honor the pins
            };
            st.entries.remove(&coldest);
            st.evicted.insert(coldest);
            st.evictions += 1;
        }
        id
    }

    /// Shares out `id` for `tenant` — the stored allocation itself, not
    /// a copy — refreshing its LRU position. Fails as
    /// [`StoreInner::owned`] does.
    fn get(&self, tenant: TenantId, id: CtId) -> Result<Arc<Ciphertext>, ServeError> {
        let mut st = self.inner.lock().unwrap();
        st.clock += 1;
        let clock = st.clock;
        let e = st.owned(tenant, id)?;
        e.last_used = clock;
        Ok(Arc::clone(&e.ct))
    }

    /// Removes `id` if `tenant` owns it. The ciphertext is moved out
    /// when no dispatch still holds it, and copied only when one does.
    fn take(&self, tenant: TenantId, id: CtId) -> Option<Ciphertext> {
        let entry = {
            let mut st = self.inner.lock().unwrap();
            st.owned(tenant, id).ok()?;
            st.entries.remove(&id)?
        };
        Some(Arc::unwrap_or_clone(entry.ct))
    }

    fn set_pinned(&self, tenant: TenantId, id: CtId, pinned: bool) -> Result<(), ServeError> {
        self.inner.lock().unwrap().owned(tenant, id)?.pinned = pinned;
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }
}

// ---------------------------------------------------------------------
// Pipeline messages
// ---------------------------------------------------------------------

/// One served request's whole state, travelling as one value from
/// [`Session::submit`] through the intake channel, the fair queue (as
/// its payload) and the work item to whoever resolves it.
struct Ticket {
    /// Resolved to ciphertexts at dispatch time, so an eviction after
    /// admission surfaces per-ticket.
    operands: Vec<CtId>,
    completion: Completion,
    submitted_at: Instant,
    /// The submitting tenant's in-flight counter, decremented exactly
    /// once when the ticket resolves (any path).
    in_flight: Arc<AtomicUsize>,
}

impl Ticket {
    /// Resolves the ticket: frees its quota slot *before* waking the
    /// waiter, so a client that observes completion can immediately
    /// submit against the freed slot.
    fn resolve(&self, outcome: Result<Completed, ServeError>) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.completion.fulfill(outcome);
    }

    /// The executing side died: fails the ticket unless it already
    /// resolved (the recovery path cannot know which tickets a dying
    /// worker got to).
    fn fail_if_unresolved(&self) {
        if self
            .completion
            .fulfill_if_empty(Err(ServeError::ExecutionFailed))
        {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One not-yet-validated ticket crossing the intake channel.
struct Submission {
    tenant: TenantId,
    kind: HeOpKind,
    ticket: Ticket,
}

/// One scheduled per-tenant dispatch crossing the work channel.
struct WorkItem {
    tenant: TenantId,
    seq: u64,
    graph: crate::ir::OpGraph,
    schedule: Schedule,
    /// The operands, shared with the store (or kept alive past an
    /// eviction) until the dispatch has executed.
    inputs: Vec<Arc<Ciphertext>>,
    jobs: Vec<Job>,
}

/// One ticket inside a work item: the node computing it and the cost
/// of the fused batch that node rides in.
struct Job {
    ticket: Ticket,
    node: NodeId,
    stats: BatchStats,
}

// ---------------------------------------------------------------------
// Server / Session handles
// ---------------------------------------------------------------------

#[derive(Clone)]
struct TenantGate {
    in_flight: Arc<AtomicUsize>,
    quota: usize,
}

/// What every handle on one serving loop shares.
#[derive(Clone)]
struct Intake {
    tx: Sender<Submission>,
    store: Arc<CtStore>,
    stats: Arc<Mutex<ServeStats>>,
    policy: Backpressure,
}

impl Intake {
    fn stats(&self) -> ServeStats {
        let mut s = *self.stats.lock().unwrap();
        s.ct_evictions = self.store.evictions();
        s
    }
}

/// The serving handle inside [`serve_tenants`]'s closure: opens
/// per-tenant [`Session`]s and reads aggregate stats. `&Server` is
/// `Send + Sync` — share it across client threads.
pub struct Server {
    intake: Intake,
    gates: BTreeMap<TenantId, TenantGate>,
    sessions: Arc<OpenSessions>,
}

/// The sessions open on one server, and the limb pool of its context:
/// when the last session closes, no request can arrive until another
/// opens, so the spare limbs go back to the allocator for whatever the
/// program does next.
struct OpenSessions {
    count: AtomicUsize,
    limbs: Arc<LimbPool>,
}

impl Server {
    /// Opens `tenant`'s session. Sessions are cheap handles — open one
    /// per client thread. Keep them inside the serving closure: a
    /// session that outlives it keeps the intake open and the loop
    /// never shuts down.
    ///
    /// # Panics
    /// Panics if `tenant` was not registered with [`serve_tenants`].
    pub fn session(&self, tenant: TenantId) -> Session {
        let gate = self
            .gates
            .get(&tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} not registered with this server"))
            .clone();
        self.sessions.count.fetch_add(1, Ordering::Relaxed);
        Session {
            tenant,
            gate,
            intake: self.intake.clone(),
            sessions: self.sessions.clone(),
        }
    }

    /// Snapshot of the aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        self.intake.stats()
    }
}

/// One tenant's handle on the serving loop: a namespaced view of the
/// shared store plus the submission API. `&Session` is `Send + Sync`.
pub struct Session {
    tenant: TenantId,
    gate: TenantGate,
    intake: Intake,
    sessions: Arc<OpenSessions>,
}

/// Closes the session; the last one to close releases the context's
/// spare limbs.
impl Drop for Session {
    fn drop(&mut self) {
        if self.sessions.count.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.sessions.limbs.release();
        }
    }
}

impl Session {
    /// Stores an input ciphertext owned by this tenant, **pinned**:
    /// the client manages input lifetime explicitly
    /// ([`release`](Self::release) makes it evictable,
    /// [`take`](Self::take) removes it), so an input is never yanked
    /// from under a client still submitting against it.
    pub fn insert(&self, ct: Ciphertext) -> CtId {
        self.intake.store.insert(self.tenant, ct, true)
    }

    /// Copies a stored ciphertext out, leaving it stored, failing with
    /// the precise reason ([`ServeError::Evicted`] /
    /// [`ServeError::CrossTenant`] / [`ServeError::UnresolvedOperand`]).
    /// The copy is the caller's own; [`take`](Self::take) moves a
    /// ciphertext out instead.
    pub fn fetch(&self, id: CtId) -> Result<Ciphertext, ServeError> {
        let ct = self.intake.store.get(self.tenant, id)?;
        Ok(Ciphertext::clone(&ct))
    }

    /// Removes a stored ciphertext this tenant owns — the response
    /// side of the pipeline, and how results stop occupying the
    /// bounded store. It is moved out, not copied, unless a dispatch
    /// that resolved it as an operand has not finished executing; a
    /// dispatch lets go of its operands before it completes any ticket.
    pub fn take(&self, id: CtId) -> Option<Ciphertext> {
        self.intake.store.take(self.tenant, id)
    }

    /// Pins `id` against LRU eviction (results arrive unpinned — a
    /// client keeping one around across later submissions pins it).
    pub fn retain(&self, id: CtId) -> Result<(), ServeError> {
        self.intake.store.set_pinned(self.tenant, id, true)
    }

    /// Unpins `id`, making it evictable under store pressure. A later
    /// request referencing it after eviction fails its own ticket
    /// with [`ServeError::Evicted`].
    pub fn release(&self, id: CtId) -> Result<(), ServeError> {
        self.intake.store.set_pinned(self.tenant, id, false)
    }

    /// Ciphertexts currently stored, across all tenants (the bounded
    /// population [`crate::serve::ServeConfig::store_capacity`] caps).
    pub fn stored(&self) -> usize {
        self.intake.store.len()
    }

    /// This tenant's in-flight (submitted, unresolved) request count.
    pub fn in_flight(&self) -> usize {
        self.gate.in_flight.load(Ordering::Relaxed)
    }

    /// Submits one operation over stored ciphertext ids. Under
    /// [`Backpressure::Block`] this waits for intake room; under
    /// [`Backpressure::Reject`] a full intake returns
    /// [`SubmitError::QueueFull`]; once the tenant's in-flight quota
    /// is reached it returns [`SubmitError::TenantOverQuota`] without
    /// touching the shared intake.
    ///
    /// The ticket resolves through the returned [`Completion`]. Every
    /// request rule is checked loop-side, so a bad request — an op
    /// kind that cannot be served, a wrong operand count, another
    /// tenant's or an evicted operand, a missing key, a level or scale
    /// the op cannot take — fails its own ticket with a typed
    /// [`ServeError`], never the caller or the server.
    ///
    /// To consume a result in a follow-up op, [`wait`] on its
    /// completion first: ids are resolved when the request is
    /// dispatched, and an id the store has not seen yet fails with
    /// [`ServeError::UnresolvedOperand`].
    ///
    /// [`wait`]: Completion::wait
    pub fn submit(&self, kind: HeOpKind, operands: &[CtId]) -> Result<Completion, SubmitError> {
        // Admission control: reserve an in-flight slot or refuse.
        if self.gate.in_flight.fetch_add(1, Ordering::Relaxed) >= self.gate.quota {
            self.gate.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(SubmitError::TenantOverQuota);
        }
        let completion = Completion::new();
        let submission = Submission {
            tenant: self.tenant,
            kind,
            ticket: Ticket {
                operands: operands.to_vec(),
                completion: completion.clone(),
                submitted_at: Instant::now(),
                in_flight: self.gate.in_flight.clone(),
            },
        };
        let tx = &self.intake.tx;
        let sent = match self.intake.policy {
            Backpressure::Block => tx.send(submission).map_err(|_| SubmitError::Closed),
            Backpressure::Reject => tx.try_send(submission).map_err(|e| match e {
                TrySendError::Full(_) => SubmitError::QueueFull,
                TrySendError::Closed(_) => SubmitError::Closed,
            }),
        };
        if let Err(e) = sent {
            self.gate.in_flight.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(completion)
    }

    /// HE-Add of two stored ciphertexts.
    pub fn add(&self, a: CtId, b: CtId) -> Result<Completion, SubmitError> {
        self.submit(HeOpKind::Add, &[a, b])
    }

    /// HE-Mult (tensor + relinearize + rescale) of two stored
    /// ciphertexts (needs this tenant's relin key).
    pub fn mult(&self, a: CtId, b: CtId) -> Result<Completion, SubmitError> {
        self.submit(HeOpKind::Mult, &[a, b])
    }

    /// HE-Rotate a stored ciphertext by `steps` slots (needs this
    /// tenant's rotation key for `steps`).
    pub fn rotate(&self, a: CtId, steps: usize) -> Result<Completion, SubmitError> {
        self.submit(HeOpKind::Rotate { steps }, &[a])
    }

    /// Rescale a stored ciphertext (drops one limb).
    pub fn rescale(&self, a: CtId) -> Result<Completion, SubmitError> {
        self.submit(HeOpKind::Rescale, &[a])
    }

    /// Modulus-drop a stored ciphertext straight to `to_level`.
    pub fn mod_drop(&self, a: CtId, to_level: usize) -> Result<Completion, SubmitError> {
        self.submit(HeOpKind::ModDrop { to_level }, &[a])
    }

    /// Snapshot of the aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        self.intake.stats()
    }
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

struct Dispatcher<'a> {
    rx: Receiver<Submission>,
    work_tx: Sender<WorkItem>,
    scheduler: Scheduler,
    params: cross_ckks::CkksParams,
    /// The scheduler's cost probes, kept for the dispatcher's whole
    /// life: `scheduler` and `params` never change under it.
    probe_cache: ProbeCache,
    tenants: &'a BTreeMap<TenantId, ServeKeys>,
    store: Arc<CtStore>,
    stats: Arc<Mutex<ServeStats>>,
    cache: KeyCache,
    queue: RequestQueue<Ticket>,
    drain_max: usize,
    gather_max: usize,
    batch_window: Duration,
    dispatch_seq: u64,
}

impl Dispatcher<'_> {
    /// The one place a request is judged, at intake: whether the kind
    /// can be served at all, operand count, key availability, operand
    /// existence/ownership, level and scale rules. Returns the
    /// execution level (the operands' aligned minimum — exactly what
    /// the eager evaluator would use). Nothing past this point —
    /// graph formation, the executor, the evaluator — may reject an
    /// admitted request, so a bad one fails its ticket here instead of
    /// panicking a thread there.
    fn admit(&self, sub: &Submission) -> Result<usize, ServeError> {
        use ExecOp as E;
        let (row, operands) = (sub.kind.row(), &sub.ticket.operands);
        // Exhaustive on purpose: a new executable op must decide here
        // whether a session can serve it. Cost-only kinds have no
        // executable form to decide about.
        let scale_checked = match row.exec {
            Some(E::Add | E::Sub) => true,
            Some(E::Mult | E::Rotate { .. } | E::Rescale | E::ModDrop { .. })
            | Some(E::HoistedRotate { .. }) => false,
            // The const kinds' scalar table is not something a session
            // carries, and a decomposition alone is no result.
            Some(E::PlainMultConst { .. } | E::PlainAddConst { .. } | E::HoistDecomp) | None => {
                return Err(ServeError::Unservable(row.label))
            }
        };
        if operands.len() != row.arity {
            return Err(ServeError::WrongArity {
                expected: row.arity,
                got: operands.len(),
            });
        }
        let keys = &self.tenants[&sub.tenant];
        if row.key.is_some_and(|key| keys.key_bytes(key).is_none()) {
            return Err(ServeError::MissingKey(row.label));
        }
        let cts = operands
            .iter()
            .map(|&id| self.store.get(sub.tenant, id))
            .collect::<Result<Vec<_>, _>>()?;
        let level = cts.iter().map(|ct| ct.level).min().expect("arity ≥ 1");
        // The level rule `OpGraph::add_op` asserts when the dispatch
        // graph is formed.
        if row.level.result_level(level).is_none() {
            return Err(ServeError::InvalidLevel(row.label));
        }
        // The evaluator's own Add/Sub rule.
        if scale_checked && !scales_agree(cts[0].scale, cts[1].scale) {
            return Err(ServeError::ScaleMismatch);
        }
        Ok(level)
    }

    /// Fails one ticket the loop will not execute — counted before its
    /// waiter wakes, so a client that sees the error sees it in
    /// [`ServeStats::failed`].
    fn fail(&self, ticket: &Ticket, e: ServeError) {
        self.stats.lock().unwrap().failed += 1;
        ticket.resolve(Err(e));
    }

    /// Forms and sends one per-tenant dispatch from an
    /// already-popped, operand-resolved request slice.
    fn dispatch_tenant(
        &mut self,
        tenant: TenantId,
        requests: Vec<HeRequest<Ticket>>,
        inputs: Vec<Arc<Ciphertext>>,
    ) {
        let Dispatch {
            graph,
            schedule,
            tickets,
        } = RequestQueue::dispatch_requests(
            requests,
            &self.scheduler,
            &self.params,
            &mut self.probe_cache,
        );

        // Key residency: touch every key the schedule loads under
        // this tenant. Misses bill modeled re-admission seconds.
        let keys = &self.tenants[&tenant];
        let mut admit_s = 0.0;
        // Per-node batch stats from the formed schedule.
        let mut stat_of: BTreeMap<NodeId, BatchStats> = BTreeMap::new();
        for batch in &schedule.batches {
            if let Some(kr) = batch.kind.row().key {
                let bytes = keys.key_bytes(kr).expect("key presence validated at admit");
                admit_s += self.cache.touch(tenant, kr, bytes);
            }
            let stats = BatchStats {
                ops: batch.ops,
                wall_s: batch.wall_s,
                per_op_s: batch.per_op_s,
            };
            stat_of.extend(batch.nodes.iter().map(|&node| (node, stats)));
        }

        {
            let mut s = self.stats.lock().unwrap();
            s.dispatches += 1;
            s.batches += schedule.batches.len() as u64;
            s.ops += schedule.op_count() as u64;
            s.fused_ops += schedule
                .batches
                .iter()
                .filter(|b| b.ops > 1)
                .map(|b| b.ops as u64)
                .sum::<u64>();
            s.modeled_wall_s += schedule.wall_s() + admit_s;
            let ks = self.cache.stats();
            s.key_hits = ks.hits;
            s.key_misses = ks.misses;
            s.key_evictions = ks.evictions;
            s.key_admit_s = ks.admit_s;
            s.key_occupancy = self.cache.occupancy();
        }

        let item = WorkItem {
            tenant,
            seq: self.dispatch_seq,
            graph,
            schedule,
            inputs,
            jobs: tickets
                .into_iter()
                .map(|(req, node)| Job {
                    ticket: req.payload,
                    node,
                    stats: stat_of[&node],
                })
                .collect(),
        };
        self.dispatch_seq += 1;
        // Workers hold the receive side until the dispatcher has gone:
        // a dispatch's panic is caught inside its worker's loop.
        if self.work_tx.send(item).is_err() {
            unreachable!("workers outlive the dispatcher");
        }
    }

    fn run(mut self) {
        loop {
            // Intake: gather when idle — until the oldest queued
            // ticket's `submitted_at + batch_window` (a zero window
            // takes what is queued); with a backlog pending, only top
            // up without blocking (and without exceeding the queue's
            // bound), so the DRR windows keep draining.
            let submissions = if self.queue.is_empty() {
                let window = self.batch_window;
                self.rx
                    .recv_batch(self.gather_max, |s| s.ticket.submitted_at + window)
            } else {
                self.rx
                    .try_recv_batch(self.gather_max.saturating_sub(self.queue.len()))
            };
            if submissions.is_empty() && self.queue.is_empty() {
                break; // intake closed and drained — shut down
            }

            for sub in submissions {
                match self.admit(&sub) {
                    Err(e) => self.fail(&sub.ticket, e),
                    Ok(level) => {
                        self.queue
                            .submit(sub.tenant, sub.kind, level, sub.ticket)
                            .expect("queue bounded to the gather budget");
                    }
                }
            }

            // One deficit-round-robin window, formed into one dispatch
            // per tenant (fused batches never mix tenants).
            for (tenant, requests) in self.queue.pop_fair_by_tenant(self.drain_max) {
                let mut ok = Vec::with_capacity(requests.len());
                let mut inputs = Vec::new();
                for req in requests {
                    // Deferred operand resolution: an eviction between
                    // admission and dispatch surfaces here, failing
                    // only this ticket.
                    let operands = req.payload.operands.iter();
                    let cts: Result<Vec<_>, _> =
                        operands.map(|&id| self.store.get(tenant, id)).collect();
                    match cts {
                        Ok(cts) => {
                            inputs.extend(cts);
                            ok.push(req);
                        }
                        Err(e) => self.fail(&req.payload, e),
                    }
                }
                if !ok.is_empty() {
                    self.dispatch_tenant(tenant, ok, inputs);
                }
            }
        }
    }
}

fn worker(
    rx: Receiver<WorkItem>,
    ctx: &CkksContext,
    tenants: &BTreeMap<TenantId, ReplayKeys>,
    store: &CtStore,
    seq: &AtomicU64,
    panic_at: Option<u64>,
) -> Option<Box<dyn Any + Send>> {
    let ev = Evaluator::new(ctx);
    let mut fault = None;
    while let Some(mut item) = rx.recv() {
        // A panic mid-dispatch (a latent evaluator bug, or the
        // injected fault below) must not strand waiters: fail the
        // item's unfulfilled tickets, keep the first panic for
        // `serve_tenants` to re-raise, and serve on. Only this item's
        // tickets are affected — other dispatches complete, even on a
        // single worker.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if panic_at == Some(item.seq) {
                panic!("injected worker fault at dispatch {}", item.seq);
            }
            let inputs = item.inputs.iter().map(|ct| &**ct);
            let keys = &tenants[&item.tenant];
            let mut results = execute_borrowed(&item.graph, &item.schedule, &ev, keys, inputs);
            // Move (not clone) each result out of its slot — a ticket
            // node is computed, so its slot is owned, and each node
            // has one ticket.
            let outs: Vec<Ciphertext> = item
                .jobs
                .iter()
                .map(|job| {
                    let slot = std::mem::replace(&mut results[job.node], Slot::Pending(0));
                    slot.into_owned().expect("admitted ops are executable")
                })
                .collect();
            // Release the operands before any waiter wakes, so a client
            // that saw its completion `take`s them without a copy.
            drop(results);
            item.inputs.clear();
            for (job, ct) in item.jobs.iter().zip(outs) {
                // Results arrive unpinned: an unclaimed result is
                // exactly what LRU pressure should reclaim.
                let id = store.insert(item.tenant, ct, false);
                let seq = seq.fetch_add(1, Ordering::Relaxed);
                let batch = job.stats;
                job.ticket.resolve(Ok(Completed { id, batch, seq }));
            }
        }));
        if let Err(panic) = outcome {
            for job in &item.jobs {
                job.ticket.fail_if_unresolved();
            }
            fault.get_or_insert(panic);
        }
    }
    fault
}

/// Runs a multi-tenant serving loop for the closure's lifetime:
/// spawns the dispatcher and [`ServeConfig::workers`] workers on
/// scoped threads, calls `f` with the [`Server`], and after `f`
/// returns drains every pending submission before joining — every
/// accepted ticket is fulfilled by the time this returns. A panic in a
/// dispatch fails that dispatch's tickets and is re-raised here after
/// the join.
///
/// Results are bit-exact with eager per-tenant [`Evaluator`] calls
/// for any worker count, tenant interleaving, or store/key-cache
/// pressure. [`crate::serve::run`] is the single-tenant constructor
/// (one [`crate::queue::DEFAULT_TENANT`] spec) and delegates here.
///
/// # Panics
/// Panics if `tenants` is empty or contains duplicate ids.
pub fn serve_tenants<R>(
    ctx: &CkksContext,
    tenants: Vec<TenantSpec>,
    config: &ServeConfig,
    f: impl FnOnce(&Server) -> R,
) -> R {
    assert!(config.workers >= 1, "need at least one worker");
    assert!(!tenants.is_empty(), "register at least one tenant");
    let (tx, rx) = channel::bounded(config.capacity);
    // A shallow work queue: enough for every worker to stay busy while
    // the dispatcher forms the next batch, small enough that
    // backpressure reaches the intake instead of piling up here.
    let (work_tx, work_rx) = channel::bounded(config.workers.max(1) * 2);
    let store = Arc::new(CtStore::new(config.store_capacity));
    let stats = Arc::new(Mutex::new(ServeStats::default()));
    let seq = AtomicU64::new(0);

    let mut keys_map: BTreeMap<TenantId, ServeKeys> = BTreeMap::new();
    let mut gates: BTreeMap<TenantId, TenantGate> = BTreeMap::new();
    let mut queue = RequestQueue::bounded(config.capacity);
    for t in tenants {
        assert!(
            keys_map.insert(t.id, t.keys).is_none(),
            "duplicate tenant id {}",
            t.id
        );
        queue.set_weight(t.id, t.weight);
        gates.insert(
            t.id,
            TenantGate {
                in_flight: Arc::new(AtomicUsize::new(0)),
                quota: t.quota,
            },
        );
    }
    let keys_map = &keys_map;
    // Each tenant's keys as the executor reads them, built once and
    // borrowed by every worker.
    let replay_keys: BTreeMap<TenantId, ReplayKeys> =
        keys_map.iter().map(|(&id, k)| (id, k.replay())).collect();
    let replay_keys = &replay_keys;

    let dispatcher = Dispatcher {
        rx,
        work_tx,
        scheduler: config.scheduler(),
        params: *ctx.params(),
        probe_cache: ProbeCache::default(),
        tenants: keys_map,
        store: store.clone(),
        stats: stats.clone(),
        cache: KeyCache::new(config.gen, config.cores, config.key_cache_bytes),
        queue,
        drain_max: config.drain_max,
        gather_max: config.capacity,
        batch_window: config.batch_window,
        dispatch_seq: 0,
    };
    let seq = &seq;
    let (result, fault) = std::thread::scope(|s| {
        s.spawn(move || dispatcher.run());
        let workers: Vec<_> = (0..config.workers)
            .map(|_| {
                let rx = work_rx.clone();
                let store = store.clone();
                let panic_at = config.inject_worker_panic;
                s.spawn(move || {
                    // Several workers already share the cores: each runs
                    // its dispatch's kernels inline instead of fanning out.
                    if config.workers > 1 {
                        cross_math::par::mark_worker();
                    }
                    worker(rx, ctx, replay_keys, &store, seq, panic_at)
                })
            })
            .collect();
        drop(work_rx); // workers hold the only receive clones now
        let server = Server {
            intake: Intake {
                tx,
                store,
                stats,
                policy: config.policy,
            },
            gates,
            sessions: Arc::new(OpenSessions {
                count: AtomicUsize::new(0),
                // every RNS context of `ctx` shares this one pool
                limbs: ctx.level_ctx(1).pool().clone(),
            }),
        };
        let result = f(&server);
        // Dropping the server (and with it the last intake sender,
        // assuming sessions stayed inside `f`) closes the intake: the
        // dispatcher drains what is queued, drops the work channel,
        // the workers finish and fulfill every remaining ticket, and
        // joining them collects the first dispatch panic.
        drop(server);
        let mut fault = None;
        for w in workers {
            let panic = w.join().expect("a worker catches its dispatches' panics");
            fault = fault.or(panic);
        }
        (result, fault)
    });
    if let Some(panic) = fault {
        std::panic::resume_unwind(panic);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::CkksParams;
    use cross_tpu::TpuGeneration;

    fn toy_ctx() -> (CkksContext, cross_ckks::KeyPair) {
        let ctx = CkksContext::new(CkksParams::toy(), 41);
        let kp = ctx.generate_keys();
        (ctx, kp)
    }

    #[test]
    fn store_distinguishes_taken_evicted_and_foreign() {
        let (ctx, kp) = toy_ctx();
        let ct = ctx.encrypt(&vec![0.1; ctx.slot_count()], &kp.public);
        let store = CtStore::new(2);
        let a = store.insert(1, ct.clone(), false);
        let b = store.insert(1, ct.clone(), false);
        // Never allocated.
        assert_eq!(
            store.get(1, 999).err(),
            Some(ServeError::UnresolvedOperand(999))
        );
        // Foreign tenant.
        assert_eq!(store.get(2, a).err(), Some(ServeError::CrossTenant(a)));
        assert!(store.take(2, a).is_none(), "take refuses foreign ids too");
        // Pressure evicts the coldest unpinned entry (a, untouched).
        let c = store.insert(1, ct.clone(), false);
        assert_eq!(store.get(1, a).err(), Some(ServeError::Evicted(a)));
        assert!(store.get(1, b).is_ok());
        assert!(store.get(1, c).is_ok());
        assert_eq!(store.evictions(), 1);
        // Taken is unresolved, not evicted.
        assert!(store.take(1, b).is_some());
        assert_eq!(
            store.get(1, b).err(),
            Some(ServeError::UnresolvedOperand(b))
        );
    }

    #[test]
    fn store_get_shares_and_take_moves_an_unheld_entry() {
        let (ctx, kp) = toy_ctx();
        let ct = ctx.encrypt(&vec![0.1; ctx.slot_count()], &kp.public);
        let limbs = ct.c0.limbs()[0].as_ptr();
        let store = CtStore::new(2);
        let id = store.insert(1, ct, true);
        // `get` hands out the stored allocation itself.
        let (a, b) = (store.get(1, id).unwrap(), store.get(1, id).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        drop((a, b));
        // No dispatch holds it: `take` returns the inserted limbs.
        let taken = store.take(1, id).unwrap();
        assert_eq!(taken.c0.limbs()[0].as_ptr(), limbs);
    }

    #[test]
    fn take_during_a_dispatch_copies_and_the_dispatch_completes() {
        let (ctx, kp) = toy_ctx();
        let ct = ctx.encrypt(&vec![0.3; ctx.slot_count()], &kp.public);
        let store = CtStore::new(4);
        let x = store.insert(1, ct.clone(), true);
        // What the dispatcher does: resolve the operands, form the
        // dispatch and hand it to the work channel.
        let held = store.get(1, x).unwrap();
        let held_limbs = held.c0.limbs()[0].as_ptr();
        let completion = Completion::new();
        let request = HeRequest {
            ticket: 0,
            tenant: 1,
            kind: HeOpKind::Mult,
            level: ct.level,
            payload: Ticket {
                operands: vec![x, x],
                completion: completion.clone(),
                submitted_at: Instant::now(),
                in_flight: Arc::new(AtomicUsize::new(1)),
            },
        };
        let scheduler = Scheduler::new(TpuGeneration::V6e, 4);
        let probes = &mut ProbeCache::default();
        let dispatch =
            RequestQueue::dispatch_requests(vec![request], &scheduler, ctx.params(), probes);
        let stats = BatchStats {
            ops: 1,
            wall_s: 0.0,
            per_op_s: 0.0,
        };
        let jobs = dispatch.tickets.into_iter().map(|(req, node)| Job {
            ticket: req.payload,
            node,
            stats,
        });
        let (tx, rx) = channel::bounded(1);
        let item = WorkItem {
            tenant: 1,
            seq: 0,
            graph: dispatch.graph,
            schedule: dispatch.schedule,
            inputs: vec![held.clone(), held],
            jobs: jobs.collect(),
        };
        assert!(tx.send(item).is_ok());
        drop(tx);

        // The client takes the operand while the dispatch that reads
        // it waits for a worker: equal bits, in a copy of its own.
        let taken = store.take(1, x).unwrap();
        assert_eq!(taken.c0.limbs(), ct.c0.limbs());
        assert_eq!(taken.c1.limbs(), ct.c1.limbs());
        assert_ne!(taken.c0.limbs()[0].as_ptr(), held_limbs);

        // The dispatch still runs on its own reference, bit-exact.
        let tenants = BTreeMap::from([(1, ReplayKeys::new().with_relin(&kp.relin))]);
        let seq = AtomicU64::new(0);
        assert!(worker(rx, &ctx, &tenants, &store, &seq, None).is_none());
        let done = completion.try_wait().expect("resolved").unwrap();
        let got = store.take(1, done.id).unwrap();
        let want = Evaluator::new(&ctx).mult(&ct, &ct, &kp.relin);
        assert_eq!(got.c0.limbs(), want.c0.limbs());
        assert_eq!(got.c1.limbs(), want.c1.limbs());
        assert_eq!(got.scale.to_bits(), want.scale.to_bits());
    }

    #[test]
    fn store_honors_pins_over_capacity() {
        let (ctx, kp) = toy_ctx();
        let ct = ctx.encrypt(&vec![0.1; ctx.slot_count()], &kp.public);
        let store = CtStore::new(2);
        let ids: Vec<CtId> = (0..4).map(|_| store.insert(1, ct.clone(), true)).collect();
        // Everything pinned: the store runs over capacity, no pin is
        // invalidated.
        assert_eq!(store.len(), 4);
        for &id in &ids {
            assert!(store.get(1, id).is_ok());
        }
        // Releasing makes entries evictable again on the next insert.
        store.set_pinned(1, ids[0], false).unwrap();
        store.set_pinned(1, ids[1], false).unwrap();
        let _ = store.insert(1, ct.clone(), false);
        assert!(store.len() <= 3, "unpinned entries reclaimed");
    }

    #[test]
    fn sessions_enforce_quota() {
        let (ctx, kp) = toy_ctx();
        let tenants = vec![TenantSpec::new(7, ServeKeys::new()).with_quota(2)];
        // One worker and a tiny drain keep requests in flight long
        // enough to observe the quota refusing the third submission.
        let config = ServeConfig::new(TpuGeneration::V6e, 4)
            .with_workers(1)
            .with_drain_max(1);
        let ct = ctx.encrypt(&vec![0.5; ctx.slot_count()], &kp.public);
        serve_tenants(&ctx, tenants, &config, |server| {
            let s = server.session(7);
            let x = s.insert(ct.clone());
            let mut pending = Vec::new();
            let mut refused = 0;
            for _ in 0..8 {
                match s.add(x, x) {
                    Ok(c) => pending.push(c),
                    Err(SubmitError::TenantOverQuota) => refused += 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert!(
                pending.len() <= 4,
                "quota 2 cannot admit a large burst (got {})",
                pending.len()
            );
            assert!(refused > 0, "over-quota submissions refused");
            for c in pending {
                c.wait().unwrap();
            }
            // Quota slots free as tickets resolve.
            assert_eq!(s.in_flight(), 0);
            assert!(s.add(x, x).is_ok());
        });
    }

    #[test]
    fn the_last_session_to_close_releases_the_spare_limbs() {
        let (ctx, kp) = toy_ctx();
        let tenants = vec![TenantSpec::new(7, ServeKeys::new())];
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
        let ct = ctx.encrypt(&vec![0.5; ctx.slot_count()], &kp.public);
        let pool = ctx.level_ctx(1).pool().clone();
        serve_tenants(&ctx, tenants, &config, |server| {
            let (a, b) = (server.session(7), server.session(7));
            let x = a.insert(ct.clone());
            let done = a.add(x, x).unwrap().wait().unwrap();
            drop(a.take(done.id).expect("result stored"));
            assert!(pool.spare_count() > 0, "the result's limbs are spare");
            drop(a);
            assert!(pool.spare_count() > 0, "one session is still open");
            drop(b);
            assert_eq!(pool.spare_count(), 0, "the last session released them");
        });
    }

    #[test]
    fn shutdown_resolves_every_ticket_in_flight() {
        // The closure submits and returns without waiting on anything:
        // the drain on the way out must still resolve every ticket —
        // the valid ones with results, the bad ones with their error —
        // exactly once, and hand every quota slot back.
        const PER_TENANT: usize = 12;
        let (ctx, kp) = toy_ctx();
        let tenants = vec![
            TenantSpec::new(1, ServeKeys::new()),
            TenantSpec::new(2, ServeKeys::new()),
        ];
        let config = ServeConfig::new(TpuGeneration::V6e, 4)
            .with_workers(2)
            .with_drain_max(2);
        let ct = ctx.encrypt(&vec![0.5; ctx.slot_count()], &kp.public);
        let (pending, counters) = serve_tenants(&ctx, tenants, &config, |server| {
            let mut pending = Vec::new();
            for tenant in [1, 2] {
                let s = server.session(tenant);
                let x = s.insert(ct.clone());
                for i in 0..PER_TENANT {
                    // Every fourth request names an operand nobody stored.
                    let y = if i % 4 == 3 { 999 } else { x };
                    pending.push(s.add(x, y).expect("submit"));
                }
            }
            let counters: Vec<Arc<AtomicUsize>> =
                server.gates.values().map(|g| g.in_flight.clone()).collect();
            (pending, counters)
        });
        assert_eq!(pending.len(), 2 * PER_TENANT);
        let outcomes: Vec<_> = pending
            .iter()
            .map(|c| c.try_wait().expect("resolved before serve_tenants returns"))
            .collect();
        let seqs: BTreeSet<u64> = outcomes.iter().flatten().map(|done| done.seq).collect();
        assert_eq!(
            seqs.len(),
            2 * PER_TENANT * 3 / 4,
            "each result exactly once"
        );
        let errors = outcomes.iter().filter_map(|o| o.err());
        assert_eq!(
            errors.collect::<Vec<_>>(),
            vec![ServeError::UnresolvedOperand(999); 2 * PER_TENANT / 4]
        );
        for counter in counters {
            assert_eq!(counter.load(Ordering::Relaxed), 0, "quota slot leaked");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_tenant_session_panics() {
        let (ctx, _) = toy_ctx();
        let tenants = vec![TenantSpec::new(1, ServeKeys::new())];
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
        serve_tenants(&ctx, tenants, &config, |server| {
            let _ = server.session(2);
        });
    }
}
