//! The serving front door: submit HE operations (per tenant), drain
//! scheduled batches fairly across tenants, resolve tickets through
//! completion slots.
//!
//! [`RequestQueue`] is the entry point of the ROADMAP's serving story.
//! Producers [`submit`](RequestQueue::submit) operations and get back
//! a ticket number; a serving loop periodically
//! [`drain`](RequestQueue::drain)s up to `max_ops` pending operations
//! (its explicit argument — the scheduler's `max_fuse` then bounds
//! each fused group *within* that slice) into an [`OpGraph`], runs
//! the [`Scheduler`] over it, and dispatches the resulting
//! [`Schedule`]. The queue itself is synchronous and lock-free by
//! construction (one owner), so it can sit directly behind a channel:
//! that is exactly what [`crate::serve`] does, wrapping one
//! `RequestQueue` in a dispatcher thread behind
//! [`crate::channel::bounded`].
//!
//! Since the multi-tenant PR the queue is **per-tenant** inside:
//! every request belongs to a [`TenantId`] (the single-tenant entry
//! callers use [`DEFAULT_TENANT`]), each tenant has its own FIFO and a
//! [`weight`](RequestQueue::set_weight), and
//! [`pop_fair`](RequestQueue::pop_fair) interleaves tenants by
//! **deficit round robin**: per round every backlogged tenant earns
//! `weight` credits and pops that many requests, so a flooding tenant
//! cannot starve a light one while service stays work-conserving. The
//! serving loop forms **one dispatch per tenant** from each popped
//! window — fused batches never mix tenants, because a fused group
//! shares one switching key and keys are tenant-owned.
//!
//! Three serving building blocks live here alongside the queue:
//!
//! * **Payloads** — a request carries whatever the submitter attaches
//!   (`RequestQueue<P>`; `()` for the model-only callers) from
//!   [`submit`](RequestQueue::submit) through
//!   [`pop_fair`](RequestQueue::pop_fair) into the drained
//!   [`Dispatch`], so a serving loop keeps a ticket's whole state —
//!   its [`Completion`] slot included — in the one queued value.
//!   Whoever executes the dispatch fulfills the slot exactly once and
//!   every clone of the handle can
//!   [`wait`](Completion::wait)/[`try_wait`](Completion::try_wait) on
//!   the outcome ([`Completed`]: the result ciphertext id plus the
//!   modeled [`BatchStats`] of the fused batch the op rode in).
//! * **Bounded depth** — [`RequestQueue::bounded`] caps pending
//!   operations; [`submit`](RequestQueue::submit) surfaces
//!   [`QueueFull`] instead of growing without limit.
//! * **[`Backpressure`]** — the policy enum the serving loop applies
//!   when its intake is at capacity: block the producer or reject the
//!   request.
//!
//! # Examples
//!
//! Weighted-fair pop across two tenants — the flooding tenant gets
//! its weight's share, not the whole window:
//!
//! ```
//! use cross_ckks::params::ParamSet;
//! use cross_sched::{HeOpKind, RequestQueue};
//!
//! let params = ParamSet::B.params();
//! let mut queue = RequestQueue::new();
//! queue.set_weight(1, 1);
//! queue.set_weight(2, 1);
//! for _ in 0..12 {
//!     queue.submit(1, HeOpKind::Add, params.limbs, ()).unwrap(); // heavy tenant
//! }
//! for _ in 0..2 {
//!     queue.submit(2, HeOpKind::Add, params.limbs, ()).unwrap(); // light tenant
//! }
//! let window = queue.pop_fair(4);
//! // Equal weights: the 4-op window splits 2/2.
//! assert_eq!(window.len(), 4);
//! assert_eq!(window.iter().filter(|r| r.tenant == 2).count(), 2);
//! ```

use crate::ir::{HeOpKind, NodeId, OpGraph};
use crate::sched::{ProbeCache, Schedule, Scheduler};
use cross_ckks::params::CkksParams;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Id of a ciphertext in a serving-loop store (see
/// [`crate::session::Session::insert`]).
pub type CtId = u64;

/// Id of a serving tenant (a session owning its own key material,
/// ciphertexts, and fair-share weight — see [`crate::session`]).
pub type TenantId = u64;

/// The tenant the single-tenant entry points
/// ([`RequestQueue::submit_default`], [`crate::serve::run`]) operate
/// as.
pub const DEFAULT_TENANT: TenantId = 0;

/// What happens when a bounded intake is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the producer until a slot frees (lossless; producers slow
    /// to the loop's service rate).
    #[default]
    Block,
    /// Hand the request back immediately (the producer sees
    /// queue-full and decides — retry, shed, degrade).
    Reject,
}

/// A bounded queue refused a submission ([`RequestQueue::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("request queue at capacity")
    }
}

impl std::error::Error for QueueFull {}

/// Modeled pod cost of the fused batch a ticket rode in — the
/// scheduler's own figures for that [`crate::sched::FusedBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Ciphertext operations fused into the batch (1 = the op ran
    /// alone; larger = it shared its kernel, key load and twiddles).
    pub ops: usize,
    /// Modeled wall seconds of the whole batch.
    pub wall_s: f64,
    /// Modeled per-op seconds under the chosen sharding.
    pub per_op_s: f64,
}

/// Successful ticket outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completed {
    /// Store id of the result ciphertext
    /// ([`crate::session::Session::fetch`]/[`take`] retrieves it).
    ///
    /// [`take`]: crate::session::Session::take
    pub id: CtId,
    /// Cost of the batch the op was fused into.
    pub batch: BatchStats,
    /// Global completion sequence number: the position of this ticket
    /// in the serving loop's fulfillment order (0-based). Fairness
    /// tests read it to check that a light tenant's requests complete
    /// early instead of behind a heavy tenant's backlog. Zero when the
    /// queue is driven synchronously without a serving loop.
    pub seq: u64,
}

/// Why a serving ticket failed (validation errors — the loop never
/// executes a request it cannot complete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// An operand id is not (or no longer) in the store. Wait on the
    /// producing ticket before consuming its result.
    UnresolvedOperand(CtId),
    /// An operand id named a ciphertext that the bounded store evicted
    /// (it was released and LRU pressure reclaimed it before this
    /// request dispatched). [`retain`](crate::session::Session::retain)
    /// operands that must outlive later requests.
    Evicted(CtId),
    /// An operand id names a ciphertext owned by a *different* tenant.
    /// Cross-tenant reads are never served; only the offending ticket
    /// fails.
    CrossTenant(CtId),
    /// The server holds no switching key for the op (relinearization
    /// key for `Mult`, per-step rotation key for `Rotate`) under the
    /// submitting tenant's session.
    MissingKey(&'static str),
    /// The operands' level cannot host the op (`Mult`/`Rescale` need
    /// level ≥ 2; `ModDrop` targets must lie in `[1, level]`).
    InvalidLevel(&'static str),
    /// `Add`/`Sub` operands whose scales diverge beyond the CKKS
    /// tolerance.
    ScaleMismatch,
    /// The op kind cannot be served: it is cost-model-only (`Input`,
    /// `PlainMult`, `KeySwitch`, `Bootstrap`, `HoistDecomp`) or needs
    /// a plaintext-constant table a session does not carry
    /// (`PlainMultConst`, `PlainAddConst`).
    Unservable(&'static str),
    /// The operand count does not match the op kind's arity.
    WrongArity {
        /// Operands the kind consumes.
        expected: usize,
        /// Operands the request named.
        got: usize,
    },
    /// The executing side failed: a worker panicked mid-dispatch. The
    /// worker serves on and the panic propagates out of the serving
    /// loop at join — this outcome exists so waiting clients unblock
    /// instead of hanging.
    ExecutionFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnresolvedOperand(id) => write!(f, "operand ciphertext {id} not in store"),
            ServeError::Evicted(id) => write!(f, "operand ciphertext {id} was evicted"),
            ServeError::CrossTenant(id) => {
                write!(f, "operand ciphertext {id} belongs to another tenant")
            }
            ServeError::MissingKey(op) => write!(f, "no switching key for {op}"),
            ServeError::InvalidLevel(op) => write!(f, "operand level cannot host {op}"),
            ServeError::ScaleMismatch => f.write_str("Add/Sub operand scales diverge"),
            ServeError::Unservable(op) => write!(f, "{op} cannot be served"),
            ServeError::WrongArity { expected, got } => {
                write!(f, "op takes {expected} operand(s), request named {got}")
            }
            ServeError::ExecutionFailed => f.write_str("execution failed before completion"),
        }
    }
}

impl std::error::Error for ServeError {}

#[derive(Debug, Default)]
struct Slot {
    state: Mutex<Option<Result<Completed, ServeError>>>,
    ready: Condvar,
}

/// A per-ticket completion handle: cloneable, waitable, fulfilled
/// exactly once by whoever executes the dispatch.
///
/// The submitter keeps one clone and [`wait`](Completion::wait)s; the
/// executing side receives another clone inside the request's
/// payload and fulfills it. Fulfilling twice is a bug and panics.
#[derive(Debug, Clone, Default)]
pub struct Completion {
    slot: Arc<Slot>,
}

impl Completion {
    /// A fresh, unfulfilled slot.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Blocks until the ticket resolves, then returns the outcome.
    pub fn wait(&self) -> Result<Completed, ServeError> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            if let Some(outcome) = *st {
                return outcome;
            }
            st = self.slot.ready.wait(st).unwrap();
        }
    }

    /// Returns the outcome if the ticket already resolved.
    pub fn try_wait(&self) -> Option<Result<Completed, ServeError>> {
        *self.slot.state.lock().unwrap()
    }

    /// Resolves the ticket. Crate-internal: only the executing side of
    /// a serving loop fulfills slots.
    ///
    /// # Panics
    /// Panics if the slot was already fulfilled — every ticket
    /// completes exactly once.
    pub(crate) fn fulfill(&self, outcome: Result<Completed, ServeError>) {
        assert!(self.fulfill_if_empty(outcome), "ticket fulfilled twice");
    }

    /// Resolves the ticket unless it already resolved; returns whether
    /// this call filled the slot. The serving loop's panic-recovery
    /// path uses this (it cannot know which slots a dying worker
    /// already fulfilled).
    pub(crate) fn fulfill_if_empty(&self, outcome: Result<Completed, ServeError>) -> bool {
        let mut st = self.slot.state.lock().unwrap();
        if st.is_some() {
            return false;
        }
        *st = Some(outcome);
        self.slot.ready.notify_all();
        true
    }
}

/// One pending HE operation, carrying the submitter's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeRequest<P = ()> {
    /// Ticket number handed back to the submitter.
    pub ticket: u64,
    /// The tenant the request belongs to.
    pub tenant: TenantId,
    /// Requested operator.
    pub kind: HeOpKind,
    /// Level the operands sit at.
    pub level: usize,
    /// Whatever the submitter attached — it comes back out with the
    /// request, so per-ticket state needs no table beside the queue.
    pub payload: P,
}

/// A drained, scheduled slice of the queue.
#[derive(Debug, Clone)]
pub struct Dispatch<P = ()> {
    /// The ops formed into a graph (each request becomes its input
    /// node(s) plus one op node).
    pub graph: OpGraph,
    /// The batch schedule over that graph.
    pub schedule: Schedule,
    /// Each drained request (payload and all) with the op node that
    /// computes it, in pop order.
    pub tickets: Vec<(HeRequest<P>, NodeId)>,
}

/// Per-tenant FIFO queues of HE operations awaiting batch formation,
/// optionally bounded (total across tenants), with a per-request
/// payload and deficit-round-robin fair draining.
#[derive(Debug, Clone)]
pub struct RequestQueue<P = ()> {
    queues: BTreeMap<TenantId, VecDeque<HeRequest<P>>>,
    weights: BTreeMap<TenantId, u64>,
    deficits: BTreeMap<TenantId, u64>,
    /// Where the round robin resumes: the tenant whose turn the last
    /// [`pop_fair`](Self::pop_fair) window cut short (it finishes its
    /// remaining credits first), or the first tenant after the last
    /// completed turn.
    cursor: Option<TenantId>,
    next_ticket: u64,
    pending: usize,
    capacity: usize,
}

impl<P> Default for RequestQueue<P> {
    fn default() -> Self {
        Self {
            queues: BTreeMap::new(),
            weights: BTreeMap::new(),
            deficits: BTreeMap::new(),
            cursor: None,
            next_ticket: 0,
            pending: 0,
            capacity: usize::MAX,
        }
    }
}

impl RequestQueue {
    /// [`submit`](Self::submit) for the model-only callers: no
    /// payload, [`DEFAULT_TENANT`].
    pub fn submit_default(&mut self, kind: HeOpKind, level: usize) -> Result<u64, QueueFull> {
        self.submit(DEFAULT_TENANT, kind, level, ())
    }
}

impl<P> RequestQueue<P> {
    /// An unbounded queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding at most `capacity` pending operations across
    /// all tenants — [`submit`](Self::submit) refuses beyond that. The
    /// serving loop pairs this bound with a [`Backpressure`] policy at
    /// its intake.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be ≥ 1");
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Sets `tenant`'s fair-share weight (default 1): per
    /// [`pop_fair`](Self::pop_fair) round a backlogged tenant pops up
    /// to `weight` requests, so a tenant with weight 3 gets 3× the
    /// service of a weight-1 tenant while both stay backlogged.
    ///
    /// # Panics
    /// Panics if `weight == 0` (a zero-weight tenant would starve).
    pub fn set_weight(&mut self, tenant: TenantId, weight: u64) {
        assert!(weight >= 1, "tenant weight must be ≥ 1");
        self.weights.insert(tenant, weight);
    }

    /// `tenant`'s fair-share weight (1 unless
    /// [`set_weight`](Self::set_weight) changed it).
    pub(crate) fn weight(&self, tenant: TenantId) -> u64 {
        self.weights.get(&tenant).copied().unwrap_or(1)
    }

    /// Enqueues one operation for `tenant` with its `payload`,
    /// returning its ticket number — or [`QueueFull`] (dropping the
    /// payload) when a [`bounded`](Self::bounded) queue is at
    /// capacity.
    ///
    /// # Panics
    /// Panics on [`HeOpKind::Input`] (inputs are implied by the
    /// request's operands, not submitted).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        kind: HeOpKind,
        level: usize,
        payload: P,
    ) -> Result<u64, QueueFull> {
        assert!(kind != HeOpKind::Input, "submit operations, not inputs");
        if self.pending >= self.capacity {
            return Err(QueueFull);
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queues.entry(tenant).or_default().push_back(HeRequest {
            ticket,
            tenant,
            kind,
            level,
            payload,
        });
        self.pending += 1;
        Ok(ticket)
    }

    /// Pending operations across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Pops up to `max` requests by **deficit round robin** across the
    /// backlogged tenants: on its turn each tenant with pending
    /// requests earns `weight` credits and pops that
    /// many requests FIFO; turns repeat round robin (ascending
    /// [`TenantId`], wrapping) until `max` requests are popped or
    /// every queue is empty. A turn the window cuts short is
    /// *resumed* — the next call starts at that tenant with its
    /// remaining credits — so a light tenant's share survives window
    /// boundaries and no weight assignment can starve anyone. All
    /// carried credit and the resume position reset when the queue
    /// fully drains: credits never hoard across idle periods.
    ///
    /// With a single tenant this is plain FIFO. Deterministic: the
    /// pop sequence is a pure function of the submission/weight
    /// history.
    pub fn pop_fair(&mut self, max: usize) -> Vec<HeRequest<P>> {
        let mut out = Vec::new();
        while out.len() < max && self.pending > 0 {
            // One round: backlogged tenants ascending, rotated so the
            // round starts at the resume cursor.
            let mut round: Vec<TenantId> = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&t, _)| t)
                .collect();
            if let Some(cursor) = self.cursor {
                let start = round.iter().position(|&t| t >= cursor).unwrap_or(0);
                round.rotate_left(start);
            }
            for tenant in round {
                if out.len() >= max {
                    break;
                }
                // A cut turn resumes with its remaining credits; a
                // fresh turn earns the tenant's weight.
                let credits = self
                    .deficits
                    .remove(&tenant)
                    .unwrap_or_else(|| self.weight(tenant));
                let queue = self.queues.get_mut(&tenant).expect("backlogged above");
                let take = (credits as usize).min(queue.len()).min(max - out.len());
                out.extend(queue.drain(..take));
                self.pending -= take;
                if !queue.is_empty() && credits > take as u64 {
                    // The window cut this turn short: resume it (with
                    // the unused credit) at the next call.
                    self.deficits.insert(tenant, credits - take as u64);
                    self.cursor = Some(tenant);
                } else {
                    // Turn complete — the robin moves on.
                    self.cursor = Some(tenant + 1);
                }
            }
        }
        if self.pending == 0 {
            self.deficits.clear();
            self.cursor = None;
        }
        out
    }

    /// One [`pop_fair`](Self::pop_fair) window split by tenant
    /// (ascending tenant id, pop order within each) — the unit a
    /// dispatch is formed from, because a fused batch shares one
    /// switching key and keys are tenant-owned.
    pub(crate) fn pop_fair_by_tenant(
        &mut self,
        max: usize,
    ) -> BTreeMap<TenantId, Vec<HeRequest<P>>> {
        let mut by_tenant: BTreeMap<TenantId, Vec<HeRequest<P>>> = BTreeMap::new();
        for req in self.pop_fair(max) {
            by_tenant.entry(req.tenant).or_default().push(req);
        }
        by_tenant
    }

    /// Schedules an already-popped request slice: each request gets
    /// fresh input node(s) at its level plus one batch-1 op node (the
    /// scheduler does the merging), input nodes created per request in
    /// slice order, operand-major — the order an executor's `inputs`
    /// slice must follow. Public so a serving loop that resolves
    /// operands *between* popping and scheduling (to surface evictions
    /// as per-ticket errors) can drive it directly. Scheduling reads
    /// and fills `probe_cache` ([`Scheduler::schedule_memo`]).
    pub(crate) fn dispatch_requests(
        requests: Vec<HeRequest<P>>,
        scheduler: &Scheduler,
        params: &CkksParams,
        probe_cache: &mut ProbeCache,
    ) -> Dispatch<P> {
        let mut graph = OpGraph::new();
        let mut nodes = Vec::with_capacity(requests.len());
        for req in &requests {
            let ins: Vec<NodeId> = (0..req.kind.arity())
                .map(|_| graph.input(req.level))
                .collect();
            nodes.push(graph.add_op(req.kind, req.level, 1, &ins));
        }
        let schedule = scheduler.schedule_memo(&graph, params, probe_cache);
        Dispatch {
            graph,
            schedule,
            tickets: requests.into_iter().zip(nodes).collect(),
        }
    }

    /// Drains up to `max_ops` pending operations
    /// ([`pop_fair`](Self::pop_fair)) and schedules them as **one**
    /// dispatch (`dispatch_requests`).
    ///
    /// With multiple tenants queued, the merged graph can fuse ops
    /// *across* tenants — only correct when every tenant shares one
    /// keyset. Tenant-owned keys require one dispatch per tenant, as
    /// the serving loop forms.
    pub fn drain(
        &mut self,
        scheduler: &Scheduler,
        params: &CkksParams,
        max_ops: usize,
    ) -> Dispatch<P> {
        let requests = self.pop_fair(max_ops);
        Self::dispatch_requests(requests, scheduler, params, &mut ProbeCache::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::params::ParamSet;
    use cross_tpu::TpuGeneration;

    #[test]
    fn tickets_are_sequential_and_fifo() {
        let mut q = RequestQueue::new();
        let t0 = q.submit_default(HeOpKind::Add, 4).unwrap();
        let t1 = q.submit_default(HeOpKind::Mult, 4).unwrap();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(q.len(), 2);
        let params = ParamSet::B.params();
        let d = q.drain(&Scheduler::new(TpuGeneration::V6e, 4), &params, 8);
        assert!(q.is_empty());
        assert_eq!(d.tickets.len(), 2);
        assert_eq!(d.tickets[0].0.ticket, 0);
        // Add: 2 inputs + op; Mult: 2 inputs + op.
        assert_eq!(d.graph.len(), 6);
        assert_eq!(d.graph.op_count(), 2);
    }

    #[test]
    fn drain_respects_cap_and_keeps_remainder() {
        let params = ParamSet::B.params();
        let mut q = RequestQueue::new();
        for _ in 0..5 {
            q.submit_default(HeOpKind::Rotate { steps: 1 }, params.limbs)
                .unwrap();
        }
        let s = Scheduler::new(TpuGeneration::V6e, 4);
        let d = q.drain(&s, &params, 3);
        assert_eq!(d.tickets.len(), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(d.schedule.op_count(), 3);
        // All three rotations are compatible — one fused batch.
        assert_eq!(d.schedule.batches.len(), 1);
        assert_eq!(d.schedule.batches[0].ops, 3);
    }

    #[test]
    #[should_panic(expected = "operations, not inputs")]
    fn input_submissions_rejected() {
        let mut q = RequestQueue::new();
        let _ = q.submit_default(HeOpKind::Input, 4);
    }

    #[test]
    fn bounded_queue_rejects_then_frees() {
        let params = ParamSet::B.params();
        let mut q = RequestQueue::bounded(2);
        assert_eq!(q.capacity, 2);
        q.submit_default(HeOpKind::Add, params.limbs).unwrap();
        q.submit_default(HeOpKind::Add, params.limbs).unwrap();
        assert_eq!(
            q.submit_default(HeOpKind::Add, params.limbs),
            Err(QueueFull),
            "at capacity"
        );
        let s = Scheduler::new(TpuGeneration::V6e, 4);
        let _ = q.drain(&s, &params, 1);
        // One slot freed by the drain.
        assert!(q.submit_default(HeOpKind::Add, params.limbs).is_ok());
    }

    #[test]
    fn completion_slots_travel_with_the_dispatch() {
        let params = ParamSet::B.params();
        let mut q = RequestQueue::new();
        let c = Completion::new();
        let t = q
            .submit(DEFAULT_TENANT, HeOpKind::Add, params.limbs, c.clone())
            .unwrap();
        q.submit(
            DEFAULT_TENANT,
            HeOpKind::Add,
            params.limbs,
            Completion::new(),
        )
        .unwrap();
        assert!(c.try_wait().is_none());
        let s = Scheduler::new(TpuGeneration::V6e, 4);
        let d = q.drain(&s, &params, 8);
        assert_eq!(d.tickets[0].0.ticket, t);
        let slot = &d.tickets[0].0.payload;
        assert!(d.tickets[1].0.payload.try_wait().is_none(), "its own slot");
        let done = Completed {
            id: 42,
            batch: BatchStats {
                ops: 2,
                wall_s: 1e-3,
                per_op_s: 5e-4,
            },
            seq: 0,
        };
        slot.fulfill(Ok(done));
        assert_eq!(c.wait().unwrap().id, 42);
        assert_eq!(c.try_wait().unwrap().unwrap().batch.ops, 2);
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_fulfillment_is_a_bug() {
        let c = Completion::new();
        c.fulfill(Err(ServeError::ScaleMismatch));
        c.fulfill(Err(ServeError::ScaleMismatch));
    }

    #[test]
    fn completion_wait_unblocks_across_threads() {
        let c = Completion::new();
        let executor = c.clone();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| c.wait());
            executor.fulfill(Err(ServeError::MissingKey("Rotate")));
            assert_eq!(
                waiter.join().unwrap(),
                Err(ServeError::MissingKey("Rotate"))
            );
        });
    }

    #[test]
    fn pop_fair_splits_a_window_by_weight() {
        let mut q = RequestQueue::new();
        q.set_weight(1, 3);
        q.set_weight(2, 1);
        for _ in 0..12 {
            q.submit(1, HeOpKind::Add, 4, ()).unwrap();
        }
        for _ in 0..12 {
            q.submit(2, HeOpKind::Add, 4, ()).unwrap();
        }
        // Both backlogged: an 8-op window splits 6/2 by the 3:1 weights.
        let popped = q.pop_fair(8);
        let heavy = popped.iter().filter(|r| r.tenant == 1).count();
        assert_eq!((heavy, popped.len() - heavy), (6, 2));
        assert_eq!(q.len(), 16);
    }

    #[test]
    fn pop_fair_is_work_conserving_when_a_tenant_drains() {
        let mut q = RequestQueue::new();
        for _ in 0..10 {
            q.submit(1, HeOpKind::Add, 4, ()).unwrap();
        }
        q.submit(2, HeOpKind::Add, 4, ()).unwrap();
        // Tenant 2 has one request; tenant 1 absorbs the rest of the
        // window instead of slots going idle.
        let popped = q.pop_fair(8);
        assert_eq!(popped.len(), 8);
        assert_eq!(popped.iter().filter(|r| r.tenant == 2).count(), 1);
    }

    #[test]
    fn pop_fair_resumes_cut_turns_across_windows() {
        let mut q = RequestQueue::new();
        q.set_weight(1, 4);
        q.set_weight(2, 4);
        for _ in 0..12 {
            q.submit(1, HeOpKind::Add, 4, ()).unwrap();
            q.submit(2, HeOpKind::Add, 4, ()).unwrap();
        }
        // Every window of 6 cuts one tenant's 4-credit turn short; the
        // cut turn resumes (with its remaining credits) at the next
        // window, so the robin keeps rotating instead of the low-id
        // tenant winning every window's front slot.
        let t1 = |w: &[HeRequest]| w.iter().filter(|r| r.tenant == 1).count();
        let splits: Vec<(usize, usize)> = (0..4)
            .map(|_| {
                let w = q.pop_fair(6);
                (t1(&w), w.len() - t1(&w))
            })
            .collect();
        assert_eq!(splits, [(4, 2), (4, 2), (2, 4), (2, 4)]);
        // Equal weights ⇒ equal service once the windows amortize.
        let served_1: usize = splits.iter().map(|s| s.0).sum();
        let served_2: usize = splits.iter().map(|s| s.1).sum();
        assert_eq!(served_1, served_2);
    }

    #[test]
    fn pop_fair_by_tenant_forms_one_dispatch_per_tenant() {
        let params = ParamSet::B.params();
        let mut q = RequestQueue::new();
        for _ in 0..4 {
            q.submit(7, HeOpKind::Rotate { steps: 1 }, params.limbs, ())
                .unwrap();
            q.submit(9, HeOpKind::Rotate { steps: 1 }, params.limbs, ())
                .unwrap();
        }
        let s = Scheduler::new(TpuGeneration::V6e, 4);
        let dispatches: Vec<_> = q
            .pop_fair_by_tenant(8)
            .into_iter()
            .map(|(t, r)| {
                (
                    t,
                    RequestQueue::dispatch_requests(r, &s, &params, &mut ProbeCache::default()),
                )
            })
            .collect();
        assert_eq!(dispatches.len(), 2);
        for (tenant, d) in &dispatches {
            assert!([7, 9].contains(tenant));
            assert_eq!(d.tickets.len(), 4);
            // Same-step rotations fuse within the tenant's dispatch —
            // never across tenants (each dispatch is its own graph).
            assert_eq!(d.schedule.batches.len(), 1);
            assert_eq!(d.schedule.batches[0].ops, 4);
        }
    }
}
