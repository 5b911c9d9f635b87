//! # cross-sched
//!
//! The workload layer of the CROSS reproduction: an HE **op-graph IR**
//! plus a **batch-forming pod scheduler**, so every workload estimate
//! flows through one compiler path instead of per-bin hand-written
//! loops.
//!
//! The pieces, bottom to top:
//!
//! * [`ir`] — [`HeOp`]/[`OpGraph`]: a dependency DAG of HE operators
//!   with level + batch metadata, topologically ordered by
//!   construction;
//! * [`record`] — [`Recorder`]: write an evaluator-shaped program
//!   against virtual ciphertexts and get the graph back;
//! * [`cost`] — [`cost_graph`]: interpret a graph on a
//!   [`cross_tpu::PodSim`], charging the same kernel bundles as
//!   [`cross_ckks::costs::charge_op_pod`] (bit-identical on a one-op
//!   graph); it is also the one bootstrapping estimator;
//! * [`sched`] — [`Scheduler`]: greedy batch formation (same op, same
//!   level, same wave) and the limb- vs batch-parallel choice per
//!   fused group;
//! * [`queue`] — [`RequestQueue`]: the serving front door — submit
//!   ops (bounded, each carrying the submitter's payload — a serving
//!   loop's whole ticket, [`Completion`] slot included), drain
//!   scheduled batches;
//! * [`exec`] — [`replay`]/[`execute_schedule`]: run graphs and
//!   schedules op by op through the eager evaluator (a fused group is
//!   the model's unit, not a host kernel);
//! * [`opt`] — [`PassManager`]: optimizer passes over the IR
//!   (waterline level placement, rotation dedup, CSE, probe-guarded
//!   rotation hoisting), bit-exact on sink values and never
//!   cost-increasing;
//! * [`channel`] — a registry-free bounded channel (block or reject
//!   at capacity);
//! * [`serve`] / [`session`] — [`serve::run`] and [`serve_tenants`]:
//!   the multi-threaded serving loop —
//!   a dispatcher thread batches submissions through the scheduler,
//!   scoped worker threads execute them, every ticket resolves to a
//!   [`Completion`] carrying the result ciphertext id and the modeled
//!   cost of the batch it rode in.
//!
//! ## Example
//!
//! Queue a burst of rotations, form batches, and cost the schedule:
//!
//! ```
//! use cross_sched::{HeOpKind, RequestQueue, Scheduler};
//! use cross_ckks::params::ParamSet;
//! use cross_tpu::TpuGeneration;
//!
//! let params = ParamSet::C.params();
//! let mut queue = RequestQueue::new();
//! for _ in 0..12 {
//!     queue.submit_default(HeOpKind::Rotate { steps: 1 }, params.limbs).unwrap();
//! }
//! let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
//! let dispatch = queue.drain(&scheduler, &params, 16);
//! assert_eq!(dispatch.schedule.op_count(), 12);
//! // All 12 rotations share a key and level → one fused batch, and
//! // fusing beats dispatching them one by one.
//! assert_eq!(dispatch.schedule.batches.len(), 1);
//! assert!(dispatch.schedule.wall_s() < scheduler.naive_wall_s(&dispatch.graph, &params));
//! ```

pub mod channel;
pub mod cost;
pub mod exec;
pub mod ir;
pub mod keycache;
pub mod opt;
pub mod queue;
pub mod record;
pub mod sched;
pub mod serve;
pub mod session;
pub mod sgn;
#[doc(hidden)]
pub mod testutil;

pub use cost::{cost_graph, GraphCostReport, NodeCost};
pub use exec::{execute_schedule, replay, ReplayKeys};
pub use ir::{HeOp, HeOpKind, NodeId, OpGraph};
pub use keycache::{KeyCache, KeyCacheStats, KeyRef};
pub use opt::{Cse, HoistRotations, Pass, PassManager, Rewrite, RotationDedup, Waterline};
pub use queue::{
    Backpressure, BatchStats, Completed, Completion, CtId, Dispatch, HeRequest, QueueFull,
    RequestQueue, ServeError, TenantId, DEFAULT_TENANT,
};
pub use record::{Recorder, Vct};
pub use sched::{FusedBatch, Schedule, Scheduler};
pub use serve::{ServeConfig, ServeKeys, ServeStats, SubmitError};
pub use session::{serve_tenants, Server, Session, TenantSpec};
pub use sgn::{RecordingSgnBackend, SgnRecording, TrackedVct};
