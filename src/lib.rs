//! # cross
//!
//! Umbrella crate for the CROSS reproduction — *Leveraging ASIC AI
//! Chips for Homomorphic Encryption* (HPCA 2026). Re-exports the whole
//! stack so applications can depend on a single crate:
//!
//! * [`math`] — modular arithmetic, primes, RNS/CRT, bignum;
//! * [`poly`] — negacyclic rings and reference NTT engines;
//! * [`tpu`] — the functional + analytical TPU simulator;
//! * [`core`] — the CROSS compiler (BAT + MAT + lowering);
//! * [`ckks`] — the RNS-CKKS scheme substrate;
//! * [`sched`] — the HE op-graph IR and batch-forming pod scheduler;
//! * [`baselines`] — GPU-style algorithms and the published dataset.
//!
//! ## Quickstart
//!
//! ```
//! use cross::ckks::{CkksContext, CkksParams, Evaluator};
//!
//! let ctx = CkksContext::new(CkksParams::toy(), 1);
//! let keys = ctx.generate_keys();
//! let ev = Evaluator::new(&ctx);
//! let xs: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 * 1e-3).collect();
//! let ct = ctx.encrypt(&xs, &keys.public);
//! let sq = ev.mult(&ct, &ct, &keys.relin); // encrypted x², relinearized + rescaled
//! let out = ctx.decrypt(&sq, &keys.secret);
//! assert!((out[5] - xs[5] * xs[5]).abs() < 1e-2);
//! ```
//!
//! ## Batched execution
//!
//! Same-level ciphertexts gather into a
//! [`BatchedCiphertext`](ckks::BatchedCiphertext), and each `*_batch`
//! operator runs the eager body on every entry, spread over the worker
//! pool once the entries pay for it — bit-exact with the sequential
//! loop. Fusing a batch into the matmul dimensions (Fig. 11b) is the
//! cost model's, `cross_sched`'s `FusedBatch`:
//!
//! ```
//! use cross::ckks::{BatchedCiphertext, CkksContext, CkksParams, Evaluator};
//!
//! let ctx = CkksContext::new(CkksParams::toy(), 2);
//! let keys = ctx.generate_keys();
//! let ev = Evaluator::new(&ctx);
//! let msgs: Vec<Vec<f64>> =
//!     (0..4).map(|b| vec![0.1 * b as f64; ctx.slot_count()]).collect();
//! let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &keys.public)).collect();
//! let batch = BatchedCiphertext::from_ciphertexts(&cts);
//! let sq = ev.mult_batch(&batch, &batch, &keys.relin); // the eager mult on each entry
//! for (b, ct) in sq.to_ciphertexts().iter().enumerate() {
//!     let out = ctx.decrypt(ct, &keys.secret);
//!     let want = (0.1 * b as f64) * (0.1 * b as f64);
//!     assert!((out[0] - want).abs() < 1e-2);
//! }
//! ```
//!
//! ## Multi-chip sharding
//!
//! Multi-core latency estimates run on a [`tpu::PodSim`] — N tensor
//! cores joined by the generation's ICI/DCN topology — via the
//! `*_pod` entry points of [`ckks::costs`] (this is the README's
//! sharding doctest):
//!
//! ```
//! use cross::ckks::costs::{self, ExecMode};
//! use cross::ckks::params::ParamSet;
//! use cross::tpu::{PodSim, TpuGeneration};
//!
//! let params = ParamSet::D.params();
//! // One operator, described once: phases → counts → bundle (+ key).
//! let mult = costs::HE_MULT.bundle("HE-Mult", &params, params.limbs, 1);
//! let mut pod = PodSim::new(TpuGeneration::V6e, 8); // v6e-8, real ICI
//! let rep = costs::charge_op_pod(&mut pod, &params, &mult, ExecMode::Unfused);
//! assert!(rep.comm_s > 0.0);                        // sharding is not free
//! assert_eq!(rep.per_core_latency_s.len(), 8);      // load-balance picture
//! println!("{:.0} us, {:.0}% comm", rep.latency_us(), rep.comm_fraction() * 100.0);
//! ```
//!
//! ## Op-graph IR and the pod scheduler
//!
//! Whole workloads are expressed as a [`sched::OpGraph`] — recorded
//! with [`sched::Recorder`] or submitted through the
//! [`sched::RequestQueue`] front door — then batch-formed by
//! [`sched::Scheduler`] and costed in one pass by
//! [`sched::cost_graph`] (this is the README's scheduler doctest):
//!
//! ```
//! use cross::ckks::costs::ExecMode;
//! use cross::ckks::params::ParamSet;
//! use cross::sched::{cost_graph, HeOpKind, RequestQueue, Scheduler};
//! use cross::tpu::{PodSim, TpuGeneration};
//!
//! let params = ParamSet::C.params();
//! let mut queue = RequestQueue::new();
//! for _ in 0..8 {
//!     queue.submit_default(HeOpKind::Mult, params.limbs).unwrap();
//! }
//! let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
//! let dispatch = queue.drain(&scheduler, &params, 8);
//! assert_eq!(dispatch.schedule.batches.len(), 1); // 8 mults fuse
//! // The same graph, interpreted: per-node PodKernelReports plus the
//! // whole-graph critical-path/amortized totals.
//! let mut pod = PodSim::new(TpuGeneration::V6e, 8);
//! let report = cost_graph(&mut pod, &params, &dispatch.graph, ExecMode::FusedBatch);
//! assert!(report.critical_s > 0.0 && report.comm_s > 0.0);
//! // Fused batches beat dispatching each op alone.
//! assert!(dispatch.schedule.wall_s() < scheduler.naive_wall_s(&dispatch.graph, &params));
//! ```
//!
//! ## Optimizer passes
//!
//! Recorded graphs are rewritten before scheduling by the
//! [`sched::PassManager`] pipeline — the rescale/ModDrop waterline,
//! common-rotation dedup, CSE, and cost-guarded rotation hoisting —
//! bit-exact on sink values and never costlier under the one pod cost
//! engine (this is the README's optimizer doctest):
//!
//! ```
//! use cross::ckks::costs::ExecMode;
//! use cross::ckks::params::ParamSet;
//! use cross::sched::{cost_graph, HeOpKind, OpGraph, PassManager};
//! use cross::tpu::{PodSim, TpuGeneration};
//!
//! let params = ParamSet::C.params();
//! let l = params.limbs;
//! let mut g = OpGraph::new();
//! let x = g.input(l);
//! for steps in [1, 1, 2, 2, 4, 4, 8, 8] {
//!     g.add_op(HeOpKind::Rotate { steps }, l, 1, &[x]); // recorded twice by accident
//! }
//! let pm = PassManager::standard(TpuGeneration::V6e, 8, ExecMode::FusedBatch);
//! let rw = pm.run(&g, &params);
//! assert!(rw.graph.op_count() < g.op_count()); // dedup, then one shared decomposition
//! let mut pod = PodSim::new(TpuGeneration::V6e, 8);
//! let before = cost_graph(&mut pod, &params, &g, ExecMode::FusedBatch);
//! let after = cost_graph(&mut pod, &params, &rw.graph, ExecMode::FusedBatch);
//! assert!(after.critical_s <= before.critical_s); // passes never cost
//! // rw.remap[old] says where every original value now lives.
//! ```
//!
//! ## Serving
//!
//! [`sched::serve::run`] wraps the queue and scheduler in a
//! registry-free multi-threaded serving loop — a dispatcher thread
//! forms batches, scoped workers execute them entry by entry through
//! the evaluator, and every submission resolves to a
//! [`sched::Completion`] carrying the result ciphertext id plus the
//! modeled pod cost of the fused batch it rode in (this is the
//! README's serving doctest):
//!
//! ```
//! use cross::ckks::{CkksContext, CkksParams};
//! use cross::sched::serve::{self, ServeConfig, ServeKeys};
//! use cross::tpu::TpuGeneration;
//!
//! let ctx = CkksContext::new(CkksParams::toy(), 9);
//! let kp = ctx.generate_keys();
//! let keys = ServeKeys::new()
//!     .with_relin(kp.relin.clone())
//!     .with_rotation(1, ctx.generate_rotation_key(&kp.secret, 1));
//! let config = ServeConfig::new(TpuGeneration::V6e, 8).with_workers(2);
//!
//! serve::run(&ctx, &keys, &config, |session| {
//!     let msg = vec![0.2; ctx.slot_count()];
//!     let x = session.insert(ctx.encrypt(&msg, &kp.public));
//!     // A burst of mults and rotates; completions resolve per ticket.
//!     let pending: Vec<_> = (0..6)
//!         .map(|i| if i % 2 == 0 { session.mult(x, x) } else { session.rotate(x, 1) })
//!         .map(|c| c.expect("accepted"))
//!         .collect();
//!     for completion in pending {
//!         let done = completion.wait().expect("every ticket completes");
//!         println!(
//!             "result ct {} rode a batch of {} ops ({:.1} us/op modeled)",
//!             done.id, done.batch.ops, done.batch.per_op_s * 1e6,
//!         );
//!         let _response = session.take(done.id).expect("result stored");
//!     }
//!     assert!(session.stats().occupancy() >= 1.0);
//! });
//! ```

pub use cross_baselines as baselines;
pub use cross_ckks as ckks;
pub use cross_core as core;
pub use cross_math as math;
pub use cross_poly as poly;
pub use cross_sched as sched;
pub use cross_tpu as tpu;
