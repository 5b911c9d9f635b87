//! Batch formation: turn an [`OpGraph`] into [`FusedBatch`] groups and
//! pick a sharding strategy per group.
//!
//! The scheduler walks the graph's dependency waves
//! ([`OpGraph::waves`]) and greedily merges compatible ops — same
//! [`HeOpKind`] (including its key-selecting parameters) at the same
//! level, in the same wave — into fused groups of at most
//! [`Scheduler::max_fuse`] ciphertext operations. Per group it then
//! decides the amortized-vs-critical-path trade-off the pod cost model
//! quantifies:
//!
//! * **limb-parallel** ([`ShardStrategy::LimbParallel`]) — all cores
//!   cooperate on one fused kernel; per-op seconds are the fused
//!   kernel's critical path divided by the ops it covers;
//! * **batch-parallel** ([`ShardStrategy::BatchParallel`]) — each core
//!   runs whole ops; per-op seconds are
//!   [`cross_ckks::costs::amortized_op_pod`]'s figure, inflated by
//!   `cores / min(ops, cores)` when the group cannot fill the pod.
//!
//! The group takes whichever is cheaper per op (ties go to
//! limb-parallel, the latency-optimal choice). Everything here is
//! deterministic arithmetic over deterministic cost probes, so the
//! same graph always yields the same schedule
//! (`tests/sched_model.rs`).
//!
//! # Examples
//!
//! Sixteen same-step rotations fuse into one batch that beats naive
//! per-op dispatch on the same pod:
//!
//! ```
//! use cross_ckks::params::ParamSet;
//! use cross_sched::{HeOpKind, OpGraph, Scheduler};
//! use cross_tpu::TpuGeneration;
//!
//! let params = ParamSet::C.params();
//! let mut graph = OpGraph::new();
//! for _ in 0..16 {
//!     let x = graph.input(params.limbs);
//!     graph.add_op(HeOpKind::Rotate { steps: 1 }, params.limbs, 1, &[x]);
//! }
//! let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
//! let schedule = scheduler.schedule(&graph, &params);
//! assert_eq!(schedule.batches.len(), 1); // one fused group
//! assert!(schedule.wall_s() < scheduler.naive_wall_s(&graph, &params));
//! ```

use crate::cost::charge_kind;
use crate::ir::{Cost, HeOpKind, NodeId, OpGraph};
use cross_ckks::costs::ExecMode;
use cross_ckks::params::CkksParams;
use cross_core::shard::ShardStrategy;
use cross_tpu::{PodSim, TpuGeneration};

/// Memoized `(fused limb-parallel wall, batch-parallel per-op)` probe
/// results, keyed by `(kind, level, ops)`. An entry is a pure function
/// of the key and of the parameters, generation, cores and mode it was
/// charged under, so one cache may outlive a [`Scheduler::schedule`]
/// call only while those four stay fixed — as they do for a serving
/// loop's dispatcher.
pub(crate) type ProbeCache = std::collections::BTreeMap<(HeOpKind, usize, usize), (f64, f64)>;

/// Batch-forming scheduler for one pod configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    /// TPU generation of the target pod.
    pub gen: TpuGeneration,
    /// Tensor cores in the pod.
    pub cores: u32,
    /// NTT lowering mode fused kernels are costed with.
    pub mode: ExecMode,
    /// Merging cap: the scheduler stops *adding* ops to a group once
    /// it holds `max_fuse` (bounds the per-group working set and how
    /// long early requests wait for a batch to fill). A single
    /// pre-fused node larger than the cap is atomic and forms its own
    /// over-sized batch.
    pub max_fuse: usize,
}

impl Scheduler {
    /// A scheduler targeting `cores` tensor cores of `gen` with the
    /// default fusion cap of 16 ops per group.
    pub fn new(gen: TpuGeneration, cores: u32) -> Self {
        Self {
            gen,
            cores,
            mode: ExecMode::FusedBatch,
            max_fuse: 16,
        }
    }

    /// Same scheduler with an explicit NTT lowering mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Same scheduler with an explicit fusion cap.
    ///
    /// # Panics
    /// Panics if `max_fuse == 0`.
    pub fn with_max_fuse(mut self, max_fuse: usize) -> Self {
        assert!(max_fuse >= 1, "fusion cap must be ≥ 1");
        self.max_fuse = max_fuse;
        self
    }

    /// The same scheduler: this setting has no effect. A drain-formed
    /// graph gives every op fresh input nodes, so the optimizer
    /// pipeline ([`crate::opt::PassManager::standard`]) has nothing to
    /// rewrite there, and [`Scheduler::schedule`] never rewrites the
    /// graph it is handed. Run the pipeline on a recorded graph before
    /// scheduling it.
    pub fn with_optimize(self, _optimize: bool) -> Self {
        self
    }

    fn pod(&self) -> PodSim {
        PodSim::new(self.gen, self.cores)
    }

    /// Critical-path seconds of one fused kernel covering `ops`
    /// invocations of `kind` at `level`. Charges only the critical
    /// path — no amortized clone.
    fn fused_kernel_s(&self, params: &CkksParams, kind: HeOpKind, level: usize, ops: usize) -> f64 {
        let mut pod = self.pod();
        charge_kind(Some(&mut pod), None, params, kind, level, ops, self.mode).critical_s
    }

    /// Batch-parallel amortized seconds per op of `kind` at `level`,
    /// inflated for groups too small to fill the pod. Charges only the
    /// amortized pod — the critical path is not needed here.
    fn batch_parallel_per_op_s(
        &self,
        params: &CkksParams,
        kind: HeOpKind,
        level: usize,
        ops: usize,
    ) -> f64 {
        let mut pod = self.pod();
        let amortized =
            charge_kind(None, Some(&mut pod), params, kind, level, 1, self.mode).amortized_s;
        let occupied = ops.min(self.cores as usize).max(1);
        amortized * self.cores as f64 / occupied as f64
    }

    /// Forms the schedule for `graph`: batch groups in wave order, each
    /// annotated with its chosen strategy and modeled cost.
    pub fn schedule(&self, graph: &OpGraph, params: &CkksParams) -> Schedule {
        self.schedule_memo(graph, params, &mut ProbeCache::default())
    }

    /// [`Scheduler::schedule`] reading and filling `probe_cache`, which
    /// must only ever have seen this scheduler and `params`
    /// ([`ProbeCache`]).
    pub(crate) fn schedule_memo(
        &self,
        graph: &OpGraph,
        params: &CkksParams,
        probe_cache: &mut ProbeCache,
    ) -> Schedule {
        let waves = graph.waves();
        // Deterministic grouping: (wave, kind, level) → node ids in
        // construction order. BTreeMap keeps group order stable.
        let mut groups: std::collections::BTreeMap<(usize, HeOpKind, usize), Vec<NodeId>> =
            Default::default();
        for n in graph.nodes() {
            if n.kind == HeOpKind::Input {
                continue;
            }
            groups
                .entry((waves[n.id], n.kind, n.level))
                .or_default()
                .push(n.id);
        }

        // Probe results are pure and workload graphs repeat a handful
        // of (kind, level, ops) shapes across many batches — memoize.
        let mut batches = Vec::new();
        for ((wave, kind, level), nodes) in groups {
            // Chunk so each fused group covers at most max_fuse ops.
            let mut chunk: Vec<NodeId> = Vec::new();
            let mut chunk_ops = 0usize;
            let flush = |chunk: &mut Vec<NodeId>,
                         chunk_ops: &mut usize,
                         batches: &mut Vec<FusedBatch>,
                         cache: &mut ProbeCache| {
                if chunk.is_empty() {
                    return;
                }
                batches.push(self.form_batch(
                    params,
                    kind,
                    level,
                    wave,
                    std::mem::take(chunk),
                    *chunk_ops,
                    cache,
                ));
                *chunk_ops = 0;
            };
            for id in nodes {
                let ops = graph.node(id).batch;
                if chunk_ops + ops > self.max_fuse && !chunk.is_empty() {
                    flush(&mut chunk, &mut chunk_ops, &mut batches, probe_cache);
                }
                chunk.push(id);
                chunk_ops += ops;
            }
            flush(&mut chunk, &mut chunk_ops, &mut batches, probe_cache);
        }
        batches.sort_by_key(|b| (b.wave, b.nodes[0]));
        Schedule { batches }
    }

    #[allow(clippy::too_many_arguments)]
    fn form_batch(
        &self,
        params: &CkksParams,
        kind: HeOpKind,
        level: usize,
        wave: usize,
        nodes: Vec<NodeId>,
        ops: usize,
        cache: &mut ProbeCache,
    ) -> FusedBatch {
        let (limb_wall, batch_per_op) = if matches!(kind.row().cost, Cost::Free) {
            // Free metadata ops (`ModDrop`): no kernel to probe, nothing
            // to trade off — the 0.0 tie goes limb-parallel.
            (0.0, 0.0)
        } else {
            *cache.entry((kind, level, ops)).or_insert_with(|| {
                (
                    self.fused_kernel_s(params, kind, level, ops),
                    self.batch_parallel_per_op_s(params, kind, level, ops),
                )
            })
        };
        let limb_per_op = limb_wall / ops as f64;
        let (strategy, per_op_s, wall_s) = if limb_per_op <= batch_per_op {
            (ShardStrategy::LimbParallel, limb_per_op, limb_wall)
        } else {
            (
                ShardStrategy::BatchParallel,
                batch_per_op,
                batch_per_op * ops as f64,
            )
        };
        FusedBatch {
            kind,
            level,
            wave,
            nodes,
            ops,
            strategy,
            per_op_s,
            wall_s,
        }
    }

    /// The naive per-op baseline the scheduler competes against: every
    /// ciphertext operation dispatched as its own limb-parallel kernel
    /// (key and twiddles re-loaded per op, nothing fused). Probes are
    /// memoized per `(kind, level)` — the charge is pure, and workload
    /// graphs repeat a handful of pairs across hundreds of nodes. Free
    /// kinds (inputs, `ModDrop`) charge no kernel and are skipped.
    pub fn naive_wall_s(&self, graph: &OpGraph, params: &CkksParams) -> f64 {
        let mut cache: std::collections::BTreeMap<(HeOpKind, usize), f64> = Default::default();
        let mut total = 0.0;
        for n in graph.nodes() {
            if matches!(n.kind.row().cost, Cost::Free) {
                continue;
            }
            let per_op = *cache
                .entry((n.kind, n.level))
                .or_insert_with(|| self.fused_kernel_s(params, n.kind, n.level, 1));
            total += per_op * n.batch as f64;
        }
        total
    }
}

/// One fused group of compatible ops, with its chosen sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBatch {
    /// Shared operator (including key-selecting parameters).
    pub kind: HeOpKind,
    /// Shared execution level.
    pub level: usize,
    /// Dependency wave the group runs in.
    pub wave: usize,
    /// Member nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Total ciphertext operations covered (Σ member batch).
    pub ops: usize,
    /// Chosen sharding strategy.
    pub strategy: ShardStrategy,
    /// Modeled per-op seconds under the chosen strategy.
    pub per_op_s: f64,
    /// Modeled wall seconds for the whole group.
    pub wall_s: f64,
}

/// A full schedule: fused batches in execution order (wave-major).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// The groups, in execution order.
    pub batches: Vec<FusedBatch>,
}

impl Schedule {
    /// Modeled wall seconds of running every batch back to back.
    pub fn wall_s(&self) -> f64 {
        self.batches.iter().map(|b| b.wall_s).sum()
    }

    /// Ciphertext operations covered.
    pub fn op_count(&self) -> usize {
        self.batches.iter().map(|b| b.ops).sum()
    }

    /// Modeled amortized seconds per op across the whole schedule.
    pub fn per_op_s(&self) -> f64 {
        let ops = self.op_count();
        if ops == 0 {
            0.0
        } else {
            self.wall_s() / ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::params::ParamSet;

    fn rotate_queue_graph(n: usize, level: usize) -> OpGraph {
        let mut g = OpGraph::new();
        for _ in 0..n {
            let i = g.input(level);
            g.add_op(HeOpKind::Rotate { steps: 1 }, level, 1, &[i]);
        }
        g
    }

    #[test]
    fn merges_compatible_ops_only() {
        let params = ParamSet::B.params();
        let l = params.limbs;
        let mut g = OpGraph::new();
        for _ in 0..3 {
            let i = g.input(l);
            g.add_op(HeOpKind::Rotate { steps: 1 }, l, 1, &[i]);
        }
        let i = g.input(l);
        g.add_op(HeOpKind::Rotate { steps: 2 }, l, 1, &[i]); // other key
        let i = g.input(l - 1);
        g.add_op(HeOpKind::Rotate { steps: 1 }, l - 1, 1, &[i]); // other level
        let s = Scheduler::new(TpuGeneration::V6e, 4);
        let sched = s.schedule(&g, &params);
        assert_eq!(sched.batches.len(), 3);
        let sizes: Vec<usize> = sched.batches.iter().map(|b| b.ops).collect();
        assert!(sizes.contains(&3) && sizes.iter().filter(|&&s| s == 1).count() == 2);
        for b in &sched.batches {
            for &n in &b.nodes {
                assert_eq!(g.node(n).kind, b.kind);
                assert_eq!(g.node(n).level, b.level);
            }
        }
    }

    #[test]
    fn fusion_cap_respected() {
        let params = ParamSet::B.params();
        let g = rotate_queue_graph(10, params.limbs);
        let s = Scheduler::new(TpuGeneration::V6e, 4).with_max_fuse(4);
        let sched = s.schedule(&g, &params);
        assert!(sched.batches.iter().all(|b| b.ops <= 4));
        assert_eq!(sched.op_count(), 10);
    }

    #[test]
    fn schedule_beats_naive() {
        let params = ParamSet::C.params();
        let g = rotate_queue_graph(16, params.limbs);
        let s = Scheduler::new(TpuGeneration::V6e, 8);
        let sched = s.schedule(&g, &params);
        let naive = s.naive_wall_s(&g, &params);
        assert!(
            sched.wall_s() < naive,
            "scheduled {} vs naive {}",
            sched.wall_s(),
            naive
        );
    }

    #[test]
    fn singleton_groups_prefer_limb_parallel_for_latency() {
        let params = ParamSet::D.params();
        let mut g = OpGraph::new();
        let a = g.input(params.limbs);
        let b = g.input(params.limbs);
        g.add_op(HeOpKind::Mult, params.limbs, 1, &[a, b]);
        let s = Scheduler::new(TpuGeneration::V6e, 8);
        let sched = s.schedule(&g, &params);
        assert_eq!(sched.batches.len(), 1);
        assert_eq!(sched.batches[0].strategy, ShardStrategy::LimbParallel);
    }
}
