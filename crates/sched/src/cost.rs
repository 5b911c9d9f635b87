//! Graph cost interpreter: one walk over an [`OpGraph`] replaces the
//! per-workload hand-written charge loops.
//!
//! Every node lowers to the [`OpBundle`]s its kind's row names
//! ([`crate::ir::KindRow::cost`]: nothing, one
//! [`cross_ckks::costs::OpSpec`] bundle, or the
//! [`cross_ckks::bootstrap::op_bundles`] list), and the bundles are
//! charged through the one walk `charge_kind` — the same walk the
//! scheduler's and the optimizer's probes use. On the equivalent
//! single-op graph the result is **bit-identical** to
//! [`cross_ckks::costs::charge_op_pod`] (pinned by
//! `tests/sched_model.rs`); a bootstrap graph is the only bootstrapping
//! estimator, and on a 1-core zero-link pod it equals the sum of its
//! bundles on a lone `TpuSim` (`tests/pod_model.rs`).

use crate::ir::{Cost, HeOpKind, NodeId, OpGraph};
use cross_ckks::bootstrap::{self, BootstrapCounts};
use cross_ckks::costs::{self, BundlesReport, ExecMode, OpBundle};
use cross_ckks::params::CkksParams;
use cross_tpu::{Category, PodKernelReport, PodSim};

/// The kernel bundles `batch` fused ops of `kind` at `level` charge.
/// Free kinds charge none; a batch-`B` node charges one fused kernel
/// with counts scaled by `B` and its switching key loaded **once** —
/// which is exactly the fusion win batch formation buys.
pub fn node_bundles(
    params: &CkksParams,
    kind: HeOpKind,
    level: usize,
    batch: usize,
) -> Vec<OpBundle> {
    let row = kind.row();
    match row.cost {
        Cost::Free => Vec::new(),
        Cost::Spec(spec) => vec![spec.bundle(row.label, params, level, batch)],
        Cost::Bootstrap => {
            let mut bundles = bootstrap::op_bundles(params, &BootstrapCounts::packed(params));
            for bundle in &mut bundles {
                bundle.times *= batch;
            }
            bundles
        }
    }
}

/// The one `(kind, level, batch)` bundle walk: charges the kernels of
/// `batch` fused `kind` ops at `level` limb-parallel onto `critical`
/// and batch-parallel onto `amortized`, skipping whichever pod is
/// `None` ([`costs::charge_bundles_pod`]). [`cost_graph`] walks every
/// node through it; the scheduler's and the hoisting pass's probes are
/// the same call on fresh pods, so a probe's figure *is* what the
/// interpreter charges for that node.
pub(crate) fn charge_kind(
    critical: Option<&mut PodSim>,
    amortized: Option<&mut PodSim>,
    params: &CkksParams,
    kind: HeOpKind,
    level: usize,
    batch: usize,
    mode: ExecMode,
) -> BundlesReport {
    let bundles = node_bundles(params, kind, level, batch);
    costs::charge_bundles_pod(critical, amortized, params, &bundles, mode)
}

/// Cost of one interpreted node.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// The node.
    pub node: NodeId,
    /// Limb-parallel critical-path seconds.
    pub critical_s: f64,
    /// Batch-parallel amortized seconds.
    pub amortized_s: f64,
    /// One pod report per charged bundle (single-op nodes have exactly
    /// one; free nodes none; `Bootstrap` one per kernel class).
    pub reports: Vec<PodKernelReport>,
}

/// Whole-graph cost estimate.
#[derive(Debug, Clone)]
pub struct GraphCostReport {
    /// Σ critical-path seconds over all nodes (worst case: no overlap
    /// between nodes, the paper's §V-A methodology).
    pub critical_s: f64,
    /// Σ batch-parallel amortized seconds over all nodes.
    pub amortized_s: f64,
    /// Σ critical-path communication seconds.
    pub comm_s: f64,
    /// Normalized busy-time breakdown across the whole graph.
    pub breakdown: Vec<(Category, f64)>,
    /// Per-node costs, in topological order (free nodes included, with
    /// zero cost).
    pub per_node: Vec<NodeCost>,
}

impl GraphCostReport {
    /// Critical-path latency in milliseconds.
    pub fn critical_ms(&self) -> f64 {
        self.critical_s * 1e3
    }

    /// Amortized latency in milliseconds.
    pub fn amortized_ms(&self) -> f64 {
        self.amortized_s * 1e3
    }
}

/// Interprets `graph` on `pod`, charging every node's kernels in
/// topological order: the limb-parallel critical path accumulates on
/// `pod` and the batch-parallel amortized figure on a clone (see
/// [`costs::charge_bundles_pod`] for why they must not share cores).
///
/// `pod` is reset first, so estimates are history-independent.
pub fn cost_graph(
    pod: &mut PodSim,
    params: &CkksParams,
    graph: &OpGraph,
    mode: ExecMode,
) -> GraphCostReport {
    pod.reset();
    let mut amortized_pod = pod.clone();
    let mut out = GraphCostReport {
        critical_s: 0.0,
        amortized_s: 0.0,
        comm_s: 0.0,
        breakdown: Vec::new(),
        per_node: Vec::with_capacity(graph.len()),
    };
    let mut acc: std::collections::BTreeMap<Category, f64> = Default::default();
    for node in graph.nodes() {
        let (critical, amortized) = (Some(&mut *pod), Some(&mut amortized_pod));
        let br = charge_kind(
            critical, amortized, params, node.kind, node.level, node.batch, mode,
        );
        out.critical_s += br.critical_s;
        out.amortized_s += br.amortized_s;
        out.comm_s += br.comm_s;
        for (cat, s) in br.acc {
            *acc.entry(cat).or_insert(0.0) += s;
        }
        out.per_node.push(NodeCost {
            node: node.id,
            critical_s: br.critical_s,
            amortized_s: br.amortized_s,
            reports: br.reports,
        });
    }
    out.breakdown = costs::normalize_breakdown(acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::params::ParamSet;
    use cross_tpu::TpuGeneration;

    #[test]
    fn free_nodes_cost_nothing() {
        let mut g = OpGraph::new();
        let a = g.input(4);
        let _ = g.add_op(HeOpKind::ModDrop { to_level: 2 }, 4, 1, &[a]);
        let params = ParamSet::B.params();
        let mut pod = PodSim::new(TpuGeneration::V6e, 4);
        let rep = cost_graph(&mut pod, &params, &g, ExecMode::Unfused);
        assert_eq!(rep.critical_s, 0.0);
        assert_eq!(rep.amortized_s, 0.0);
        assert!(rep.per_node.iter().all(|n| n.reports.is_empty()));
    }

    #[test]
    fn fused_batch_node_cheaper_than_separate_nodes() {
        // One batch-8 rotate node vs eight batch-1 nodes: the fused
        // kernel loads the switching key and NTT twiddles once.
        let params = ParamSet::C.params();
        let l = params.limbs;
        let mut fused = OpGraph::new();
        let ins: Vec<_> = (0..8).map(|_| fused.input(l)).collect();
        fused.add_op(HeOpKind::Rotate { steps: 1 }, l, 8, &ins);
        let mut naive = OpGraph::new();
        for _ in 0..8 {
            let i = naive.input(l);
            naive.add_op(HeOpKind::Rotate { steps: 1 }, l, 1, &[i]);
        }
        let mut p1 = PodSim::new(TpuGeneration::V6e, 8);
        let mut p2 = PodSim::new(TpuGeneration::V6e, 8);
        let f = cost_graph(&mut p1, &params, &fused, ExecMode::Unfused);
        let n = cost_graph(&mut p2, &params, &naive, ExecMode::Unfused);
        assert!(
            f.critical_s < n.critical_s,
            "fused {} vs naive {}",
            f.critical_s,
            n.critical_s
        );
    }

    #[test]
    fn graph_breakdown_is_normalized() {
        let params = ParamSet::B.params();
        let mut g = OpGraph::new();
        let a = g.input(params.limbs);
        let b = g.input(params.limbs);
        g.add_op(HeOpKind::Mult, params.limbs, 1, &[a, b]);
        let mut pod = PodSim::new(TpuGeneration::V6e, 4);
        let rep = cost_graph(&mut pod, &params, &g, ExecMode::Unfused);
        let sum: f64 = rep.breakdown.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(rep.comm_s > 0.0, "keyed op on 4 cores must communicate");
    }
}
