//! Optimizer passes over the [`OpGraph`] IR: semantics-preserving
//! rewrites that shrink a workload's modeled cost before the scheduler
//! batches it.
//!
//! Each pass implements [`Pass`] and produces a [`Rewrite`] — the new
//! graph plus an old-id → new-id `remap` — so callers can follow any
//! original node (a serving ticket, a test's sink) into the rewritten
//! graph. Four passes are provided:
//!
//! * [`Waterline`] — level placement: sinks modulus drops toward
//!   producers so `Add` and `ModDrop` nodes execute at the lowest
//!   level any consumer actually reads. `Mult`, `Rescale` and the
//!   rotation kinds change their result *value* with level (different
//!   rescale divisor, different key-switch arithmetic) and act as
//!   barriers. `ModDrop`s that become identities are eliminated.
//! * [`RotationDedup`] — merges `Rotate` (and `HoistedRotate`) nodes
//!   with the same operand, step and level: the same key switch
//!   computed twice.
//! * [`Cse`] — general common-subexpression elimination over all
//!   replayable deterministic kinds, keyed on
//!   `(kind, level, operands)`. Cost-only kinds (`PlainMult`,
//!   `KeySwitch`, `Bootstrap`) consume hidden plaintext/key operands
//!   the IR does not record and are never merged; operand order is
//!   part of the key (`Add` is not commutative at the bit level — the
//!   result scale is the left operand's).
//! * [`HoistRotations`] — rewrites a fan-out of `k ≥ 2` rotations of
//!   one ciphertext into one shared [`HeOpKind::HoistDecomp`] plus
//!   `k` [`HeOpKind::HoistedRotate`]s (the paper's hoisting: pay the
//!   digit decomposition once). Kernel splitting re-loads NTT
//!   twiddles, so the rewrite is guarded by exact cost probes and
//!   applied only when both the critical-path and the amortized
//!   modeled cost do not increase.
//!
//! [`PassManager::standard`] runs Waterline → RotationDedup → Cse →
//! HoistRotations. The waterline preserves only *sink* values (it may
//! lower an interior `Add` whose extra limbs nobody reads), so it must
//! run first; every later pass is fully value-preserving, which keeps
//! the composed remap honest for all surviving nodes. Re-running the
//! pipeline on its own output converges to a fixpoint within a few
//! rounds rather than in exactly one: a CSE merge can remove the last
//! high-level consumer of an interior `Add`, which the *next* round's
//! waterline is then free to lower. Each round still preserves its own
//! input's sink values and never increases modeled cost
//! (`tests/opt_model.rs` pins the convergence).
//!
//! Every pass is bit-exact on sink values through
//! [`crate::exec::replay`] and never increases
//! [`crate::cost::cost_graph`] totals — `tests/opt_model.rs` pins both
//! over hundreds of random graphs, per pass and for the full pipeline.
//!
//! # Examples
//!
//! A fan-out of rotations recorded twice by accident dedups, then
//! shares one hoisted decomposition:
//!
//! ```
//! use cross_ckks::costs::ExecMode;
//! use cross_ckks::params::ParamSet;
//! use cross_sched::{HeOpKind, OpGraph, PassManager};
//! use cross_tpu::TpuGeneration;
//!
//! let params = ParamSet::C.params();
//! let l = params.limbs;
//! let mut g = OpGraph::new();
//! let x = g.input(l);
//! for steps in [1, 1, 2, 2, 4, 4, 8, 8] {
//!     g.add_op(HeOpKind::Rotate { steps }, l, 1, &[x]);
//! }
//! let pm = PassManager::standard(TpuGeneration::V6e, 8, ExecMode::FusedBatch);
//! let rw = pm.run(&g, &params);
//! // Eight rotations collapse to four distinct ones (dedup), which
//! // then ride one shared decomposition (hoisting).
//! assert!(rw.graph.op_count() < g.op_count());
//! assert_eq!(rw.remap.len(), g.len());
//! ```

use crate::cost::charge_kind;
use crate::ir::{HeOpKind, NodeId, OpGraph};
use cross_ckks::costs::ExecMode;
use cross_ckks::params::CkksParams;
use cross_tpu::{PodSim, TpuGeneration};
use std::collections::{BTreeMap, BTreeSet};

/// The result of one pass (or a whole pipeline): the rewritten graph
/// plus the mapping from original node ids to their representatives in
/// it. Merged nodes map to their surviving duplicate; eliminated
/// identity `ModDrop`s map to their operand.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewrite {
    /// The rewritten graph.
    pub graph: OpGraph,
    /// `remap[old_id]` is the node in [`Rewrite::graph`] that carries
    /// the original node's value (bit-exact for sink values; exact for
    /// every node under the value-preserving passes).
    pub remap: Vec<NodeId>,
}

impl Rewrite {
    /// The do-nothing rewrite of `graph`.
    pub(crate) fn identity(graph: &OpGraph) -> Self {
        Self {
            graph: graph.clone(),
            remap: (0..graph.len()).collect(),
        }
    }

    /// Composes `self` with a rewrite of `self.graph`: the result maps
    /// original ids through both remaps into `next.graph`.
    pub(crate) fn then(self, next: Rewrite) -> Rewrite {
        Rewrite {
            remap: self.remap.iter().map(|&m| next.remap[m]).collect(),
            graph: next.graph,
        }
    }
}

/// A semantics-preserving graph rewrite.
pub trait Pass {
    /// Pass name for logs and reports.
    fn name(&self) -> &'static str;

    /// Rewrites `graph`. The returned graph must replay bit-identical
    /// sink values and must not increase [`crate::cost::cost_graph`]
    /// totals on any pod.
    fn run(&self, graph: &OpGraph, params: &CkksParams) -> Rewrite;
}

/// Rebuilds `graph` merging batch-1 nodes with equal
/// `(kind, level, remapped operands)` when `mergeable(kind)`. `Input`
/// nodes are never merged (distinct inputs are distinct ciphertexts
/// even at the same level).
fn dedup(graph: &OpGraph, mergeable: impl Fn(HeOpKind) -> bool) -> Rewrite {
    let mut out = OpGraph::new();
    let mut remap = vec![usize::MAX; graph.len()];
    let mut seen: BTreeMap<(HeOpKind, usize, Vec<NodeId>), NodeId> = BTreeMap::new();
    for node in graph.nodes() {
        if node.kind == HeOpKind::Input {
            remap[node.id] = out.input(node.level);
            continue;
        }
        let ins: Vec<NodeId> = node.inputs.iter().map(|&i| remap[i]).collect();
        if node.batch == 1 && mergeable(node.kind) {
            let key = (node.kind, node.level, ins);
            if let Some(&existing) = seen.get(&key) {
                remap[node.id] = existing;
                continue;
            }
            let id = out.add_op(node.kind, node.level, 1, &key.2);
            remap[node.id] = id;
            seen.insert(key, id);
        } else {
            remap[node.id] = out.add_op(node.kind, node.level, node.batch, &ins);
        }
    }
    Rewrite { graph: out, remap }
}

/// Common-subexpression elimination: two batch-1 nodes computing the
/// same replayable deterministic operation on the same operands at the
/// same level produce the same ciphertext, so the second becomes a
/// reference to the first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, graph: &OpGraph, _params: &CkksParams) -> Rewrite {
        // Executable ⇒ the IR records every operand the op reads, so
        // equal keys really are the same computation. Cost-only kinds
        // fail that premise and must survive untouched.
        dedup(graph, |k| k.row().exec.is_some())
    }
}

/// Rotation-only dedup: the targeted subset of [`Cse`] for the
/// dominant duplicate in rotation-heavy workloads (baby-step/giant-step
/// ladders re-recording the same step). Merging only key-switch ops
/// keeps the pass trivially auditable.
#[derive(Debug, Clone, Copy, Default)]
pub struct RotationDedup;

impl Pass for RotationDedup {
    fn name(&self) -> &'static str {
        "rotation-dedup"
    }

    fn run(&self, graph: &OpGraph, _params: &CkksParams) -> Rewrite {
        dedup(graph, |k| {
            matches!(k, HeOpKind::Rotate { .. } | HeOpKind::HoistedRotate { .. })
        })
    }
}

/// Level placement ("waterline"): a reverse sweep computes, per node,
/// the highest level any consumer actually reads it at; `Add` nodes
/// and `ModDrop` targets then sink to that waterline. Limb truncation
/// commutes with limb-wise addition, so dropping *before* an add
/// instead of after is bit-exact — but the add's own extra limbs
/// disappear, which is why only sink values (kept at their original
/// fields) are preserved. The forward rebuild re-derives every
/// `ModDrop`'s execution level from its rebuilt operand and eliminates
/// the ones that became identities.
#[derive(Debug, Clone, Copy, Default)]
pub struct Waterline;

impl Pass for Waterline {
    fn name(&self) -> &'static str {
        "waterline"
    }

    fn run(&self, graph: &OpGraph, _params: &CkksParams) -> Rewrite {
        let n = graph.len();
        let mut is_sink = vec![true; n];
        for node in graph.nodes() {
            for &i in &node.inputs {
                is_sink[i] = false;
            }
        }
        // Reverse sweep. Node order is topological, so every consumer
        // is processed (and its lowered read level fixed) before the
        // node it consumes.
        let mut demand = vec![0usize; n];
        let mut new_level: Vec<usize> = graph.nodes().iter().map(|op| op.level).collect();
        let mut new_to = vec![0usize; n];
        for node in graph.nodes().iter().rev() {
            let read_level = match node.kind {
                HeOpKind::Input => continue,
                HeOpKind::Add | HeOpKind::Sub if node.batch == 1 && !is_sink[node.id] => {
                    // Every consumer reads ≥ 1 limb, so demand ≥ 1.
                    new_level[node.id] = node.level.min(demand[node.id].max(1));
                    new_level[node.id]
                }
                HeOpKind::ModDrop { to_level } if node.batch == 1 => {
                    new_to[node.id] = if is_sink[node.id] {
                        to_level
                    } else {
                        to_level.min(demand[node.id].max(1))
                    };
                    new_to[node.id]
                }
                // Barriers (Mult/Rescale/rotations/cost-only, and any
                // pre-fused node): level is part of the value or of the
                // charged kernel; keep it, demand it of the operands.
                _ => node.level,
            };
            for &i in &node.inputs {
                demand[i] = demand[i].max(read_level);
            }
        }

        let mut out = OpGraph::new();
        let mut remap = vec![usize::MAX; n];
        for node in graph.nodes() {
            remap[node.id] = match node.kind {
                HeOpKind::Input => out.input(node.level),
                HeOpKind::ModDrop { .. } if node.batch == 1 => {
                    let r = remap[node.inputs[0]];
                    // The execution level is metadata (the value only
                    // depends on the target), so pin it to the rebuilt
                    // operand's result level: always valid, and it
                    // exposes identities.
                    let operand_level = out.node(r).result_level();
                    let to = new_to[node.id];
                    if to == operand_level {
                        r
                    } else {
                        out.add_op(HeOpKind::ModDrop { to_level: to }, operand_level, 1, &[r])
                    }
                }
                _ => {
                    let ins: Vec<NodeId> = node.inputs.iter().map(|&i| remap[i]).collect();
                    out.add_op(node.kind, new_level[node.id], node.batch, &ins)
                }
            };
        }
        Rewrite { graph: out, remap }
    }
}

/// Rotation hoisting: `k ≥ 2` batch-1 `Rotate`s of the same operand at
/// the same level share their digit decomposition — one
/// [`HeOpKind::HoistDecomp`] feeding `k`
/// [`HeOpKind::HoistedRotate`]s. The counts split is exact
/// ([`cross_ckks::costs::ROTATE`]'s phases are
/// [`cross_ckks::costs::HOIST_DECOMP`]'s followed by
/// [`cross_ckks::costs::HOISTED_ROTATE`]'s, so hoisting removes the
/// `k − 1` re-decompositions and nothing else), but splitting one
/// kernel into `k + 1`
/// re-pays fixed overheads (twiddle DMA per NTT-bearing kernel), so
/// each group is accepted only when fresh-pod probes show
/// `decomp + k·hoisted ≤ k·rotate` on **both** the critical-path and
/// the amortized metric.
#[derive(Debug, Clone, Copy)]
pub struct HoistRotations {
    /// TPU generation probes are costed on.
    pub gen: TpuGeneration,
    /// Tensor cores in the probed pod.
    pub cores: u32,
    /// NTT lowering mode probes are costed with.
    pub mode: ExecMode,
}

impl HoistRotations {
    /// A hoisting pass probing `cores` tensor cores of `gen` with the
    /// default [`ExecMode::FusedBatch`] lowering.
    pub fn new(gen: TpuGeneration, cores: u32) -> Self {
        Self {
            gen,
            cores,
            mode: ExecMode::FusedBatch,
        }
    }

    /// Fresh-pod `(critical_s, amortized_s)` of one batch-1 `kind`
    /// kernel at `level` — exactly what [`crate::cost::cost_graph`]
    /// charges for that node (per-node charges are
    /// history-independent, pinned by `tests/sched_model.rs`), so the
    /// guard's delta is the true delta.
    fn probe(&self, params: &CkksParams, kind: HeOpKind, level: usize) -> (f64, f64) {
        let mut pod = PodSim::new(self.gen, self.cores);
        let mut amortized = pod.clone();
        let (critical, amortized) = (Some(&mut pod), Some(&mut amortized));
        let br = charge_kind(critical, amortized, params, kind, level, 1, self.mode);
        (br.critical_s, br.amortized_s)
    }
}

impl Pass for HoistRotations {
    fn name(&self) -> &'static str {
        "hoist-rotations"
    }

    fn run(&self, graph: &OpGraph, params: &CkksParams) -> Rewrite {
        // Fan-out groups: batch-1 rotations keyed by (operand, level).
        let mut groups: BTreeMap<(NodeId, usize), Vec<NodeId>> = BTreeMap::new();
        for node in graph.nodes() {
            if matches!(node.kind, HeOpKind::Rotate { .. }) && node.batch == 1 {
                groups
                    .entry((node.inputs[0], node.level))
                    .or_default()
                    .push(node.id);
            }
        }
        // Counts depend on the level only, so one probe triple covers
        // every group at that level.
        let mut probes: BTreeMap<usize, [(f64, f64); 3]> = BTreeMap::new();
        let mut members: BTreeSet<NodeId> = BTreeSet::new();
        for ((_, level), nodes) in &groups {
            let k = nodes.len() as f64;
            if nodes.len() < 2 {
                continue;
            }
            let [rot, dec, hoist] = *probes.entry(*level).or_insert_with(|| {
                [
                    self.probe(params, HeOpKind::Rotate { steps: 1 }, *level),
                    self.probe(params, HeOpKind::HoistDecomp, *level),
                    self.probe(params, HeOpKind::HoistedRotate { steps: 1 }, *level),
                ]
            });
            if dec.0 + k * hoist.0 <= k * rot.0 && dec.1 + k * hoist.1 <= k * rot.1 {
                members.extend(nodes.iter().copied());
            }
        }

        let mut out = OpGraph::new();
        let mut remap = vec![usize::MAX; graph.len()];
        // Shared decomp per accepted group, created at its first
        // member's position (the operand is already rebuilt there, so
        // topological order is preserved).
        let mut decomps: BTreeMap<(NodeId, usize), NodeId> = BTreeMap::new();
        for node in graph.nodes() {
            if node.kind == HeOpKind::Input {
                remap[node.id] = out.input(node.level);
                continue;
            }
            if members.contains(&node.id) {
                let key = (node.inputs[0], node.level);
                let d = match decomps.get(&key) {
                    Some(&d) => d,
                    None => {
                        let d = out.add_op(
                            HeOpKind::HoistDecomp,
                            node.level,
                            1,
                            &[remap[node.inputs[0]]],
                        );
                        decomps.insert(key, d);
                        d
                    }
                };
                let HeOpKind::Rotate { steps } = node.kind else {
                    unreachable!("group members are rotations");
                };
                remap[node.id] = out.add_op(HeOpKind::HoistedRotate { steps }, node.level, 1, &[d]);
                continue;
            }
            let ins: Vec<NodeId> = node.inputs.iter().map(|&i| remap[i]).collect();
            remap[node.id] = out.add_op(node.kind, node.level, node.batch, &ins);
        }
        Rewrite { graph: out, remap }
    }
}

/// An ordered pipeline of [`Pass`]es with remap composition.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline (its [`run`](PassManager::run) is the
    /// identity rewrite).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a pass.
    pub(crate) fn with_pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// The standard pipeline: [`Waterline`] → [`RotationDedup`] →
    /// [`Cse`] → [`HoistRotations`] (probing `cores` tensor cores of
    /// `gen` under `mode`). Waterline runs first because it is the one
    /// pass that preserves only sink values; everything after it is
    /// value-preserving.
    pub fn standard(gen: TpuGeneration, cores: u32, mode: ExecMode) -> Self {
        Self::new()
            .with_pass(Box::new(Waterline))
            .with_pass(Box::new(RotationDedup))
            .with_pass(Box::new(Cse))
            .with_pass(Box::new(HoistRotations { gen, cores, mode }))
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, composing remaps so the result maps
    /// `graph`'s original ids into the final graph.
    pub fn run(&self, graph: &OpGraph, params: &CkksParams) -> Rewrite {
        let mut rw = Rewrite::identity(graph);
        for pass in &self.passes {
            let next = pass.run(&rw.graph, params);
            rw = rw.then(next);
        }
        rw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::params::ParamSet;

    fn params() -> CkksParams {
        ParamSet::B.params()
    }

    #[test]
    fn cse_merges_duplicate_mults_and_follows_remap() {
        let p = params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let a = g.input(l);
        let b = g.input(l);
        let m1 = g.add_op(HeOpKind::Mult, l, 1, &[a, b]);
        let m2 = g.add_op(HeOpKind::Mult, l, 1, &[a, b]);
        let s = g.add_op(HeOpKind::Add, l - 1, 1, &[m1, m2]);
        let rw = Cse.run(&g, &p);
        assert_eq!(rw.remap[m1], rw.remap[m2], "duplicates must merge");
        assert_eq!(rw.graph.op_count(), 2); // one Mult + the Add
        let add = rw.graph.node(rw.remap[s]);
        assert_eq!(
            add.inputs[0], add.inputs[1],
            "add now reads the survivor twice"
        );
    }

    #[test]
    fn cse_respects_operand_order_and_cost_only_kinds() {
        let p = params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let a = g.input(l);
        let b = g.input(l);
        // Same operands, swapped order: result scales differ, so these
        // must NOT merge.
        let s1 = g.add_op(HeOpKind::Add, l, 1, &[a, b]);
        let s2 = g.add_op(HeOpKind::Add, l, 1, &[b, a]);
        // Cost-only: the plaintext operand is hidden from the IR.
        let p1 = g.add_op(HeOpKind::PlainMult, l, 1, &[a]);
        let p2 = g.add_op(HeOpKind::PlainMult, l, 1, &[a]);
        let rw = Cse.run(&g, &p);
        assert_ne!(rw.remap[s1], rw.remap[s2]);
        assert_ne!(rw.remap[p1], rw.remap[p2]);
    }

    #[test]
    fn rotation_dedup_merges_rotations_only() {
        let p = params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let x = g.input(l);
        let r1 = g.add_op(HeOpKind::Rotate { steps: 3 }, l, 1, &[x]);
        let r2 = g.add_op(HeOpKind::Rotate { steps: 3 }, l, 1, &[x]);
        let r3 = g.add_op(HeOpKind::Rotate { steps: 5 }, l, 1, &[x]);
        let a1 = g.add_op(HeOpKind::Add, l, 1, &[r1, r3]);
        let a2 = g.add_op(HeOpKind::Add, l, 1, &[r1, r3]);
        let rw = RotationDedup.run(&g, &p);
        assert_eq!(rw.remap[r1], rw.remap[r2], "same step must merge");
        assert_ne!(rw.remap[r1], rw.remap[r3], "distinct steps must not");
        assert_ne!(rw.remap[a1], rw.remap[a2], "adds are out of scope");
    }

    #[test]
    fn waterline_lowers_adds_and_eliminates_identity_moddrops() {
        let p = params();
        let mut g = OpGraph::new();
        let a = g.input(4);
        let b = g.input(4);
        let s = g.add_op(HeOpKind::Add, 4, 1, &[a, b]);
        let d = g.add_op(HeOpKind::ModDrop { to_level: 2 }, 4, 1, &[s]);
        let rw = Waterline.run(&g, &p);
        // The add sinks to the drop's target, turning the drop into an
        // eliminated identity.
        assert_eq!(rw.graph.node(rw.remap[s]).level, 2);
        assert_eq!(rw.remap[d], rw.remap[s]);
        assert_eq!(rw.graph.op_count(), 1);
    }

    #[test]
    fn waterline_keeps_barriers_and_sink_adds() {
        let p = params();
        let mut g = OpGraph::new();
        let a = g.input(4);
        let b = g.input(4);
        let m = g.add_op(HeOpKind::Mult, 4, 1, &[a, b]);
        let _d = g.add_op(HeOpKind::ModDrop { to_level: 1 }, 3, 1, &[m]);
        let s = g.add_op(HeOpKind::Add, 4, 1, &[a, b]); // sink add
        let rw = Waterline.run(&g, &p);
        // Mult level is part of its value; the sink add's value is the
        // workload's result. Both keep their level.
        assert_eq!(rw.graph.node(rw.remap[m]).level, 4);
        assert_eq!(rw.graph.node(rw.remap[s]).level, 4);
    }

    #[test]
    fn hoisting_rewrites_fanouts_when_the_probes_approve() {
        // ParamSet::C at full level is the helr-like regime where
        // hoisting pays off.
        let p = ParamSet::C.params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let x = g.input(l);
        let rots: Vec<NodeId> = (0..8)
            .map(|i| g.add_op(HeOpKind::Rotate { steps: 1 << i }, l, 1, &[x]))
            .collect();
        let pass = HoistRotations::new(cross_tpu::TpuGeneration::V6e, 8);
        let rw = pass.run(&g, &p);
        let decomps = rw
            .graph
            .nodes()
            .iter()
            .filter(|n| n.kind == HeOpKind::HoistDecomp)
            .count();
        assert_eq!(decomps, 1, "one shared decomposition");
        for (i, &r) in rots.iter().enumerate() {
            assert_eq!(
                rw.graph.node(rw.remap[r]).kind,
                HeOpKind::HoistedRotate { steps: 1 << i }
            );
        }
        // The guard's promise: the rewritten graph costs no more.
        let mut pod = PodSim::new(cross_tpu::TpuGeneration::V6e, 8);
        let before = crate::cost::cost_graph(&mut pod, &p, &g, ExecMode::FusedBatch);
        let after = crate::cost::cost_graph(&mut pod, &p, &rw.graph, ExecMode::FusedBatch);
        assert!(after.critical_s <= before.critical_s);
        assert!(after.amortized_s <= before.amortized_s);
    }

    #[test]
    fn hoisting_skips_singletons() {
        let p = ParamSet::C.params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let x = g.input(l);
        let r = g.add_op(HeOpKind::Rotate { steps: 1 }, l, 1, &[x]);
        let pass = HoistRotations::new(cross_tpu::TpuGeneration::V6e, 8);
        let rw = pass.run(&g, &p);
        assert_eq!(
            rw.graph.node(rw.remap[r]).kind,
            HeOpKind::Rotate { steps: 1 }
        );
        assert_eq!(rw.graph.len(), g.len());
    }

    #[test]
    fn standard_pipeline_output_is_a_fixpoint_here() {
        let p = ParamSet::C.params();
        let l = p.limbs;
        let mut g = OpGraph::new();
        let x = g.input(l);
        for steps in [1usize, 1, 2, 2, 4, 8] {
            g.add_op(HeOpKind::Rotate { steps }, l, 1, &[x]);
        }
        let y = g.input(l);
        let s = g.add_op(HeOpKind::Add, l, 1, &[x, y]);
        g.add_op(HeOpKind::ModDrop { to_level: 2 }, l, 1, &[s]);
        let pm = PassManager::standard(cross_tpu::TpuGeneration::V6e, 8, ExecMode::FusedBatch);
        let once = pm.run(&g, &p);
        let twice = pm.run(&once.graph, &p);
        assert_eq!(once.graph, twice.graph, "pipeline must reach a fixpoint");
        assert_eq!(twice.remap, (0..once.graph.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_pipeline_and_empty_graph_are_identities() {
        let p = params();
        let g = OpGraph::new();
        let pm = PassManager::new();
        assert!(pm.pass_names().is_empty());
        let rw = pm.run(&g, &p);
        assert!(rw.graph.is_empty());
        let pm = PassManager::standard(cross_tpu::TpuGeneration::V6e, 4, ExecMode::FusedBatch);
        assert_eq!(
            pm.pass_names(),
            vec!["waterline", "rotation-dedup", "cse", "hoist-rotations"]
        );
        let rw = pm.run(&g, &p);
        assert!(rw.graph.is_empty() && rw.remap.is_empty());
    }
}
