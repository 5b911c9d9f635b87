//! The HE op-graph IR: one shared representation of a homomorphic
//! workload that the recorder emits, the cost interpreter charges, the
//! scheduler batches, and the executor replays.
//!
//! A graph is a DAG of [`HeOp`] nodes over virtual ciphertext values:
//! node `i`'s result is the ciphertext produced by executing its
//! [`HeOpKind`] on the results of its `inputs`. Construction enforces
//! acyclicity structurally — an input edge may only point at an
//! already-added node — so every graph's node order *is* a topological
//! order and interpreters never need a sort.

use crate::keycache::KeyRef;
use cross_ckks::costs::{self, OpSpec};

/// Index of a node inside its [`OpGraph`].
pub type NodeId = usize;

/// The HE operator an IR node performs.
///
/// Parameters that change the operator's key material or its result
/// layout (`steps`, `to_level`) live *in* the kind, so two nodes with
/// equal kinds are batch-fusable: they run the same kernel with the
/// same switching key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeOpKind {
    /// A workload input (an already-encrypted ciphertext); costs
    /// nothing.
    Input,
    /// HE-Add of two ciphertexts.
    Add,
    /// HE-Sub of two ciphertexts (limb-wise subtraction; same cost and
    /// level behaviour as [`Add`](HeOpKind::Add)).
    Sub,
    /// Ciphertext × plaintext multiply (diagonal matrices, masks).
    PlainMult,
    /// Ciphertext × plaintext-*constant* multiply: every slot is
    /// multiplied by one scalar from the replay const table
    /// ([`crate::exec::ReplayKeys::with_mult_const`]). Unlike the
    /// cost-only [`PlainMult`](HeOpKind::PlainMult), the operand is
    /// fully captured by `cid`, so the op is replayable and CSE-able.
    /// The node preserves the level; the result scale is
    /// `ct.scale · pt_scale` (rescale separately, as the eager
    /// evaluator does).
    PlainMultConst {
        /// Const-table id selecting `(value, pt_scale)`.
        cid: u32,
    },
    /// Ciphertext + plaintext-constant add: the scalar for `cid` is
    /// encoded at the operand's *actual* scale at replay time, exactly
    /// like an eager `add_plain` of a freshly encoded constant. Level
    /// and scale are preserved.
    PlainAddConst {
        /// Const-table id selecting the value.
        cid: u32,
    },
    /// HE-Mult: tensor product + relinearization + rescale.
    Mult,
    /// HE-Rotate by `steps` slots (automorphism + key switch).
    Rotate {
        /// Slot rotation amount; part of the merge key because each
        /// distinct step uses its own switching key.
        steps: usize,
    },
    /// Rescale: divide by the last modulus, drop one limb.
    Rescale,
    /// Modulus drop straight to `to_level` (metadata truncation; free
    /// in the cost model).
    ModDrop {
        /// Target level.
        to_level: usize,
    },
    /// Standalone hybrid key switch.
    KeySwitch,
    /// Packed bootstrapping (cost-only; expands to the Tab. IX kernel
    /// bundles).
    Bootstrap,
    /// The shared digit decomposition a hoisted rotation fan-out pays
    /// once ([`cross_ckks::costs::HOIST_DECOMP`]). Replay passes its
    /// operand, dropped to the node level, through as its value; the
    /// sibling [`HoistedRotate`](HeOpKind::HoistedRotate)s share that
    /// value's decomposition as every Galois reader of one source does
    /// ([`crate::exec`]).
    HoistDecomp,
    /// One rotation riding a [`HoistDecomp`](HeOpKind::HoistDecomp):
    /// automorphism + key inner
    /// product + mod-down, the decomposition already paid
    /// ([`cross_ckks::costs::HOISTED_ROTATE`]). Replay runs it as a
    /// [`Rotate`](HeOpKind::Rotate): the Galois tail off the shared
    /// decomposition of its input when other Galois nodes read that
    /// input too, else a full rotate — the same bits either way, so
    /// hoisting is bit-exact by construction.
    HoistedRotate {
        /// Slot rotation amount; selects the switching key, exactly
        /// like [`Rotate`](HeOpKind::Rotate).
        steps: usize,
    },
}

/// What the cost model charges for a kind.
#[derive(Debug, Clone, Copy)]
pub enum Cost {
    /// Metadata only: no kernel.
    Free,
    /// One kernel described by an operator spec.
    Spec(&'static OpSpec),
    /// The Tab. IX kernel bundles of
    /// [`cross_ckks::bootstrap::op_bundles`].
    Bootstrap,
}

/// How a kind's result level follows from its execution level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelRule {
    /// The result sits this many limbs below the execution level.
    Consumes(usize),
    /// The result jumps to this level, which must lie in
    /// `[1, execution level]`.
    DropTo(usize),
}

impl LevelRule {
    /// The result level of an op executing at `level`, or `None` when
    /// `level` cannot host the op. The one rule
    /// [`OpGraph::add_op`] asserts, serving admission checks, and the
    /// cost model's [`OpSpec::counts`] shares through
    /// [`costs::result_level`].
    pub fn result_level(self, level: usize) -> Option<usize> {
        match self {
            LevelRule::Consumes(limbs) => costs::result_level(limbs, level),
            LevelRule::DropTo(to) => (1..=level).contains(&to).then_some(to),
        }
    }
}

/// An operator the functional executor can run, one node at a time
/// through the eager [`cross_ckks::Evaluator`]. [`HeOpKind`] is the
/// graph vocabulary and also names cost-only kinds (`PlainMult`
/// without its plaintext, standalone `KeySwitch`, `Bootstrap`); this
/// type cannot hold one, so code that matches it needs no run-time
/// "is this executable" check. [`KindRow::exec`] is the one conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOp {
    /// [`HeOpKind::Add`].
    Add,
    /// [`HeOpKind::Sub`].
    Sub,
    /// [`HeOpKind::Mult`].
    Mult,
    /// [`HeOpKind::PlainMultConst`].
    PlainMultConst {
        /// Const-table id.
        cid: u32,
    },
    /// [`HeOpKind::PlainAddConst`].
    PlainAddConst {
        /// Const-table id.
        cid: u32,
    },
    /// [`HeOpKind::Rotate`].
    Rotate {
        /// Slot rotation amount.
        steps: usize,
    },
    /// [`HeOpKind::Rescale`].
    Rescale,
    /// [`HeOpKind::ModDrop`].
    ModDrop {
        /// Target level.
        to_level: usize,
    },
    /// [`HeOpKind::HoistDecomp`].
    HoistDecomp,
    /// [`HeOpKind::HoistedRotate`].
    HoistedRotate {
        /// Slot rotation amount.
        steps: usize,
    },
}

/// The static facts of one [`HeOpKind`]: the single per-kind table the
/// IR, the cost interpreter, the scheduler, the key cache, the
/// executor and serving admission all read.
#[derive(Debug, Clone, Copy)]
pub struct KindRow {
    /// Display label (the kernel name cost reports carry).
    pub label: &'static str,
    /// How many ciphertext operands the op consumes.
    pub arity: usize,
    /// The switching key the op loads, if any.
    pub key: Option<KeyRef>,
    /// Result-level rule.
    pub level: LevelRule,
    /// What the cost model charges.
    pub cost: Cost,
    /// The executable form; `None` for `Input` (a value, not an
    /// operation) and the cost-only kinds.
    pub exec: Option<ExecOp>,
}

impl HeOpKind {
    /// This kind's row of static facts.
    pub fn row(self) -> KindRow {
        use {Cost::*, ExecOp as E, KeyRef::*};
        let row = |label, arity, key, cost, exec| KindRow {
            label,
            arity,
            key,
            level: match cost {
                Spec(spec) => LevelRule::Consumes(spec.limbs_consumed()),
                Free | Bootstrap => LevelRule::Consumes(0),
            },
            cost,
            exec,
        };
        let (add, pmult) = (Spec(&costs::HE_ADD), Spec(&costs::PLAIN_MULT));
        let (mult, rescale) = (Spec(&costs::HE_MULT), Spec(&costs::RESCALE));
        match self {
            Self::Input => row("Input", 0, None, Free, None),
            Self::Add => row("HE-Add", 2, None, add, Some(E::Add)),
            Self::Sub => row("HE-Sub", 2, None, add, Some(E::Sub)),
            Self::PlainMult => row("HE-PMult", 1, None, pmult, None),
            Self::PlainMultConst { cid } => {
                let exec = Some(E::PlainMultConst { cid });
                row("HE-PMultConst", 1, None, pmult, exec)
            }
            Self::PlainAddConst { cid } => {
                row("HE-PAddConst", 1, None, add, Some(E::PlainAddConst { cid }))
            }
            Self::Mult => row("HE-Mult", 2, Some(Relin), mult, Some(E::Mult)),
            Self::Rotate { steps } => {
                let (key, exec) = (Some(Rotation(steps)), Some(E::Rotate { steps }));
                row("Rotate", 1, key, Spec(&costs::ROTATE), exec)
            }
            Self::Rescale => row("Rescale", 1, None, rescale, Some(E::Rescale)),
            Self::ModDrop { to_level } => KindRow {
                level: LevelRule::DropTo(to_level),
                ..row("ModDrop", 1, None, Free, Some(E::ModDrop { to_level }))
            },
            Self::KeySwitch => row("KeySwitch", 1, Some(Relin), Spec(&costs::KEY_SWITCH), None),
            Self::Bootstrap => row("Bootstrap", 1, Some(Relin), Bootstrap, None),
            Self::HoistDecomp => {
                let cost = Spec(&costs::HOIST_DECOMP);
                row("HoistDecomp", 1, None, cost, Some(E::HoistDecomp))
            }
            Self::HoistedRotate { steps } => {
                let (key, exec) = (Some(Rotation(steps)), Some(E::HoistedRotate { steps }));
                row("HoistedRotate", 1, key, Spec(&costs::HOISTED_ROTATE), exec)
            }
        }
    }

    /// Display label (the kernel name cost reports carry).
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// How many ciphertext operands the op consumes.
    pub fn arity(self) -> usize {
        self.row().arity
    }
}

/// One node of the op graph: an HE operator with level and batch
/// metadata plus its dependency edges.
#[derive(Debug, Clone, PartialEq)]
pub struct HeOp {
    /// This node's id (its index in the graph).
    pub id: NodeId,
    /// The operator.
    pub kind: HeOpKind,
    /// Level the op *executes* at (operands aligned to this limb
    /// count); drives the kernel counts the cost model charges.
    pub level: usize,
    /// How many independent ciphertext operations this node fuses
    /// (≥ 1). A batch-`B` node charges one fused kernel over `B`
    /// operations; the scheduler produces such nodes by merging.
    pub batch: usize,
    /// Producer nodes of the operands (dependency edges).
    pub inputs: Vec<NodeId>,
}

impl HeOp {
    /// Level of the node's *result*: `Mult` and `Rescale` consume one
    /// limb, `ModDrop` jumps to its target, everything else preserves
    /// the execution level ([`KindRow::level`]).
    pub fn result_level(&self) -> usize {
        let rule = self.kind.row().level;
        rule.result_level(self.level)
            .expect("add_op checked the level")
    }
}

/// A dependency graph of HE operations, topologically ordered by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpGraph {
    nodes: Vec<HeOp>,
}

impl OpGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one-op graph: `kind.arity()` inputs at `level` feeding a
    /// single batch-1 node — the shape on which
    /// `cross_sched::cost_graph` is pinned bit-identical to
    /// `cross_ckks::costs::charge_op_pod`.
    pub fn single_op(kind: HeOpKind, level: usize) -> Self {
        let mut g = Self::new();
        let ins: Vec<NodeId> = (0..kind.arity()).map(|_| g.input(level)).collect();
        g.add_op(kind, level, 1, &ins);
        g
    }

    /// Adds a workload input at `level`.
    pub fn input(&mut self, level: usize) -> NodeId {
        self.push(HeOpKind::Input, level, 1, &[])
    }

    /// Adds an operation node.
    ///
    /// # Panics
    /// Panics if an input id is out of range (forward edges are
    /// impossible — that is the acyclicity guarantee), if the operand
    /// count does not match the kind's arity (scaled by `batch` for
    /// fused nodes), on `batch == 0`, or on a level that cannot host
    /// the op ([`LevelRule::result_level`] is `None`: level 0, no limb
    /// left for `Mult`/`Rescale` to drop, a `ModDrop` target outside
    /// `[1, level]`).
    pub fn add_op(
        &mut self,
        kind: HeOpKind,
        level: usize,
        batch: usize,
        inputs: &[NodeId],
    ) -> NodeId {
        let row = kind.row();
        assert!(batch >= 1, "batch must be ≥ 1");
        assert!(
            row.level.result_level(level).is_some(),
            "{} cannot run at level {level}",
            row.label
        );
        assert_eq!(
            inputs.len(),
            row.arity * batch,
            "{} × batch {batch} expects {} operand(s)",
            row.label,
            row.arity * batch
        );
        self.push(kind, level, batch, inputs)
    }

    fn push(&mut self, kind: HeOpKind, level: usize, batch: usize, inputs: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        for &i in inputs {
            assert!(i < id, "input edge {i} must point at an existing node");
        }
        self.nodes.push(HeOp {
            id,
            kind,
            level,
            batch,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// All nodes, in topological (construction) order.
    pub fn nodes(&self) -> &[HeOp] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &HeOp {
        &self.nodes[id]
    }

    /// Node count (including inputs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total ciphertext operations represented (Σ batch over non-input
    /// nodes).
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind != HeOpKind::Input)
            .map(|n| n.batch)
            .sum()
    }

    /// Dependency wave of every node: inputs are wave 0, an op's wave
    /// is `1 + max(wave of inputs)`. Ops in the same wave are mutually
    /// independent — the scheduler's batch-formation domain.
    pub fn waves(&self) -> Vec<usize> {
        let mut wave = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            if n.kind == HeOpKind::Input {
                continue;
            }
            wave[n.id] = 1 + n.inputs.iter().map(|&i| wave[i]).max().unwrap_or(0);
        }
        wave
    }

    /// Nodes no other node consumes (the workload's results).
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                consumed[i] = true;
            }
        }
        self.nodes
            .iter()
            .filter(|n| !consumed[n.id])
            .map(|n| n.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_diamond() {
        let mut g = OpGraph::new();
        let a = g.input(4);
        let b = g.input(4);
        let s = g.add_op(HeOpKind::Add, 4, 1, &[a, b]);
        let m = g.add_op(HeOpKind::Mult, 4, 1, &[s, s]);
        let r = g.add_op(HeOpKind::Rescale, 3, 1, &[m]);
        assert_eq!(g.len(), 5);
        assert_eq!(g.node(m).result_level(), 3);
        assert_eq!(g.waves(), vec![0, 0, 1, 2, 3]);
        assert_eq!(g.sinks(), vec![r]);
        assert_eq!(g.op_count(), 3);
    }

    #[test]
    fn batched_node_takes_scaled_operands() {
        let mut g = OpGraph::new();
        let ins: Vec<_> = (0..3).map(|_| g.input(4)).collect();
        let rot = g.add_op(HeOpKind::Rotate { steps: 2 }, 4, 3, &ins);
        assert_eq!(g.node(rot).batch, 3);
        assert_eq!(g.node(rot).result_level(), 4);
    }

    #[test]
    #[should_panic(expected = "existing node")]
    fn forward_edges_rejected() {
        let mut g = OpGraph::new();
        let a = g.input(4);
        let _ = g.add_op(HeOpKind::Add, 4, 1, &[a, 7]);
    }

    #[test]
    #[should_panic(expected = "operand")]
    fn arity_checked() {
        let mut g = OpGraph::new();
        let a = g.input(4);
        let _ = g.add_op(HeOpKind::Mult, 4, 1, &[a]);
    }

    #[test]
    #[should_panic(expected = "Rescale cannot run at level 1")]
    fn rescale_needs_level_two() {
        let mut g = OpGraph::new();
        let a = g.input(1);
        let _ = g.add_op(HeOpKind::Rescale, 1, 1, &[a]);
    }

    #[test]
    fn parameterised_kinds_are_distinct_per_parameter() {
        // Distinct steps / cids are distinct kinds — they select
        // different keys or constants and must never batch-merge. The
        // per-kind facts themselves are checked against behaviour by
        // `kind_rows_agree_with_behaviour` (tests/serve_model.rs).
        assert_ne!(HeOpKind::Rotate { steps: 1 }, HeOpKind::Rotate { steps: 2 });
        assert_ne!(
            HeOpKind::HoistedRotate { steps: 1 },
            HeOpKind::HoistedRotate { steps: 2 }
        );
        assert_ne!(
            HeOpKind::PlainMultConst { cid: 0 },
            HeOpKind::PlainMultConst { cid: 1 }
        );
    }

    #[test]
    fn level_rule_is_shared_with_the_cost_model() {
        for kind in [HeOpKind::Mult, HeOpKind::Rescale] {
            let rule = kind.row().level;
            assert_eq!(rule.result_level(2), Some(1), "{kind:?}");
            assert_eq!(rule.result_level(1), None, "{kind:?}");
        }
        let drop = HeOpKind::ModDrop { to_level: 3 }.row().level;
        assert_eq!(drop.result_level(4), Some(3));
        assert_eq!(drop.result_level(3), Some(3));
        assert_eq!(drop.result_level(2), None);
        assert_eq!(
            HeOpKind::ModDrop { to_level: 0 }
                .row()
                .level
                .result_level(4),
            None
        );
        assert_eq!(HeOpKind::Add.row().level.result_level(0), None);
    }
}
