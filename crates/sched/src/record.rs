//! Recording front end: build an [`OpGraph`] by writing the same
//! program you would run against [`cross_ckks::Evaluator`], against
//! virtual ciphertext handles instead.
//!
//! The [`Recorder`] mirrors the evaluator's method surface
//! (`add`/`mult`/`rotate`/`rescale`/`mod_drop`/…) but executes
//! nothing: each call appends an IR node and returns a [`Vct`] whose
//! level the recorder tracks exactly as the eager evaluator would
//! (`mult` aligns operands and consumes a limb, `rescale` consumes a
//! limb, `mod_drop` truncates). Replaying the finished graph through
//! [`crate::exec::replay`] is bit-exact with the eager calls
//! (`tests/sched_model.rs`).

use crate::ir::{HeOpKind, NodeId, OpGraph};

/// A virtual ciphertext: the value node that produces it plus its
/// tracked level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vct {
    /// Producing node.
    pub node: NodeId,
    /// Ciphertext level after the producing op.
    pub level: usize,
}

/// Records evaluator calls into an [`OpGraph`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    graph: OpGraph,
}

impl Recorder {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a workload input at `level` (a fresh encryption sits at
    /// the parameter set's top level).
    pub fn input(&mut self, level: usize) -> Vct {
        let node = self.graph.input(level);
        Vct { node, level }
    }

    fn unary(&mut self, kind: HeOpKind, a: Vct, level: usize, result: usize) -> Vct {
        let node = self.graph.add_op(kind, level, 1, &[a.node]);
        Vct {
            node,
            level: result,
        }
    }

    /// HE-Add (operands align to the lower level, like
    /// [`cross_ckks::Evaluator::add`]).
    pub fn add(&mut self, a: Vct, b: Vct) -> Vct {
        let level = a.level.min(b.level);
        let node = self
            .graph
            .add_op(HeOpKind::Add, level, 1, &[a.node, b.node]);
        Vct { node, level }
    }

    /// HE-Mult: align, tensor + relinearize + rescale — result is one
    /// level down.
    pub fn mult(&mut self, a: Vct, b: Vct) -> Vct {
        let level = a.level.min(b.level);
        let node = self
            .graph
            .add_op(HeOpKind::Mult, level, 1, &[a.node, b.node]);
        Vct {
            node,
            level: level - 1,
        }
    }

    /// HE-Sub (operands align to the lower level, like
    /// [`cross_ckks::Evaluator::sub`]).
    pub(crate) fn sub(&mut self, a: Vct, b: Vct) -> Vct {
        let level = a.level.min(b.level);
        let node = self
            .graph
            .add_op(HeOpKind::Sub, level, 1, &[a.node, b.node]);
        Vct { node, level }
    }

    /// Ciphertext × plaintext multiply (cost-only in replay; the
    /// plaintext operand is not part of the IR).
    pub fn plain_mult(&mut self, a: Vct) -> Vct {
        self.unary(HeOpKind::PlainMult, a, a.level, a.level)
    }

    /// Ciphertext × plaintext-constant multiply: replayable, the
    /// scalar lives in the const table under `cid`
    /// ([`crate::exec::ReplayKeys::with_mult_const`]). Level is
    /// preserved; rescale separately like the eager evaluator.
    pub(crate) fn plain_mult_const(&mut self, a: Vct, cid: u32) -> Vct {
        self.unary(HeOpKind::PlainMultConst { cid }, a, a.level, a.level)
    }

    /// Ciphertext + plaintext-constant add: replayable, the scalar
    /// lives in the const table under `cid` and is encoded at the
    /// operand's actual scale at replay time.
    pub(crate) fn plain_add_const(&mut self, a: Vct, cid: u32) -> Vct {
        self.unary(HeOpKind::PlainAddConst { cid }, a, a.level, a.level)
    }

    /// HE-Rotate by `steps` slots.
    pub fn rotate(&mut self, a: Vct, steps: usize) -> Vct {
        self.unary(HeOpKind::Rotate { steps }, a, a.level, a.level)
    }

    /// Rescale — result is one level down.
    pub fn rescale(&mut self, a: Vct) -> Vct {
        self.unary(HeOpKind::Rescale, a, a.level, a.level - 1)
    }

    /// Modulus drop straight to `to_level`.
    pub fn mod_drop(&mut self, a: Vct, to_level: usize) -> Vct {
        self.unary(HeOpKind::ModDrop { to_level }, a, a.level, to_level)
    }

    /// The recorded graph.
    pub fn finish(self) -> OpGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_track_the_eager_evaluator() {
        let mut r = Recorder::new();
        let x = r.input(4);
        let y = r.input(4);
        let p = r.mult(x, y); // 4 → 3
        assert_eq!(p.level, 3);
        let s = r.add(p, x); // aligns at 3
        assert_eq!(s.level, 3);
        let d = r.rescale(s); // 3 → 2
        assert_eq!(d.level, 2);
        let m = r.mod_drop(d, 1);
        assert_eq!(m.level, 1);
        let g = r.finish();
        assert_eq!(g.len(), 6);
        // The add node executes at the aligned level 3.
        assert_eq!(g.node(s.node).level, 3);
        assert_eq!(g.sinks(), vec![m.node]);
    }
}
