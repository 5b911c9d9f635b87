//! Recording backend for the encrypted comparison chains
//! (`cross_ckks::ext::sgn`): the same generic chain builders write
//! their program into an [`OpGraph`] instead of executing it, so sign
//! / compare / min / max / relu DAGs flow through the scheduler, the
//! optimizer passes and the replay executor like any other
//! workload.
//!
//! Bit-exactness with the eager [`cross_ckks::ext::sgn::SignEvaluator`]
//! holds by construction: the chains are *generic* over
//! [`SgnBackend`], so the recorded graph is structurally identical to
//! the eager call sequence, and [`RecordingSgnBackend`] tracks scales
//! with the evaluator's own f64 formulas in the same operation order —
//! every scale-correcting plaintext constant therefore comes out
//! bitwise identical to the one the eager path encodes
//! (`tests/sgn_sched.rs` pins this).

use crate::exec::ReplayKeys;
use crate::ir::OpGraph;
use crate::record::{Recorder, Vct};
use cross_ckks::ext::sgn::SgnBackend;

/// A virtual ciphertext plus its tracked scale (levels live in the
/// wrapped [`Vct`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedVct {
    /// The recorded handle.
    pub vct: Vct,
    /// Scale tracked with the eager evaluator's arithmetic.
    pub scale: f64,
}

/// Records comparison chains into an [`OpGraph`], collecting the
/// plaintext const tables the replay executor needs.
#[derive(Debug, Clone)]
pub struct RecordingSgnBackend {
    rec: Recorder,
    q: Vec<u64>,
    mult_consts: Vec<(f64, f64)>,
    add_consts: Vec<f64>,
}

impl RecordingSgnBackend {
    /// A recorder over the modulus chain `q_moduli` (scale tracking
    /// needs the dropped primes).
    pub fn new(q_moduli: &[u64]) -> Self {
        Self {
            rec: Recorder::new(),
            q: q_moduli.to_vec(),
            mult_consts: Vec::new(),
            add_consts: Vec::new(),
        }
    }

    /// Declares a workload input at `(level, scale)` — mirror the real
    /// ciphertext that will feed this slot at replay time exactly, or
    /// the tracked plaintext scales diverge from the eager run.
    pub fn input(&mut self, level: usize, scale: f64) -> TrackedVct {
        TrackedVct {
            vct: self.rec.input(level),
            scale,
        }
    }

    /// Finishes the recording.
    pub fn finish(self) -> SgnRecording {
        SgnRecording {
            graph: self.rec.finish(),
            mult_consts: self.mult_consts,
            add_consts: self.add_consts,
        }
    }
}

impl SgnBackend for RecordingSgnBackend {
    type Ct = TrackedVct;

    fn level(&self, ct: &TrackedVct) -> usize {
        ct.vct.level
    }

    fn scale(&self, ct: &TrackedVct) -> f64 {
        ct.scale
    }

    fn modulus(&self, idx: usize) -> u64 {
        self.q[idx]
    }

    fn add(&mut self, a: &TrackedVct, b: &TrackedVct) -> TrackedVct {
        TrackedVct {
            vct: self.rec.add(a.vct, b.vct),
            scale: a.scale,
        }
    }

    fn sub(&mut self, a: &TrackedVct, b: &TrackedVct) -> TrackedVct {
        TrackedVct {
            vct: self.rec.sub(a.vct, b.vct),
            scale: a.scale,
        }
    }

    fn mult(&mut self, a: &TrackedVct, b: &TrackedVct) -> TrackedVct {
        let vct = self.rec.mult(a.vct, b.vct);
        // Tensor then rescale, in the evaluator's own op order:
        // `(sa·sb) / q_dropped`.
        let tensor = a.scale * b.scale;
        let level = a.vct.level.min(b.vct.level);
        TrackedVct {
            vct,
            scale: tensor / self.q[level - 1] as f64,
        }
    }

    fn plain_mult(&mut self, a: &TrackedVct, value: f64, pt_scale: f64) -> TrackedVct {
        let cid = self.mult_consts.len() as u32;
        self.mult_consts.push((value, pt_scale));
        TrackedVct {
            vct: self.rec.plain_mult_const(a.vct, cid),
            scale: a.scale * pt_scale,
        }
    }

    fn plain_add(&mut self, a: &TrackedVct, value: f64) -> TrackedVct {
        let cid = self.add_consts.len() as u32;
        self.add_consts.push(value);
        TrackedVct {
            vct: self.rec.plain_add_const(a.vct, cid),
            scale: a.scale,
        }
    }

    fn rescale(&mut self, a: &TrackedVct) -> TrackedVct {
        let level = a.vct.level;
        TrackedVct {
            vct: self.rec.rescale(a.vct),
            scale: a.scale / self.q[level - 1] as f64,
        }
    }

    fn mod_drop(&mut self, a: &TrackedVct, level: usize) -> TrackedVct {
        if level == a.vct.level {
            // The eager evaluator's mod_drop is the identity here; do
            // not spend an IR node on it.
            return *a;
        }
        TrackedVct {
            vct: self.rec.mod_drop(a.vct, level),
            scale: a.scale,
        }
    }
}

/// A finished recording: the graph plus the plaintext const tables its
/// `PlainMultConst` / `PlainAddConst` nodes reference.
#[derive(Debug, Clone)]
pub struct SgnRecording {
    /// The recorded DAG.
    pub graph: OpGraph,
    /// `cid → (value, pt_scale)` for `PlainMultConst`.
    pub mult_consts: Vec<(f64, f64)>,
    /// `cid → value` for `PlainAddConst`.
    pub add_consts: Vec<f64>,
}

impl SgnRecording {
    /// Registers both const tables on a [`ReplayKeys`] builder.
    pub fn register_consts<'a>(&self, mut keys: ReplayKeys<'a>) -> ReplayKeys<'a> {
        for (cid, &(value, pt_scale)) in self.mult_consts.iter().enumerate() {
            keys = keys.with_mult_const(cid as u32, value, pt_scale);
        }
        for (cid, &value) in self.add_consts.iter().enumerate() {
            keys = keys.with_add_const(cid as u32, value);
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_ckks::ext::sgn::{sign_chain, SgnTier};

    #[test]
    fn recorded_sign_chain_has_the_expected_shape() {
        let q: Vec<u64> = vec![(1 << 28) - 57; 20];
        let mut bk = RecordingSgnBackend::new(&q);
        let tier = SgnTier::Low;
        let x = bk.input(tier.min_sign_level(), (1u64 << 28) as f64);
        let y = sign_chain(&mut bk, &x, tier);
        assert_eq!(y.vct.level, tier.min_sign_level() - tier.depth());
        let rec = bk.finish();
        // 3 steps × (3 mults for powers + 1 giant mult) = 12 Mult
        // nodes; 4 plain-mult consts per step.
        assert_eq!(rec.mult_consts.len(), 12);
        assert!(rec.add_consts.is_empty());
        let mults = rec
            .graph
            .nodes()
            .iter()
            .filter(|n| n.kind == crate::ir::HeOpKind::Mult)
            .count();
        assert_eq!(mults, 12);
        assert_eq!(rec.graph.sinks().len(), 1);
    }
}
