//! CKKS ciphertexts and the borrowed operand view every evaluator
//! operator is written over.

use cross_poly::rns_poly::RnsPoly;
use cross_poly::PolyBatch;

/// A level-`l` CKKS ciphertext `(c0, c1)` with tracked scale.
///
/// Both polynomials live in the evaluation (NTT) domain over the first
/// `level` limbs of the modulus chain; decryption computes
/// `m ≈ c0 + c1·s (mod Q_level)`. The components are batches of one —
/// the evaluator checks that on every use.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Constant component.
    pub c0: RnsPoly,
    /// Linear component.
    pub c1: RnsPoly,
    /// Remaining limbs (level).
    pub level: usize,
    /// Current encoding scale `Δ`.
    pub scale: f64,
}

impl Ciphertext {
    /// This ciphertext as a one-entry operand, borrowed: the `*_view`
    /// operators of [`crate::Evaluator`] run on it without copying a
    /// residue.
    ///
    /// # Panics
    /// Panics if a component is not a batch of one.
    pub fn view(&self) -> CtView<'_> {
        assert!(
            self.c0.batch() == 1 && self.c1.batch() == 1,
            "Ciphertext components must be batches of one (got {} and {})",
            self.c0.batch(),
            self.c1.batch()
        );
        CtView {
            c0: &self.c0,
            c1: &self.c1,
            level: self.level,
            scales: std::slice::from_ref(&self.scale),
        }
    }
}

/// What an operator reads of its operand: two component batches, the
/// shared level, one scale per entry. A [`Ciphertext`] is the
/// one-entry case and a [`crate::BatchedCiphertext`] the general one;
/// both lend this view without copying a residue, so each operator has
/// one body and the eager call is its batch-of-one case. A caller that
/// holds either kind of operand runs an operator on it through the
/// evaluator's `*_view` methods.
#[derive(Debug, Clone, Copy)]
pub struct CtView<'a> {
    pub(crate) c0: &'a PolyBatch,
    pub(crate) c1: &'a PolyBatch,
    pub(crate) level: usize,
    pub(crate) scales: &'a [f64],
}
