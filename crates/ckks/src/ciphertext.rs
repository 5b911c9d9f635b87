//! CKKS ciphertexts, the borrowed operand view every evaluator
//! operator is written over, and the rule for when two scales agree.

use cross_poly::rns_poly::RnsPoly;
use cross_poly::PolyBatch;

/// The relative scale drift two addends may carry: sub-percent drift
/// from unequal rescale moduli is the approximation CKKS tolerates by
/// design, while a larger mismatch silently corrupts the message.
pub const SCALE_TOLERANCE: f64 = 1e-2;

/// Whether scales `a` and `b` agree within [`SCALE_TOLERANCE`] — the
/// one rule behind the evaluator's Add, Sub and plaintext-add checks
/// and the serving loop's admission of them.
pub fn scales_agree(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() < SCALE_TOLERANCE
}

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

/// What an operator reads of its operand: two component batches, the
/// shared level, one scale per entry. A [`Ciphertext`] is the
/// one-entry case and a [`crate::BatchedCiphertext`] the general one;
/// both lend this view without copying a residue (`CtView::from`), so
/// each operator has one body and the eager call is its batch-of-one
/// case. Every `*_batch` operator of [`crate::Evaluator`] takes a view
/// or either kind of operand.
#[derive(Debug, Clone, Copy)]
pub struct CtView<'a> {
    pub(crate) c0: &'a PolyBatch,
    pub(crate) c1: &'a PolyBatch,
    pub(crate) level: usize,
    pub(crate) scales: &'a [f64],
}

/// A ciphertext as a one-entry operand.
///
/// # Panics
/// Panics if a component is not a batch of one.
impl<'a> From<&'a Ciphertext> for CtView<'a> {
    fn from(ct: &'a Ciphertext) -> Self {
        assert!(
            ct.c0.batch() == 1 && ct.c1.batch() == 1,
            "Ciphertext components must be batches of one (got {} and {})",
            ct.c0.batch(),
            ct.c1.batch()
        );
        CtView {
            c0: &ct.c0,
            c1: &ct.c1,
            level: ct.level,
            scales: std::slice::from_ref(&ct.scale),
        }
    }
}
