//! CKKS ciphertexts — the one operand every evaluator operator body is
//! written over — and the rule for when two scales agree.

use cross_poly::rns_poly::RnsPoly;

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

impl Ciphertext {
    /// Checks the one shape rule the type does not enforce.
    ///
    /// # Panics
    /// Panics if a component is not a batch of one.
    pub(crate) fn assert_single(&self) {
        assert!(
            self.c0.batch() == 1 && self.c1.batch() == 1,
            "Ciphertext components must be batches of one (got {} and {})",
            self.c0.batch(),
            self.c1.batch()
        );
    }
}
