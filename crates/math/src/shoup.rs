//! Shoup modular multiplication with a precomputed operand.
//!
//! Shoup's trick (NTL \[61\]) multiplies a runtime value `a` by a *known*
//! constant `w` (twiddle factor): with `w' = ⌊w·2^64 / q⌋` precomputed,
//! `a·w mod q` needs one high product, one low product and a conditional
//! subtraction. The paper's Fig. 13 ablation shows it losing to
//! Montgomery on TPU because it requires 64-bit products the VPU lacks;
//! we keep the same semantics here so the ablation is faithful.

#[cfg(test)]
use crate::modops;

/// A constant `w` prepared for Shoup multiplication modulo `q < 2^32`.
///
/// # Example
/// ```
/// use cross_math::ShoupMul;
/// let q = 268_369_921u64;
/// let w = 123_456_789 % q;
/// let sm = ShoupMul::new(w, q);
/// assert_eq!(sm.mul(42) % q, (42u128 * w as u128 % q as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    w: u64,
    /// `⌊w · 2^64 / q⌋`
    w_shoup: u64,
    q: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup companion `⌊w·2^64/q⌋` for constant `w < q`.
    ///
    /// # Panics
    /// Panics if `w >= q` or `q >= 2^32`.
    pub fn new(w: u64, q: u64) -> Self {
        assert!(
            (2..(1 << 32)).contains(&q),
            "CROSS targets moduli below 2^32"
        );
        assert!(w < q, "the prepared constant must be reduced");
        let w_shoup = (((w as u128) << 64) / q as u128) as u64;
        Self { w, w_shoup, q }
    }

    /// Lazy Shoup product `a·w mod q` in `[0, 2q)`.
    ///
    /// Requires `a < 2^32` (guaranteed for reduced residues of CROSS
    /// moduli). The 64-bit high product here is exactly the operation
    /// that makes Shoup slow on the TPU VPU.
    #[inline]
    pub fn mul(&self, a: u64) -> u64 {
        debug_assert!(a < (1 << 32));
        let hi = ((a as u128 * self.w_shoup as u128) >> 64) as u64;
        let r = a.wrapping_mul(self.w).wrapping_sub(hi.wrapping_mul(self.q));
        debug_assert!(r < 2 * self.q);
        r
    }

    /// Strict Shoup product `a·w mod q` in `[0, q)`.
    #[inline]
    pub fn mul_strict(&self, a: u64) -> u64 {
        let r = self.mul(a);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;

    #[test]
    fn matches_reference() {
        for w in [0u64, 1, 2, 12345, Q / 2, Q - 1] {
            let sm = ShoupMul::new(w, Q);
            for a in [0u64, 1, 7, 1 << 20, Q - 1, (1 << 32) - 1] {
                // For a beyond q the product still reduces like (a mod q)·w.
                let want = modops::mul_mod(a % Q, w, Q);
                assert_eq!(sm.mul_strict(a), want, "w={w} a={a}");
            }
        }
    }

    #[test]
    fn lazy_range() {
        let sm = ShoupMul::new(Q - 1, Q);
        for a in [0u64, 1, Q - 1, (1 << 32) - 1] {
            let lazy = sm.mul(a);
            assert!(lazy < 2 * Q, "a={a} lazy={lazy}");
        }
    }

    #[test]
    #[should_panic(expected = "must be reduced")]
    fn rejects_unreduced_constant() {
        let _ = ShoupMul::new(Q, Q);
    }
}
