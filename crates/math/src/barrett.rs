//! Barrett modular reduction (paper Alg. 4).
//!
//! CROSS uses Barrett as the *final* reduction at the end of a lazy chain
//! (App. G): Montgomery's output lives in `[0, 2q)`, so a last exact
//! reduction into `[0, q)` is done with Barrett. It is also one of the
//! three strategies ablated in Fig. 13.

#[cfg(test)]
use crate::modops;

/// Precomputed Barrett constants for a fixed modulus `q < 2^32`.
///
/// Implements paper Alg. 4: with `s = 2·⌈log2 q⌉` and `m = ⌊2^s / q⌋`,
/// a product `z = a·b < 2^(2·log2 q)` is reduced by
/// `t = (z·m) >> s; z -= t·q;` followed by at most one conditional
/// subtraction.
///
/// # Example
/// ```
/// use cross_math::BarrettReducer;
/// let q = 268_369_921u64;
/// let br = BarrettReducer::new(q);
/// assert_eq!(br.mul_mod(q - 1, q - 1), ((q as u128 - 1) * (q as u128 - 1) % q as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrettReducer {
    q: u64,
    /// `⌊2^s / q⌋`
    m: u128,
    /// `s = 2·⌈log2 q⌉`
    s: u32,
}

impl BarrettReducer {
    /// Builds the reducer for modulus `q`.
    ///
    /// # Panics
    /// Panics if `q < 2` or `q >= 2^32` (the word size CROSS targets).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be >= 2");
        assert!(q < (1 << 32), "CROSS targets moduli below 2^32");
        let logq = 64 - (q - 1).leading_zeros(); // ⌈log2 q⌉
        let s = 2 * logq;
        let m = (1u128 << s) / q as u128;
        Self { q, m, s }
    }

    /// Reduces a double-width product `z < q^2` into `[0, q)`.
    #[inline]
    pub(crate) fn reduce(&self, z: u128) -> u64 {
        debug_assert!(z < self.q as u128 * self.q as u128, "z must be < q^2");
        let t = ((z * self.m) >> self.s) as u64;
        let mut r = (z - t as u128 * self.q as u128) as u64;
        if r >= self.q {
            r -= self.q;
        }
        debug_assert!(r < self.q);
        r
    }

    /// Modular multiplication `(a*b) mod q` for reduced operands.
    #[inline]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce(a as u128 * b as u128)
    }

    /// Reduces an arbitrary 64-bit value into `[0, q)`.
    ///
    /// Values up to `2^64` exceed the `z < q^2` precondition for small
    /// moduli, so this splits via `u128` arithmetic and always succeeds.
    #[inline]
    pub fn reduce_u64(&self, z: u64) -> u64 {
        if z < self.q {
            z
        } else if (z as u128) < self.q as u128 * self.q as u128 {
            self.reduce(z as u128)
        } else {
            z % self.q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;

    #[test]
    fn matches_reference_on_grid() {
        let br = BarrettReducer::new(Q);
        let samples = [0u64, 1, 2, 12345, Q / 2, Q - 2, Q - 1];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(br.mul_mod(a, b), modops::mul_mod(a, b, Q), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn works_for_small_moduli() {
        for q in [2u64, 3, 17, 257, 65537] {
            let br = BarrettReducer::new(q);
            for a in 0..q.min(64) {
                for b in 0..q.min(64) {
                    assert_eq!(br.mul_mod(a, b), a * b % q);
                }
            }
        }
    }

    #[test]
    fn works_near_32bit_boundary() {
        let q = (1u64 << 32) - 5; // prime 4294967291
        let br = BarrettReducer::new(q);
        for (a, b) in [(q - 1, q - 1), (q - 1, 2), (123, q - 7)] {
            assert_eq!(br.mul_mod(a, b), modops::mul_mod(a, b, q));
        }
    }

    #[test]
    fn reduce_u64_handles_large_inputs() {
        let br = BarrettReducer::new(Q);
        for z in [0u64, Q, Q + 1, u64::MAX, Q * Q - 1, Q * Q] {
            assert_eq!(br.reduce_u64(z), z % Q, "z={z}");
        }
    }

    #[test]
    #[should_panic(expected = "below 2^32")]
    fn rejects_oversized_modulus() {
        let _ = BarrettReducer::new(1 << 33);
    }
}
