//! Optimized Montgomery reduction, 64 → 32 bits (paper Alg. 1).
//!
//! The paper finds Montgomery optimal on TPUv6e for both `VecModMul` and
//! `ModMatMul` (Fig. 13) because the reduction decomposes into 16-bit
//! primitive multiplies that fit the VPU. We implement *both* the
//! faithful 16-bit-primitive data path of Alg. 1 (what the TPU executes)
//! and a fast `u128` path, and test them against each other.

#[cfg(test)]
use crate::modops;

/// Montgomery context for a modulus `q < 2^32` with `R = 2^32`.
///
/// `reduce(z)` maps any `z < q·R` to `z·R^{-1} mod q`, *lazily* in
/// `[0, 2q)` exactly as Alg. 1 returns it. [`Montgomery::mul_strict`]
/// gives the canonical representative of a product.
///
/// # Example
/// ```
/// use cross_math::Montgomery;
/// let q = 268_369_921u64;
/// let mont = Montgomery::new(q);
/// let a = 123_456_789u64 % q;
/// let b = 987_654_321u64 % q;
/// // Multiply with one operand pre-lifted into the Montgomery domain:
/// let bm = mont.to_mont(b);
/// let prod = mont.mul(a, bm); // = a*b mod q, in [0, 2q)
/// assert_eq!(prod % q, (a as u128 * b as u128 % q as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery {
    q: u64,
    /// `q^{-1} mod 2^32` (NOT negated — Alg. 1 uses the positive inverse).
    q_inv: u64,
    /// `R^2 mod q` with `R = 2^32`, used by [`Montgomery::to_mont`].
    r2: u64,
}

/// `R = 2^32`, the Montgomery radix matching the TPU's 32-bit registers.
pub(crate) const MONT_R_BITS: u32 = 32;

impl Montgomery {
    /// Builds the context for an odd modulus `q < 2^32`.
    ///
    /// # Panics
    /// Panics if `q` is even (no inverse mod `2^32`) or `q >= 2^32`.
    pub fn new(q: u64) -> Self {
        assert!(q % 2 == 1, "Montgomery requires an odd modulus");
        assert!(q < (1 << 32), "CROSS targets moduli below 2^32");
        // Newton-Hensel iteration for q^{-1} mod 2^32.
        let mut inv: u64 = q; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
        }
        let q_inv = inv & 0xFFFF_FFFF;
        debug_assert_eq!(q.wrapping_mul(q_inv) & 0xFFFF_FFFF, 1);
        let r = (1u128 << MONT_R_BITS) % q as u128;
        let r2 = (r * r % q as u128) as u64;
        Self { q, q_inv, r2 }
    }

    /// Lifts a residue into the Montgomery domain: `a·R mod q`.
    #[inline]
    pub fn to_mont(&self, a: u64) -> u64 {
        let t = self.reduce(a as u128 * self.r2 as u128);
        if t >= self.q {
            t - self.q
        } else {
            t
        }
    }

    /// Lazy Montgomery reduction (Alg. 1): `z·R^{-1} mod q` in `[0, 2q)`.
    ///
    /// Fast `u128` path; bit-identical to [`Montgomery::reduce_alg1`].
    #[inline]
    pub fn reduce(&self, z: u128) -> u64 {
        debug_assert!(z < (self.q as u128) << MONT_R_BITS, "z must be < q*R");
        let z_lo = (z as u64) & 0xFFFF_FFFF;
        let z_hi = (z >> MONT_R_BITS) as u64;
        let t = z_lo.wrapping_mul(self.q_inv) & 0xFFFF_FFFF;
        let t_final = ((t as u128 * self.q as u128) >> MONT_R_BITS) as u64;
        let b = z_hi + self.q - t_final;
        debug_assert!(b < 2 * self.q);
        b
    }

    /// Faithful Alg. 1 data path using only 16-bit primitive multiplies,
    /// mirroring what the TPU VPU executes (lines 1-9 of the paper's
    /// pseudocode). Returns the same `[0, 2q)` value as [`Montgomery::reduce`].
    pub fn reduce_alg1(&self, z: u128) -> u64 {
        let q = self.q;
        // 1: split 64-bit input
        let z_lo = (z as u64) & 0xFFFF_FFFF;
        let z_hi = ((z >> 32) as u64) & 0xFFFF_FFFF;
        // 2: low 32-bit product t = z_lo * q^{-1} mod 2^32
        let t = z_lo.wrapping_mul(self.q_inv) & 0xFFFF_FFFF;
        // 3: split t for 16-bit mults
        let t_lo = t & 0xFFFF;
        let t_hi = t >> 16;
        let q_lo = q & 0xFFFF;
        let q_hi = q >> 16;
        // 4: four 16x16 -> 32-bit products
        let p_hi = t_hi * q_hi;
        let p_lo = t_lo * q_lo;
        let p_m_hi = t_hi * q_lo;
        let p_m_lo = t_lo * q_hi;
        // 5: mid_lo accumulates over 16-bit register lanes, so the middle
        // products contribute their low halves here and their high halves
        // via line 6 (the paper's formulation assumes 16-bit lane adds).
        let mid_lo = (p_m_hi & 0xFFFF) + (p_m_lo & 0xFFFF) + (p_lo >> 16);
        // 6-7: t_final = ⌊(t·q)/2^32⌋ exactly.
        let mid_hi = (p_m_hi >> 16) + (p_m_lo >> 16) + (mid_lo >> 16);
        let t_final = p_hi + mid_hi;
        // 8: result in [0, 2q)
        let b = z_hi + q - t_final;
        debug_assert!(b < 2 * q);
        b
    }

    /// Strict Montgomery reduction into `[0, q)`.
    #[inline]
    pub(crate) fn reduce_strict(&self, z: u128) -> u64 {
        let b = self.reduce(z);
        if b >= self.q {
            b - self.q
        } else {
            b
        }
    }

    /// Lazy product `a · b_mont · R^{-1} mod q` in `[0, 2q)`.
    ///
    /// `b_mont` must already be in the Montgomery domain (e.g. a twiddle
    /// factor precomputed offline), in which case the result equals
    /// `a·b mod q` lazily.
    #[inline]
    pub fn mul(&self, a: u64, b_mont: u64) -> u64 {
        self.reduce(a as u128 * b_mont as u128)
    }

    /// Strict product `a·b mod q` with `b_mont` in the Montgomery domain.
    #[inline]
    pub fn mul_strict(&self, a: u64, b_mont: u64) -> u64 {
        self.reduce_strict(a as u128 * b_mont as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;

    #[test]
    fn q_inv_is_inverse() {
        let m = Montgomery::new(Q);
        assert_eq!(Q.wrapping_mul(m.q_inv) & 0xFFFF_FFFF, 1);
    }

    #[test]
    fn reduce_matches_reference() {
        let m = Montgomery::new(Q);
        let r = ((1u128 << 32) % Q as u128) as u64;
        let r_inv = modops::inv_mod(r, Q).unwrap();
        for z in [0u128, 1, 12345, (Q as u128) * 7, (Q as u128) << 31] {
            let got = m.reduce_strict(z);
            let want = modops::mul_mod(modops::reduce_u128(z, Q), r_inv, Q);
            assert_eq!(got, want, "z={z}");
        }
    }

    #[test]
    fn alg1_matches_fast_path() {
        let m = Montgomery::new(Q);
        let samples: Vec<u128> = vec![
            0,
            1,
            0xFFFF_FFFF,
            0x1_0000_0000,
            (Q as u128 - 1) * (Q as u128 - 1),
            ((Q as u128) << 32) - 1,
        ];
        for z in samples {
            assert_eq!(m.reduce(z), m.reduce_alg1(z), "z={z}");
        }
    }

    #[test]
    fn mont_domain_roundtrip() {
        let m = Montgomery::new(Q);
        for a in [0u64, 1, 2, 12345, Q / 2, Q - 1] {
            assert_eq!(m.reduce_strict(m.to_mont(a) as u128), a);
        }
    }

    #[test]
    fn mul_with_mont_operand() {
        let m = Montgomery::new(Q);
        for (a, b) in [(3u64, 5u64), (Q - 1, Q - 1), (12345, 67890)] {
            let got = m.mul_strict(a, m.to_mont(b));
            assert_eq!(got, modops::mul_mod(a, b, Q));
        }
    }

    #[test]
    fn lazy_output_range() {
        let m = Montgomery::new(Q);
        for (a, b) in [(Q - 1, Q - 1), (Q - 1, 1), (1, 1)] {
            let lazy = m.mul(a, m.to_mont(b));
            assert!(lazy < 2 * Q);
            assert_eq!(lazy % Q, modops::mul_mod(a, b, Q));
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn rejects_even_modulus() {
        let _ = Montgomery::new(1 << 20);
    }
}
