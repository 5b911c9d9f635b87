//! Precomputed twiddle tables for the negacyclic NTT over one modulus.

use crate::small_ntt::SmallNttTables;
use cross_math::bitrev::bit_reverse;
use cross_math::modops::{inv_mod, mul_mod, pow_mod};
use cross_math::primes::negacyclic_psi;
use std::sync::OnceLock;

/// All twiddle material for degree `N` over prime `q ≡ 1 (mod 2N)`.
///
/// `ψ` is a primitive `2N`-th root of unity (so `ψ^N ≡ -1`), the base of
/// the negacyclic transform; `ω = ψ²` is the primitive `N`-th root.
/// Tables are stored in both natural and bit-reversed order, the latter
/// feeding the in-place Cooley–Tukey butterflies (paper Alg. 3).
#[derive(Debug, Clone)]
pub struct NttTables {
    n: usize,
    q: u64,
    n_inv: u64,
    /// `ψ^i` for `i ∈ [0, N)`, natural order.
    psi_pow: Vec<u64>,
    /// `ψ^{-i}` for `i ∈ [0, N)`, natural order.
    psi_inv_pow: Vec<u64>,
    /// `ψ^{bitrev(i)}` — butterfly twiddles for the forward CT NTT.
    psi_rev: Vec<u64>,
    /// `ψ^{-bitrev(i)}` — butterfly twiddles for the inverse GS NTT.
    psi_inv_rev: Vec<u64>,
    /// Lazily built Shoup companions of the bit-reversed twiddles —
    /// what the host engine reads — shared by every holder of these
    /// tables.
    shoup: OnceLock<SmallNttTables>,
}

impl NttTables {
    /// Builds tables for degree `n` (a power of two) and prime `q`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or `q ≢ 1 (mod 2n)`.
    pub fn new(n: usize, q: u64) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert!(
            (q - 1).is_multiple_of(2 * n as u64),
            "q must be ≡ 1 mod 2N for the negacyclic NTT"
        );
        let psi = negacyclic_psi(n as u64, q);
        Self::with_psi(n, q, psi)
    }

    /// Builds tables with an explicitly chosen `ψ` (must be a primitive
    /// `2N`-th root of unity mod `q`). Useful for cross-checking against
    /// implementations that fix a specific root.
    pub(crate) fn with_psi(n: usize, q: u64, psi: u64) -> Self {
        assert_eq!(pow_mod(psi, n as u64, q), q - 1, "psi^N must equal -1");
        let psi_inv = inv_mod(psi, q).expect("psi invertible mod prime q");
        let n_inv = inv_mod(n as u64, q).expect("N invertible mod prime q");
        let mut psi_pow = Vec::with_capacity(n);
        let mut psi_inv_pow = Vec::with_capacity(n);
        let (mut p, mut pi) = (1u64, 1u64);
        for _ in 0..n {
            psi_pow.push(p);
            psi_inv_pow.push(pi);
            p = mul_mod(p, psi, q);
            pi = mul_mod(pi, psi_inv, q);
        }
        let bits = n.trailing_zeros();
        let psi_rev = (0..n).map(|i| psi_pow[bit_reverse(i, bits)]).collect();
        let psi_inv_rev = (0..n).map(|i| psi_inv_pow[bit_reverse(i, bits)]).collect();
        Self {
            n,
            q,
            n_inv,
            psi_pow,
            psi_inv_pow,
            psi_rev,
            psi_inv_rev,
            shoup: OnceLock::new(),
        }
    }

    /// The host engine's Shoup twiddle tables for this `(N, q)` pair,
    /// built on first use and cached — so every context sharing these
    /// tables (CKKS levels, key-switching extensions) shares one set.
    pub(crate) fn shoup_tables(&self) -> &SmallNttTables {
        self.shoup.get_or_init(|| SmallNttTables::new(self))
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Prime modulus `q`.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// `N^{-1} mod q`.
    #[inline]
    pub(crate) fn n_inv(&self) -> u64 {
        self.n_inv
    }

    /// `ψ^e mod q` for any exponent (table lookup + square for range).
    pub fn psi_power(&self, e: u64) -> u64 {
        let e = e % (2 * self.n as u64);
        if e < self.n as u64 {
            self.psi_pow[e as usize]
        } else {
            // ψ^(N + r) = -ψ^r
            let r = (e - self.n as u64) as usize;
            cross_math::modops::neg_mod(self.psi_pow[r], self.q)
        }
    }

    /// `ψ^{-e} mod q`.
    pub fn psi_inv_power(&self, e: u64) -> u64 {
        let e = e % (2 * self.n as u64);
        if e < self.n as u64 {
            self.psi_inv_pow[e as usize]
        } else {
            let r = (e - self.n as u64) as usize;
            cross_math::modops::neg_mod(self.psi_inv_pow[r], self.q)
        }
    }

    /// Bit-reversed forward twiddles (CT butterflies).
    pub(crate) fn psi_rev(&self) -> &[u64] {
        &self.psi_rev
    }

    /// Bit-reversed inverse twiddles (GS butterflies).
    pub(crate) fn psi_inv_rev(&self) -> &[u64] {
        &self.psi_inv_rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;

    fn tables(logn: u32) -> NttTables {
        let n = 1usize << logn;
        NttTables::new(n, primes::ntt_prime(28, n as u64, 0).unwrap())
    }

    #[test]
    fn psi_orders() {
        let t = tables(6);
        // ψ has order 2N; ω = ψ² has order N.
        assert_eq!(pow_mod(t.psi_power(1), t.n() as u64, t.q()), t.q() - 1);
        assert_eq!(pow_mod(t.psi_power(2), t.n() as u64, t.q()), 1);
        assert_ne!(pow_mod(t.psi_power(2), t.n() as u64 / 2, t.q()), 1);
    }

    #[test]
    fn psi_power_wraps_negacyclically() {
        let t = tables(5);
        let n = t.n() as u64;
        // ψ^(N+3) == -ψ^3
        let want = cross_math::modops::neg_mod(t.psi_power(3), t.q());
        assert_eq!(t.psi_power(n + 3), want);
        // ψ^(2N) == 1
        assert_eq!(t.psi_power(2 * n), 1);
    }

    #[test]
    fn inverse_powers_invert() {
        let t = tables(5);
        for e in 0..(2 * t.n() as u64) {
            assert_eq!(mul_mod(t.psi_power(e), t.psi_inv_power(e), t.q()), 1);
        }
    }

    #[test]
    fn n_inv_is_inverse() {
        let t = tables(8);
        assert_eq!(mul_mod(t.n_inv(), t.n() as u64, t.q()), 1);
    }

    #[test]
    #[should_panic(expected = "≡ 1 mod 2N")]
    fn rejects_wrong_prime() {
        // 97 ≡ 1 mod 32 fails for N = 64 (needs 1 mod 128).
        let _ = NttTables::new(64, 97);
    }
}
