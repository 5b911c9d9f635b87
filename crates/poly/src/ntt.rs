//! The two oracle NTTs: in-place radix-2 negacyclic butterflies (paper
//! Alg. 3) and the `O(N²)` naive transform.
//!
//! The forward butterfly transform uses Cooley–Tukey
//! (decimation-in-time) butterflies: natural-order input,
//! **bit-reversed** output. The inverse uses Gentleman–Sande
//! butterflies: bit-reversed input, natural-order output. This is the
//! classic GPU-optimized formulation whose per-stage bit-complement
//! shuffling is exactly what MAT eliminates on TPUs.
//!
//! [`naive_forward`] / `naive_inverse` evaluate the defining sums
//! directly, in natural order — the oracle the butterflies, the host
//! engine and every compiled TPU kernel are checked against.

use crate::tables::NttTables;
use cross_math::modops::{add_mod, mul_mod, sub_mod};

/// `O(N²)` negacyclic transform, natural order:
/// `out[k] = Σ_j a[j]·ψ^{(2k+1)j} mod q`.
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn naive_forward(a: &[u64], tables: &NttTables) -> Vec<u64> {
    let n = tables.n();
    assert_eq!(a.len(), n, "input length must equal the ring degree");
    let q = tables.q();
    (0..n as u64)
        .map(|k| {
            let mut acc = 0u64;
            for (j, &aj) in a.iter().enumerate() {
                let e = ((2 * k + 1) * j as u64) % (2 * n as u64);
                acc = add_mod(acc, mul_mod(aj % q, tables.psi_power(e), q), q);
            }
            acc
        })
        .collect()
}

/// Inverse of [`naive_forward`] (natural-order input):
/// `out[j] = N⁻¹·ψ^{-j}·Σ_k a[k]·ψ^{-2kj} mod q`.
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
#[cfg(test)]
pub(crate) fn naive_inverse(a: &[u64], tables: &NttTables) -> Vec<u64> {
    let n = tables.n();
    assert_eq!(a.len(), n, "input length must equal the ring degree");
    let q = tables.q();
    (0..n as u64)
        .map(|j| {
            let mut acc = 0u64;
            for (k, &ak) in a.iter().enumerate() {
                let w = tables.psi_inv_power((2 * k as u64 * j) % (2 * n as u64));
                acc = add_mod(acc, mul_mod(ak, w, q), q);
            }
            let scaled = mul_mod(acc, tables.psi_inv_power(j), q);
            mul_mod(scaled, tables.n_inv(), q)
        })
        .collect()
}

/// Forward negacyclic NTT, natural input → bit-reversed output.
///
/// Semantics: after the call, `a[bitrev(k)] = Σ_j a_in[j]·ψ^{(2k+1)j} mod q`.
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn forward_inplace(a: &mut [u64], tables: &NttTables) {
    let n = tables.n();
    assert_eq!(a.len(), n, "input length must equal the ring degree");
    let q = tables.q();
    let psi_rev = tables.psi_rev();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t /= 2;
        for i in 0..m {
            let j1 = 2 * i * t;
            let j2 = j1 + t;
            let s = psi_rev[m + i];
            for j in j1..j2 {
                let u = a[j];
                let v = mul_mod(a[j + t], s, q);
                a[j] = add_mod(u, v, q);
                a[j + t] = sub_mod(u, v, q);
            }
        }
        m *= 2;
    }
}

/// Inverse negacyclic NTT, bit-reversed input → natural output.
///
/// Exactly inverts [`forward_inplace`], including the `N^{-1}` scaling.
///
/// # Panics
/// Panics if `a.len() != tables.n()`.
pub fn inverse_inplace(a: &mut [u64], tables: &NttTables) {
    let n = tables.n();
    assert_eq!(a.len(), n, "input length must equal the ring degree");
    let q = tables.q();
    let psi_inv_rev = tables.psi_inv_rev();
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let mut j1 = 0usize;
        let h = m / 2;
        for i in 0..h {
            let j2 = j1 + t;
            let s = psi_inv_rev[h + i];
            for j in j1..j2 {
                let u = a[j];
                let v = a[j + t];
                a[j] = add_mod(u, v, q);
                a[j + t] = mul_mod(sub_mod(u, v, q), s, q);
            }
            j1 += 2 * t;
        }
        t *= 2;
        m = h;
    }
    let n_inv = tables.n_inv();
    for x in a.iter_mut() {
        *x = mul_mod(*x, n_inv, q);
    }
}

/// Number of butterfly stages of a radix-2 NTT of degree `n`.
#[inline]
pub fn stages(n: usize) -> u32 {
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::bitrev::bit_reverse_in_place;
    use cross_math::primes;

    fn tables(logn: u32) -> NttTables {
        let n = 1usize << logn;
        NttTables::new(n, primes::ntt_prime(28, n as u64, 0).unwrap())
    }

    #[test]
    fn forward_matches_naive_bit_reversed() {
        for logn in [2u32, 3, 4, 6, 8] {
            let t = tables(logn);
            let n = t.n();
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % t.q()).collect();
            let mut f = a.clone();
            forward_inplace(&mut f, &t);
            let mut want = naive_forward(&a, &t);
            bit_reverse_in_place(&mut want);
            assert_eq!(f, want, "logn={logn}");
        }
    }

    #[test]
    fn naive_roundtrip() {
        let t = tables(4);
        let a: Vec<u64> = (0..16u64).map(|i| (i * 2654435761 + 17) % t.q()).collect();
        assert_eq!(naive_inverse(&naive_forward(&a, &t), &t), a);
    }

    #[test]
    fn roundtrip() {
        for logn in [1u32, 4, 10] {
            let t = tables(logn);
            let n = t.n();
            let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 1) % t.q()).collect();
            let mut x = a.clone();
            forward_inplace(&mut x, &t);
            inverse_inplace(&mut x, &t);
            assert_eq!(x, a, "logn={logn}");
        }
    }

    #[test]
    fn convolution_theorem() {
        // NTT(a)·NTT(b) == NTT(negacyclic a*b)
        let t = tables(4);
        let n = t.n();
        let q = t.q();
        let a: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (5 * i + 2) % q).collect();
        // schoolbook negacyclic product
        let mut c = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = mul_mod(a[i], b[j], q);
                if i + j < n {
                    c[i + j] = add_mod(c[i + j], p, q);
                } else {
                    c[i + j - n] = sub_mod(c[i + j - n], p, q);
                }
            }
        }
        let (mut fa, mut fb, mut fc) = (a.clone(), b.clone(), c.clone());
        forward_inplace(&mut fa, &t);
        forward_inplace(&mut fb, &t);
        forward_inplace(&mut fc, &t);
        for k in 0..n {
            assert_eq!(mul_mod(fa[k], fb[k], q), fc[k], "slot {k}");
        }
    }

    #[test]
    fn stage_op_counts() {
        assert_eq!(stages(1 << 12), 12);
    }
}
