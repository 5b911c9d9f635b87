//! Scalar BAT (paper Alg. 5 + Fig. 7): compiling one preknown scalar
//! `a` into a dense `K×K` byte matrix whose mat-vec with the byte
//! decomposition of a runtime `b` yields `a·b mod q` (lazily).
//!
//! Two independent construction routes are implemented and tested
//! against each other:
//!
//! * [`offline_compile_toeplitz`] — the faithful Alg. 5 pipeline:
//!   Toeplitz construction (❶), modular folding of the high-basis block
//!   (❸) and carry propagation, shrinking `(2K-1)×K` → `K×K` (❹);
//! * [`direct_scalar_bat`] — the closed form of Alg. 2
//!   (`DIRECTSCALARBAT`): column `j` is the byte decomposition of
//!   `(a·2^{j·bp}) mod q`.
//!
//! Both satisfy the column invariant
//! `Σ_i M[i][j]·2^{i·bp} ≡ a·2^{j·bp} (mod q)` and give identical
//! mat-vec results modulo `q`.

use super::chunk;
use cross_math::modops;

/// `CONSTRUCTTOEPLITZ` (Alg. 5): the sparse `(2K-1)×K` chunk matrix of
/// the SoTA GPU decomposition (Fig. 7 ❶) — `X[i+j][j] = a_i`.
pub fn construct_toeplitz(a_chunks: &[u64], k: usize) -> Vec<Vec<u64>> {
    assert_eq!(a_chunks.len(), k);
    let mut x = vec![vec![0u64; k]; 2 * k - 1];
    for j in 0..k {
        for (i, &ai) in a_chunks.iter().enumerate() {
            x[i + j][j] = ai;
        }
    }
    x
}

/// Fraction of structural zeros in the sparse Toeplitz matrix:
/// `(K-1)·K` zeros out of `(2K-1)·K` entries ≈ 43 % for `K = 4`
/// (paper §IV-A1).
pub fn toeplitz_zero_fraction(k: usize) -> f64 {
    ((k - 1) * k) as f64 / ((2 * k - 1) * k) as f64
}

/// `CARRYPROPAGATION` (Alg. 5): restores all entries below `2^bp` by
/// pushing carries to the next row (next output basis).
///
/// The matrix gains a row if the top row carries out.
pub(crate) fn carry_propagation(x: &mut Vec<Vec<u64>>, k: usize, bp: u32) {
    let mask = (1u64 << bp) - 1;
    let mut row = 0;
    while row < x.len() {
        for j in 0..k {
            let v = x[row][j];
            if v > mask {
                let carry = v >> bp;
                x[row][j] = v & mask;
                if row + 1 == x.len() {
                    x.push(vec![0u64; k]);
                }
                x[row + 1][j] += carry;
            }
        }
        row += 1;
    }
}

/// One BAT folding pass (Alg. 5 `BAT`): every non-zero entry in a row
/// `r ≥ K` (output basis `2^{r·bp}` ≥ the modulus range) is reduced as
/// `proj = (entry << r·bp) mod q` and its byte chunks are added back
/// into rows `0..K` of the same column (Fig. 7 ❸).
// Index-based loops: row `r` is read/cleared while rows `0..K` of the
// same matrix are written, so iterator forms would fight the borrow
// checker for no clarity gain.
#[allow(clippy::needless_range_loop)]
pub(crate) fn fold_high_basis(x: &mut [Vec<u64>], k: usize, bp: u32, q: u64) {
    for r in k..x.len() {
        for j in 0..k {
            let v = x[r][j];
            if v == 0 {
                continue;
            }
            x[r][j] = 0;
            // (v << r·bp) mod q without overflow: modular shift-multiply.
            let shift = modops::pow_mod(2, r as u64 * bp as u64, q);
            let proj = modops::mul_mod(v % q, shift, q);
            for (i, c) in chunk::decompose(proj, k, bp).into_iter().enumerate() {
                x[i][j] += c;
            }
        }
    }
}

/// `OFFLINECOMPILE` (Alg. 5): the full Toeplitz → fold → carry loop,
/// producing the dense `K×K` byte matrix (Fig. 7 ❹).
///
/// # Panics
/// Panics if `a >= q` (the preknown parameter must be reduced).
pub fn offline_compile_toeplitz(a: u64, k: usize, bp: u32, q: u64) -> Vec<Vec<u64>> {
    assert!(a < q, "preknown parameter must be reduced");
    let mask = (1u64 << bp) - 1;
    let mut x = construct_toeplitz(&chunk::decompose(a, k, bp), k);
    loop {
        carry_propagation(&mut x, k, bp);
        let bottom_nonzero = x[k..].iter().any(|row| row.iter().any(|&v| v != 0));
        let all_small = x.iter().all(|row| row.iter().all(|&v| v <= mask));
        if !bottom_nonzero && all_small {
            break;
        }
        fold_high_basis(&mut x, k, bp, q);
    }
    x.truncate(k);
    debug_assert!(x.iter().all(|row| row.iter().all(|&v| v <= mask)));
    x
}

/// `DIRECTSCALARBAT` (Alg. 2): the closed-form dense matrix — column
/// `j` holds the byte chunks of `(a << j·bp) mod q`.
// Column `j` scatters into computed rows `m[i][j]`; a range loop states
// that directly.
#[allow(clippy::needless_range_loop)]
pub fn direct_scalar_bat(a: u64, k: usize, bp: u32, q: u64) -> Vec<Vec<u64>> {
    assert!(a < q, "preknown parameter must be reduced");
    let mut m = vec![vec![0u64; k]; k];
    for j in 0..k {
        let shift = modops::pow_mod(2, j as u64 * bp as u64, q);
        let val = modops::mul_mod(a, shift, q);
        for (i, c) in chunk::decompose(val, k, bp).into_iter().enumerate() {
            m[i][j] = c;
        }
    }
    m
}

/// `MAIN-HPSCALARMULT` (Alg. 5): runtime mat-vec against the compiled
/// matrix plus the shortened carry-add chain (Fig. 7 ❺), returning the
/// *lazy* value `z ≡ a·b (mod q)` with `z < K·2^bp·q`.
pub fn hp_scalar_mul_lazy(m: &[Vec<u64>], b: u64, k: usize, bp: u32) -> u64 {
    let b_chunks = chunk::decompose(b, k, bp);
    // K psums instead of the baseline's 2K-1 (halved temporal reduction).
    let psums: Vec<u64> = (0..k)
        .map(|i| (0..k).map(|j| m[i][j] * b_chunks[j]).sum::<u64>())
        .collect();
    chunk::merge(&psums, bp)
}

/// Strict scalar BAT product `a·b mod q` (compile + mat-vec + final
/// reduction) — the end-to-end semantics tests target.
pub fn hp_scalar_mul(a: u64, b: u64, k: usize, bp: u32, q: u64) -> u64 {
    let m = offline_compile_toeplitz(a, k, bp, q);
    hp_scalar_mul_lazy(&m, b, k, bp) % q
}

/// Checks the column invariant `Σ_i M[i][j]·2^{i·bp} ≡ a·2^{j·bp} (mod q)`.
pub fn column_invariant_holds(m: &[Vec<u64>], a: u64, bp: u32, q: u64) -> bool {
    let k = m[0].len();
    (0..k).all(|j| {
        let col: Vec<u64> = (0..m.len()).map(|i| m[i][j]).collect();
        let lhs = (chunk::merge_u128(&col, bp) % q as u128) as u64;
        let shift = modops::pow_mod(2, j as u64 * bp as u64, q);
        lhs == modops::mul_mod(a, shift, q)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;
    const K: usize = 4;
    const BP: u32 = 8;

    #[test]
    fn toeplitz_structure() {
        let x = construct_toeplitz(&[1, 2, 3, 4], K);
        assert_eq!(x.len(), 7);
        assert_eq!(x[0], vec![1, 0, 0, 0]);
        assert_eq!(x[3], vec![4, 3, 2, 1]);
        assert_eq!(x[6], vec![0, 0, 0, 4]);
    }

    #[test]
    fn zero_fraction_matches_paper() {
        // 12 zeros out of 4×7 ≈ 43 % (paper §IV-A1).
        assert!((toeplitz_zero_fraction(4) - 12.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn compile_produces_dense_kxk_bytes() {
        for a in [1u64, 255, 256, 0x0ABC_DEF0 % Q, Q - 1] {
            let m = offline_compile_toeplitz(a, K, BP, Q);
            assert_eq!(m.len(), K);
            assert!(m.iter().all(|r| r.len() == K));
            assert!(m.iter().all(|r| r.iter().all(|&v| v < 256)));
        }
    }

    #[test]
    fn column_invariant() {
        for a in [0u64, 1, 12345, Q - 1, Q / 3] {
            let m = offline_compile_toeplitz(a, K, BP, Q);
            assert!(column_invariant_holds(&m, a, BP, Q), "a={a}");
            let d = direct_scalar_bat(a, K, BP, Q);
            assert!(column_invariant_holds(&d, a, BP, Q), "a={a} (direct)");
        }
    }

    #[test]
    fn both_routes_agree_semantically() {
        for a in [1u64, 257, Q - 1, 987_654_321 % Q] {
            let t = offline_compile_toeplitz(a, K, BP, Q);
            let d = direct_scalar_bat(a, K, BP, Q);
            for b in [0u64, 1, 255, 0xFFFF_FFFF % Q, Q - 1] {
                assert_eq!(
                    hp_scalar_mul_lazy(&t, b, K, BP) % Q,
                    hp_scalar_mul_lazy(&d, b, K, BP) % Q,
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn scalar_mul_matches_reference() {
        for a in [1u64, 2, 255, 12345, Q - 1] {
            for b in [0u64, 1, 3, 65535, Q - 2] {
                assert_eq!(
                    hp_scalar_mul(a, b, K, BP, Q),
                    modops::mul_mod(a, b, Q),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn lazy_range_bound() {
        let a = Q - 1;
        let m = offline_compile_toeplitz(a, K, BP, Q);
        let z = hp_scalar_mul_lazy(&m, Q - 1, K, BP);
        // z < K·255·q: the shortened carry chain stays in 64 bits.
        assert!(z < K as u64 * 256 * Q);
        assert_eq!(z % Q, modops::mul_mod(a, Q - 1, Q));
    }

    #[test]
    fn carry_propagation_normalizes() {
        let mut x = vec![vec![300u64, 0], vec![0, 513]];
        carry_propagation(&mut x, 2, 8);
        assert_eq!(x[0], vec![44, 0]);
        assert_eq!(x[1], vec![1, 1]);
        assert_eq!(x[2], vec![0, 2]);
    }

    #[test]
    fn works_at_16bit_precision() {
        // BAT generalizes to other MXU precisions (bp = 16 → K = 2).
        let k = 2;
        let bp = 16;
        for (a, b) in [(12345u64, 67890u64), (Q - 1, Q - 1)] {
            assert_eq!(hp_scalar_mul(a, b, k, bp, Q), modops::mul_mod(a, b, Q));
        }
    }
}
