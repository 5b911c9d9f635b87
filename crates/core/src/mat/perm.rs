//! Permutation embedding utilities (paper Fig. 9).
//!
//! A reordering of a length-`n` vector is the permutation matrix
//! `P[i][j] = δ_{j, π(i)}` (so `(P·y)[i] = y[π(i)]`). MAT never
//! materializes `P` at runtime — these helpers apply it to *parameters*
//! offline.

/// Row-permutes an `r×c` row-major matrix: `out_row[i] = m_row[perm[i]]`
/// (left-multiplication by the permutation matrix).
pub(crate) fn permute_rows(m: &[u64], r: usize, c: usize, perm: &[usize]) -> Vec<u64> {
    assert_eq!(m.len(), r * c);
    assert_eq!(perm.len(), r);
    let mut out = vec![0u64; r * c];
    for (i, &p) in perm.iter().enumerate() {
        out[i * c..(i + 1) * c].copy_from_slice(&m[p * c..(p + 1) * c]);
    }
    out
}

/// Column-permutes an `r×c` row-major matrix: `out[:, j] = m[:, perm[j]]`
/// (right-multiplication by the permutation matrix transpose — for the
/// involutive bit-reversal permutations MAT uses, direction coincides).
pub(crate) fn permute_cols(m: &[u64], r: usize, c: usize, perm: &[usize]) -> Vec<u64> {
    assert_eq!(m.len(), r * c);
    assert_eq!(perm.len(), c);
    let mut out = vec![0u64; r * c];
    for i in 0..r {
        for (j, &p) in perm.iter().enumerate() {
            out[i * c + j] = m[i * c + p];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::bitrev::bit_reverse_permutation;

    #[test]
    fn bitrev_is_involution() {
        // What lets `permute_cols` ignore the direction of the
        // permutations MAT embeds.
        for n in [2usize, 8, 64, 1024] {
            let perm = bit_reverse_permutation(n);
            assert!(perm.iter().enumerate().all(|(i, &p)| perm[p] == i));
        }
    }

    #[test]
    fn row_permutation_is_left_matmul() {
        // P @ M where P[i][j] = δ_{j, perm[i]}.
        let m = vec![1u64, 2, 3, 4, 5, 6]; // 3×2
        let perm = vec![2usize, 0, 1];
        let got = permute_rows(&m, 3, 2, &perm);
        assert_eq!(got, vec![5, 6, 1, 2, 3, 4]);
        // explicit matrix product oracle
        let q = 97u64;
        let mut p = vec![0u64; 9];
        for (i, &pi) in perm.iter().enumerate() {
            p[i * 3 + pi] = 1;
        }
        let want = crate::mat::matmul_mod(&p, &m, 3, 3, 2, q);
        assert_eq!(got, want);
    }

    #[test]
    fn col_permutation_matches_gather() {
        let m = vec![1u64, 2, 3, 4, 5, 6]; // 2×3
        let perm = vec![2usize, 1, 0];
        assert_eq!(permute_cols(&m, 2, 3, &perm), vec![3, 2, 1, 6, 5, 4]);
    }
}
