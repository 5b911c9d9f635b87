//! Host modular matrix products `(m×k) @ (k×n) mod q`, row-major — the
//! CPU execution of the 3-step NTT's matmuls and the oracle BAT's
//! compiled products are checked against.

use cross_math::par;

/// Dense modular matrix product `(m×k) @ (k×n) mod q`, row-major.
///
/// Accumulates in `u128`; safe without intermediate reduction for
/// `k·q² < 2^128`, i.e. any CROSS configuration (`q < 2^32`, `k ≤ 2^32`).
pub fn matmul_mod(a: &[u64], b: &[u64], m: usize, k: usize, n: usize, q: u64) -> Vec<u64> {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    let mut out = vec![0u64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0u128;
            for t in 0..k {
                acc += a[i * k + t] as u128 * b[t * n + j] as u128;
            }
            out[i * n + j] = (acc % q as u128) as u64;
        }
    }
    out
}

/// Computes output rows `[row0, row0 + rows)` of `(m×k)@(k×n) mod q`
/// into `out` with the cache-friendly `i-t-j` loop order: the inner
/// loop streams one contiguous row of `b` with plain `u64`
/// multiply-adds (autovectorizable), folding into `u128` totals every
/// `block` terms so no accumulator ever overflows. The exact integer
/// sum mod `q` is what [`matmul_mod`] computes, so results are
/// bit-identical.
fn matmul_mod_rows(a: &[u64], b: &[u64], k: usize, n: usize, q: u64, row0: usize, out: &mut [u64]) {
    // Per-product u64 bound: operands < q ≤ 2^32 keep av·bv < 2^64.
    assert!(q <= 1 << 32, "blocked kernel requires q <= 2^32");
    // Largest number of k·(q-1)² products a u64 accumulator holds.
    let qm1 = (q - 1) as u128;
    let block = (u128::from(u64::MAX) / (qm1 * qm1).max(1)).max(1) as usize;
    let mut acc64 = vec![0u64; n];
    let mut acc128 = vec![0u128; n];
    for (ri, orow) in out.chunks_mut(n).enumerate() {
        let i = row0 + ri;
        acc128.fill(0);
        let mut tb = 0usize;
        while tb < k {
            let tend = (tb + block).min(k);
            acc64.fill(0);
            for t in tb..tend {
                let av = a[i * k + t];
                if av == 0 {
                    continue;
                }
                let brow = &b[t * n..(t + 1) * n];
                for (acc, &bv) in acc64.iter_mut().zip(brow) {
                    // av·bv < 2^64 (q < 2^32) and ≤ `block` terms
                    // accumulate, so this cannot wrap.
                    *acc += av * bv;
                }
            }
            for (wide, &narrow) in acc128.iter_mut().zip(&acc64) {
                *wide += narrow as u128;
            }
            tb = tend;
        }
        for (o, &acc) in orow.iter_mut().zip(&acc128) {
            *o = (acc % q as u128) as u64;
        }
    }
}

/// [`matmul_mod`] with the blocked row kernel, parallelized over
/// output-row blocks on the [`par`] pool when the product pays for
/// it. Bit-identical to the serial oracle (each output element
/// is the same exact integer dot product reduced mod `q`); the win is
/// contiguous `u64` streaming instead of strided `u128` dot products —
/// the layout the batch-major pipeline feeds.
///
/// # Panics
/// Panics if either operand's shape disagrees with `m`, `k`, `n`.
pub fn matmul_mod_par(a: &[u64], b: &[u64], m: usize, k: usize, n: usize, q: u64) -> Vec<u64> {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    if q > 1 << 32 {
        // Wide moduli would overflow the u64 per-product bound of the
        // blocked kernel; use the per-product u128 oracle instead.
        return matmul_mod(a, b, m, k, n, q);
    }
    let mut out = vec![0u64; m * n];
    if out.is_empty() {
        return out;
    }
    // Row blocks of about one worker's minimum share each, so a small
    // product is one block and runs as one serial call.
    let row_work = k.max(1) * n;
    let rows_per_block = (par::MIN_PAR_WORK / row_work).clamp(1, m);
    let mut blocks: Vec<&mut [u64]> = out.chunks_mut(rows_per_block * n).collect();
    par::par_for_each_sized(&mut blocks, m * row_work, |blk, chunk| {
        matmul_mod_rows(a, b, k, n, q, blk * rows_per_block, chunk);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 268_369_921;

    fn sample(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761 + 17) % Q).collect()
    }

    #[test]
    fn matmul_mod_identity() {
        let n = 4usize;
        let mut ident = vec![0u64; n * n];
        for i in 0..n {
            ident[i * n + i] = 1;
        }
        let a = sample(n * n);
        assert_eq!(matmul_mod(&ident, &a, n, n, n, Q), a);
        assert_eq!(matmul_mod(&a, &ident, n, n, n, Q), a);
    }

    #[test]
    fn matmul_mod_par_matches_serial() {
        // One shape under the parallel threshold, one above it.
        for (m, k, n) in [(8usize, 8usize, 8usize), (64, 64, 64)] {
            let a = sample(m * k);
            let b: Vec<u64> = sample(k * n).iter().map(|&x| (x * 5 + 2) % Q).collect();
            assert_eq!(
                matmul_mod_par(&a, &b, m, k, n, Q),
                matmul_mod(&a, &b, m, k, n, Q),
                "{m}x{k}x{n}"
            );
        }
    }
}
