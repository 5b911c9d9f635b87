//! Interchangeable NTT engines (the paper's *Decomposing* layer, Fig. 6).
//!
//! Three reference engines ship here:
//!
//! | engine | complexity | output order | paper role |
//! |---|---|---|---|
//! | [`NaiveNtt`] | `O(N²)` | natural | test oracle |
//! | [`CooleyTukeyNtt`] | `O(N log N)` | bit-reversed | GPU SoTA (Alg. 3) |
//! | [`FourStepNtt`] | `O(N^{3/2})` | natural | matrix decomposition MAT rewrites (Fig. 10 row 1) |
//!
//! The 4-step engine follows the factorization: with `N = R·C`,
//! input viewed row-major as `A[r][c] = a[r·C+c]`,
//!
//! 1. column-wise **negacyclic** `R`-point NTTs with `ψ_R = ψ^C`
//!    (a left matmul by `W_R[k₁][r] = ψ^{C·r·(2k₁+1)}`),
//! 2. element-wise twiddle `T[k₁][c] = ψ^{(2k₁+1)·c}`,
//! 3. an explicit transpose (the memory cost MAT removes), and
//! 4. row-wise **cyclic** `C`-point DFTs with `ω^R = ψ^{2R}`
//!    (a right matmul by `W_C[c][k₂] = ψ^{2R·c·k₂}`),
//!
//! producing `â[k₁ + k₂·R]`.

use crate::ntt;
use crate::tables::NttTables;
use cross_math::modops::{add_mod, mul_mod};
use cross_math::par;
use std::sync::Arc;

/// Ordering of an engine's forward-transform output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputOrder {
    /// `out[k]` holds evaluation `k`.
    Natural,
    /// `out[bitrev(k)]` holds evaluation `k` (radix-2 in-place layout).
    BitReversed,
}

/// A forward/inverse negacyclic NTT implementation.
///
/// `inverse(forward(a)) == a` must hold for every engine; forward outputs
/// are comparable across engines only after accounting for
/// [`NttEngine::output_order`].
pub trait NttEngine {
    /// Engine name for reports and traces.
    fn name(&self) -> &'static str;
    /// Output ordering contract of [`NttEngine::forward`].
    fn output_order(&self) -> OutputOrder;
    /// The twiddle tables (degree, modulus) this engine was built for.
    fn tables(&self) -> &NttTables;
    /// Forward negacyclic transform.
    fn forward(&self, a: &[u64]) -> Vec<u64>;
    /// Inverse transform; accepts this engine's own output ordering.
    fn inverse(&self, a: &[u64]) -> Vec<u64>;

    /// Batched forward transform over `batch` polynomials stored
    /// back-to-back in `a` (`a[b·N .. (b+1)·N]` is polynomial `b`).
    ///
    /// The default implementation loops [`NttEngine::forward`]; engines
    /// with a matrix formulation override it to fuse the batch into a
    /// wider kernel. Results are bit-identical either way.
    ///
    /// # Panics
    /// Panics if `a.len() != batch · N`.
    fn forward_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let n = self.tables().n();
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        a.chunks(n).flat_map(|p| self.forward(p)).collect()
    }

    /// Batched inverse transform (layout as in
    /// [`NttEngine::forward_batch`]).
    ///
    /// # Panics
    /// Panics if `a.len() != batch · N`.
    fn inverse_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let n = self.tables().n();
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        a.chunks(n).flat_map(|p| self.inverse(p)).collect()
    }
}

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
pub fn matmul_mod_par(a: &[u64], b: &[u64], m: usize, k: usize, n: usize, q: u64) -> Vec<u64> {
    let mut out = vec![0u64; m * n];
    matmul_mod_par_into(a, b, m, k, n, q, &mut out);
    out
}

/// [`matmul_mod_par`] writing into a caller-provided buffer, so batch
/// pipelines can ping-pong two scratch allocations instead of
/// allocating per step.
///
/// # Panics
/// Panics if any of the three shapes disagree with `m`, `k`, `n`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_mod_par_into(
    a: &[u64],
    b: &[u64],
    m: usize,
    k: usize,
    n: usize,
    q: u64,
    out: &mut [u64],
) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if q > 1 << 32 {
        // Wide moduli would overflow the u64 per-product bound of the
        // blocked kernel; use the per-product u128 oracle instead.
        out.copy_from_slice(&matmul_mod(a, b, m, k, n, q));
        return;
    }
    if out.is_empty() {
        return;
    }
    // Row blocks of about one worker's minimum share each, so a small
    // product is one block and runs as one serial call.
    let row_work = k.max(1) * n;
    let rows_per_block = (par::MIN_PAR_WORK / row_work).clamp(1, m);
    let mut blocks: Vec<&mut [u64]> = out.chunks_mut(rows_per_block * n).collect();
    par::par_for_each_sized(&mut blocks, m * row_work, |blk, chunk| {
        matmul_mod_rows(a, b, k, n, q, blk * rows_per_block, chunk);
    });
}

/// `O(N²)` naive negacyclic transform — the oracle all engines and all
/// compiled TPU kernels are verified against.
#[derive(Debug, Clone)]
pub struct NaiveNtt {
    tables: Arc<NttTables>,
}

impl NaiveNtt {
    /// Builds the oracle engine over shared tables.
    pub fn new(tables: Arc<NttTables>) -> Self {
        Self { tables }
    }
}

impl NttEngine for NaiveNtt {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::Natural
    }

    fn tables(&self) -> &NttTables {
        &self.tables
    }

    fn forward(&self, a: &[u64]) -> Vec<u64> {
        let t = &self.tables;
        let n = t.n();
        assert_eq!(a.len(), n);
        let q = t.q();
        (0..n as u64)
            .map(|k| {
                let mut acc = 0u64;
                for (j, &aj) in a.iter().enumerate() {
                    let e = ((2 * k + 1) * j as u64) % (2 * n as u64);
                    acc = add_mod(acc, mul_mod(aj % q, t.psi_power(e), q), q);
                }
                acc
            })
            .collect()
    }

    fn inverse(&self, a: &[u64]) -> Vec<u64> {
        let t = &self.tables;
        let n = t.n();
        assert_eq!(a.len(), n);
        let q = t.q();
        // a_j = N^{-1} · ψ^{-j} · Σ_k â_k · ω^{-kj}  with ω = ψ².
        (0..n as u64)
            .map(|j| {
                let mut acc = 0u64;
                for (k, &ak) in a.iter().enumerate() {
                    let w = t.psi_inv_power((2 * k as u64 * j) % (2 * n as u64));
                    acc = add_mod(acc, mul_mod(ak, w, q), q);
                }
                let scaled = mul_mod(acc, t.psi_inv_power(j), q);
                mul_mod(scaled, t.n_inv(), q)
            })
            .collect()
    }
}

/// Radix-2 Cooley–Tukey butterfly NTT (paper Alg. 3): `O(N log N)`,
/// bit-reversed output — the GPU-SoTA decomposition.
#[derive(Debug, Clone)]
pub struct CooleyTukeyNtt {
    tables: Arc<NttTables>,
}

impl CooleyTukeyNtt {
    /// Builds the butterfly engine over shared tables.
    pub fn new(tables: Arc<NttTables>) -> Self {
        Self { tables }
    }
}

impl NttEngine for CooleyTukeyNtt {
    fn name(&self) -> &'static str {
        "radix2-cooley-tukey"
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::BitReversed
    }

    fn tables(&self) -> &NttTables {
        &self.tables
    }

    fn forward(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        ntt::forward_inplace(&mut out, &self.tables);
        out
    }

    fn inverse(&self, a: &[u64]) -> Vec<u64> {
        let mut out = a.to_vec();
        ntt::inverse_inplace(&mut out, &self.tables);
        out
    }
}

/// The 4-step matrix NTT (paper Fig. 10 row 1), `O(N^{3/2})` work,
/// natural-order output, with an *explicit* transpose between steps —
/// the runtime reordering that MAT later folds into the twiddles.
#[derive(Debug, Clone)]
pub struct FourStepNtt {
    tables: Arc<NttTables>,
    r: usize,
    c: usize,
    /// `W_R[k₁][r] = ψ^{C·r·(2k₁+1)}` (R×R)
    w_r: Vec<u64>,
    /// `T[k₁][c] = ψ^{(2k₁+1)·c}` (R×C)
    twiddle: Vec<u64>,
    /// `W_Cᵀ[k₂][c] = ψ^{2R·c·k₂}` (C×C) — step 4 runs on transposed
    /// layouts, so the transposed matrix is the one precomputed.
    w_c_t: Vec<u64>,
    /// `V_Cᵀ[c][k₂] = ψ^{-2R·k₂·c}` (C×C), the step-4 undo.
    v_c_t: Vec<u64>,
    /// `T⁻[k₁][c] = ψ^{-2·k₁·c}` (R×C)
    twiddle_inv: Vec<u64>,
    /// `V_R[r][k₁] = ψ^{-2C·k₁·r}` (R×R)
    v_r: Vec<u64>,
    /// `N^{-1}·ψ^{-(rC+c)}` final scale (R×C)
    final_scale: Vec<u64>,
}

impl FourStepNtt {
    /// Builds the engine with factorization `N = R·C`.
    ///
    /// # Panics
    /// Panics if `r*c != tables.n()` or either factor is not a power of two.
    pub fn new(tables: Arc<NttTables>, r: usize, c: usize) -> Self {
        let n = tables.n();
        assert_eq!(r * c, n, "factorization must satisfy R*C = N");
        assert!(r.is_power_of_two() && c.is_power_of_two());
        let q = tables.q();
        let two_n = 2 * n as u64;
        let mut w_r = vec![0u64; r * r];
        for k1 in 0..r {
            for rr in 0..r {
                let e = (c as u64 * rr as u64 % two_n) * (2 * k1 as u64 + 1) % two_n;
                w_r[k1 * r + rr] = tables.psi_power(e);
            }
        }
        let mut twiddle = vec![0u64; r * c];
        let mut twiddle_inv = vec![0u64; r * c];
        for k1 in 0..r {
            for cc in 0..c {
                twiddle[k1 * c + cc] = tables.psi_power((2 * k1 as u64 + 1) * cc as u64 % two_n);
                twiddle_inv[k1 * c + cc] = tables.psi_inv_power(2 * k1 as u64 * cc as u64 % two_n);
            }
        }
        let mut w_c_t = vec![0u64; c * c];
        let mut v_c_t = vec![0u64; c * c];
        for cc in 0..c {
            for k2 in 0..c {
                let e = 2 * r as u64 * cc as u64 % two_n * k2 as u64 % two_n;
                w_c_t[k2 * c + cc] = tables.psi_power(e);
                v_c_t[cc * c + k2] = tables.psi_inv_power(e);
            }
        }
        let mut v_r = vec![0u64; r * r];
        for rr in 0..r {
            for k1 in 0..r {
                let e = 2 * c as u64 * k1 as u64 % two_n * rr as u64 % two_n;
                v_r[rr * r + k1] = tables.psi_inv_power(e);
            }
        }
        let mut final_scale = vec![0u64; r * c];
        for rr in 0..r {
            for cc in 0..c {
                let j = (rr * c + cc) as u64;
                final_scale[rr * c + cc] = mul_mod(tables.n_inv(), tables.psi_inv_power(j), q);
            }
        }
        Self {
            tables,
            r,
            c,
            w_r,
            twiddle,
            w_c_t,
            v_c_t,
            twiddle_inv,
            v_r,
            final_scale,
        }
    }

    /// Row factor `R`.
    pub fn rows(&self) -> usize {
        self.r
    }

    /// Column factor `C`.
    pub fn cols(&self) -> usize {
        self.c
    }
}

impl NttEngine for FourStepNtt {
    fn name(&self) -> &'static str {
        "4-step"
    }

    fn output_order(&self) -> OutputOrder {
        OutputOrder::Natural
    }

    fn tables(&self) -> &NttTables {
        &self.tables
    }

    fn forward(&self, a: &[u64]) -> Vec<u64> {
        let (r, c) = (self.r, self.c);
        let t = &self.tables;
        let q = t.q();
        assert_eq!(a.len(), r * c);
        // Step 1: column-wise R-point negacyclic NTTs == W_R @ A.
        let x = matmul_mod(&self.w_r, a, r, r, c, q);
        // Step 2: element-wise twiddle.
        let mut x2 = vec![0u64; r * c];
        for i in 0..r * c {
            x2[i] = mul_mod(x[i], self.twiddle[i], q);
        }
        // Step 3: EXPLICIT transpose (R×C -> C×R) — the runtime layout
        // change the baseline pays and MAT removes.
        let mut xt = vec![0u64; c * r];
        for k1 in 0..r {
            for cc in 0..c {
                xt[cc * r + k1] = x2[k1 * c + cc];
            }
        }
        // Step 4: row-wise cyclic C-point DFTs on the transposed layout:
        // Y^T = W_C^T @ X^T, i.e. yt[k2][k1] = Σ_c W_C[c][k2]·x2[k1][c].
        let yt = matmul_mod(&self.w_c_t, &xt, c, c, r, q);
        // yt[k2][k1] = â[k1 + k2·R]: flattening yt row-major IS natural order.
        yt
    }

    /// Fused batched forward: the batch joins the streamed matmul
    /// dimension — step 1 becomes `W_R @ [A₀ | A₁ | …]` (`R × C·batch`)
    /// and step 4 becomes `W_Cᵀ @ [X₀ᵀ | X₁ᵀ | …]` (`C × R·batch`), so
    /// both matrix products run once per batch instead of once per
    /// polynomial. The whole pipeline ping-pongs two `batch·N` scratch
    /// buffers (no per-step allocation). Bit-identical to looping
    /// [`NttEngine::forward`].
    fn forward_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let (r, c) = (self.r, self.c);
        let n = r * c;
        let q = self.tables.q();
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        let cb = c * batch;
        let rb = r * batch;
        let mut buf_a = vec![0u64; batch * n];
        let mut buf_b = vec![0u64; batch * n];
        // Column-stack the batch: buf_a[rr][b·C + cc] = a_b[rr·C + cc].
        for b in 0..batch {
            for rr in 0..r {
                buf_a[rr * cb + b * c..rr * cb + b * c + c]
                    .copy_from_slice(&a[b * n + rr * c..b * n + rr * c + c]);
            }
        }
        // Step 1: one fused matmul over the C·batch streamed dimension.
        matmul_mod_par_into(&self.w_r, &buf_a, r, r, cb, q, &mut buf_b);
        // Step 2: twiddles tile across the batch blocks of each row,
        // in place on the matmul output.
        for k1 in 0..r {
            for b in 0..batch {
                for cc in 0..c {
                    let x = &mut buf_b[k1 * cb + b * c + cc];
                    *x = mul_mod(*x, self.twiddle[k1 * c + cc], q);
                }
            }
        }
        // Step 3: per-polynomial transpose into one C × R·batch matrix.
        for b in 0..batch {
            for k1 in 0..r {
                for cc in 0..c {
                    buf_a[cc * rb + b * r + k1] = buf_b[k1 * cb + b * c + cc];
                }
            }
        }
        // Step 4: one fused matmul by the precomputed W_Cᵀ.
        matmul_mod_par_into(&self.w_c_t, &buf_a, c, c, rb, q, &mut buf_b);
        // De-stack: out_b[k2·R + k1] = yt[k2][b·R + k1].
        for b in 0..batch {
            for k2 in 0..c {
                buf_a[b * n + k2 * r..b * n + k2 * r + r]
                    .copy_from_slice(&buf_b[k2 * rb + b * r..k2 * rb + b * r + r]);
            }
        }
        buf_a
    }

    /// Fused batched inverse (mirror of
    /// [`FourStepNtt::forward_batch`]); bit-identical to looping
    /// [`NttEngine::inverse`].
    fn inverse_batch(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let (r, c) = (self.r, self.c);
        let n = r * c;
        let q = self.tables.q();
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        let rb = r * batch;
        let cb = c * batch;
        let mut buf_a = vec![0u64; batch * n];
        let mut buf_b = vec![0u64; batch * n];
        // Column-stack natural-order inputs as C × R·batch.
        for b in 0..batch {
            for k2 in 0..c {
                buf_a[k2 * rb + b * r..k2 * rb + b * r + r]
                    .copy_from_slice(&a[b * n + k2 * r..b * n + k2 * r + r]);
            }
        }
        // Undo step 4 with one fused matmul (precomputed V_Cᵀ) over
        // R·batch columns.
        matmul_mod_par_into(&self.v_c_t, &buf_a, c, c, rb, q, &mut buf_b);
        // Transpose back per polynomial + inverse twiddle, column-stacked
        // as R × C·batch for the fused step-1 undo.
        for b in 0..batch {
            for cc in 0..c {
                for k1 in 0..r {
                    buf_a[k1 * cb + b * c + cc] = mul_mod(
                        buf_b[cc * rb + b * r + k1],
                        self.twiddle_inv[k1 * c + cc],
                        q,
                    );
                }
            }
        }
        matmul_mod_par_into(&self.v_r, &buf_a, r, r, cb, q, &mut buf_b);
        // De-stack + final scale.
        for b in 0..batch {
            for rr in 0..r {
                for cc in 0..c {
                    buf_a[b * n + rr * c + cc] = mul_mod(
                        buf_b[rr * cb + b * c + cc],
                        self.final_scale[rr * c + cc],
                        q,
                    );
                }
            }
        }
        buf_a
    }

    fn inverse(&self, a: &[u64]) -> Vec<u64> {
        let (r, c) = (self.r, self.c);
        let t = &self.tables;
        let q = t.q();
        assert_eq!(a.len(), r * c);
        // Input natural order: yt[k2][k1] = â[k1 + k2 R] (C×R row-major).
        // Undo step 4: X2^T[c][k1] = Σ_{k2} V_C[c'][k2] ... do it as matmul:
        // x2t = V_C^T? We have yt (C×R). Want z[k1][c] = Σ_{k2} y[k1][k2]·ψ^{-2R·k2·c}.
        // In transposed form: zt[c][k1] = Σ_{k2} v_c_t[c][k2] · yt[k2][k1]
        // where v_c_t[c][k2] = ψ^{-2R·k2·c} = v_c[k2][c].
        let zt = matmul_mod(&self.v_c_t, a, c, c, r, q);
        // transpose back to R×C and apply inverse twiddle + 1/C scale later
        let mut z = vec![0u64; r * c];
        for cc in 0..c {
            for k1 in 0..r {
                z[k1 * c + cc] = mul_mod(zt[cc * r + k1], self.twiddle_inv[k1 * c + cc], q);
            }
        }
        // Undo step 1: w[r][c] = Σ_{k1} V_R[r][k1] · z[k1][c]
        let w = matmul_mod(&self.v_r, &z, r, r, c, q);
        // Final scale: N^{-1}·ψ^{-(rC+c)} (the N^{-1} folds the missing
        // 1/R and 1/C normalizations of the two inverse DFT matmuls).
        let mut out = vec![0u64; r * c];
        for i in 0..r * c {
            out[i] = mul_mod(w[i], self.final_scale[i], q);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::bitrev::bit_reverse_permutation;
    use cross_math::primes;

    fn tables(logn: u32) -> Arc<NttTables> {
        let n = 1usize << logn;
        Arc::new(NttTables::new(
            n,
            primes::ntt_prime(28, n as u64, 0).unwrap(),
        ))
    }

    fn sample(n: usize, q: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761 + 17) % q).collect()
    }

    #[test]
    fn naive_roundtrip() {
        let t = tables(4);
        let e = NaiveNtt::new(t.clone());
        let a = sample(t.n(), t.q());
        assert_eq!(e.inverse(&e.forward(&a)), a);
    }

    #[test]
    fn ct_matches_naive_modulo_bitrev() {
        let t = tables(5);
        let naive = NaiveNtt::new(t.clone());
        let ct = CooleyTukeyNtt::new(t.clone());
        let a = sample(t.n(), t.q());
        let want = naive.forward(&a);
        let got = ct.forward(&a);
        let perm = bit_reverse_permutation(t.n());
        for k in 0..t.n() {
            assert_eq!(got[perm[k]], want[k], "slot {k}");
        }
    }

    #[test]
    fn four_step_matches_naive() {
        for (logn, r) in [(4u32, 4usize), (6, 8), (8, 16), (8, 64), (10, 32)] {
            let t = tables(logn);
            let c = t.n() / r;
            let naive = NaiveNtt::new(t.clone());
            let fs = FourStepNtt::new(t.clone(), r, c);
            let a = sample(t.n(), t.q());
            assert_eq!(fs.forward(&a), naive.forward(&a), "logn={logn} r={r}");
        }
    }

    #[test]
    fn four_step_roundtrip() {
        for (logn, r) in [(6u32, 8usize), (10, 32), (12, 64)] {
            let t = tables(logn);
            let c = t.n() / r;
            let fs = FourStepNtt::new(t.clone(), r, c);
            let a = sample(t.n(), t.q());
            assert_eq!(fs.inverse(&fs.forward(&a)), a, "logn={logn} r={r}");
        }
    }

    #[test]
    fn engines_agree_on_pointwise_products() {
        // Multiply two polynomials in each engine's own domain; results
        // must agree after inverse transform.
        let t = tables(6);
        let q = t.q();
        let a = sample(t.n(), q);
        let b: Vec<u64> = sample(t.n(), q).iter().map(|&x| (x * 3 + 1) % q).collect();
        let engines: Vec<Box<dyn NttEngine>> = vec![
            Box::new(NaiveNtt::new(t.clone())),
            Box::new(CooleyTukeyNtt::new(t.clone())),
            Box::new(FourStepNtt::new(t.clone(), 8, 8)),
        ];
        let mut results = Vec::new();
        for e in &engines {
            let fa = e.forward(&a);
            let fb = e.forward(&b);
            let prod: Vec<u64> = fa
                .iter()
                .zip(&fb)
                .map(|(&x, &y)| mul_mod(x, y, q))
                .collect();
            results.push(e.inverse(&prod));
        }
        assert_eq!(results[0], results[1], "naive vs CT");
        assert_eq!(results[0], results[2], "naive vs 4-step");
    }

    #[test]
    fn matmul_mod_identity() {
        let q = 268_369_921u64;
        let n = 4usize;
        let mut ident = vec![0u64; n * n];
        for i in 0..n {
            ident[i * n + i] = 1;
        }
        let a = sample(n * n, q);
        assert_eq!(matmul_mod(&ident, &a, n, n, n, q), a);
        assert_eq!(matmul_mod(&a, &ident, n, n, n, q), a);
    }

    #[test]
    #[should_panic(expected = "R*C = N")]
    fn four_step_rejects_bad_factorization() {
        let t = tables(4);
        let _ = FourStepNtt::new(t, 4, 8);
    }

    #[test]
    fn batched_default_equals_loop() {
        let t = tables(5);
        let engines: Vec<Box<dyn NttEngine>> = vec![
            Box::new(NaiveNtt::new(t.clone())),
            Box::new(CooleyTukeyNtt::new(t.clone())),
        ];
        let batch = 3usize;
        let a: Vec<u64> = sample(batch * t.n(), t.q());
        for e in &engines {
            let fused = e.forward_batch(&a, batch);
            let looped: Vec<u64> = a.chunks(t.n()).flat_map(|p| e.forward(p)).collect();
            assert_eq!(fused, looped, "{} forward", e.name());
            assert_eq!(e.inverse_batch(&fused, batch), a, "{} roundtrip", e.name());
        }
    }

    #[test]
    fn four_step_fused_batch_bit_exact() {
        for (logn, r, batch) in [(6u32, 8usize, 1usize), (6, 8, 4), (8, 16, 7), (10, 32, 3)] {
            let t = tables(logn);
            let c = t.n() / r;
            let fs = FourStepNtt::new(t.clone(), r, c);
            let a: Vec<u64> = sample(batch * t.n(), t.q());
            let fused = fs.forward_batch(&a, batch);
            let looped: Vec<u64> = a.chunks(t.n()).flat_map(|p| fs.forward(p)).collect();
            assert_eq!(fused, looped, "logn={logn} r={r} batch={batch}");
            assert_eq!(
                fs.inverse_batch(&fused, batch),
                a,
                "roundtrip logn={logn} r={r} batch={batch}"
            );
            let inv_looped: Vec<u64> = fused.chunks(t.n()).flat_map(|p| fs.inverse(p)).collect();
            assert_eq!(fs.inverse_batch(&fused, batch), inv_looped);
        }
    }

    #[test]
    fn matmul_mod_par_matches_serial() {
        let q = 268_369_921u64;
        // One shape under the parallel threshold, one above it.
        for (m, k, n) in [(8usize, 8usize, 8usize), (64, 64, 64)] {
            let a = sample(m * k, q);
            let b: Vec<u64> = sample(k * n, q).iter().map(|&x| (x * 5 + 2) % q).collect();
            assert_eq!(
                matmul_mod_par(&a, &b, m, k, n, q),
                matmul_mod(&a, &b, m, k, n, q),
                "{m}x{k}x{n}"
            );
        }
    }
}
