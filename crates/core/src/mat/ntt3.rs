//! The layout-invariant 3-step negacyclic NTT (paper Fig. 10, rows 2–3).
//!
//! Starting from the 4-step factorization (`N = R·C`, input reshaped
//! row-major to `R×C` — a free reinterpretation, no data movement):
//!
//! 1. **Step 1** (MXU): `X = W_R @ A`, where
//!    `W_R[k₁][r] = ψ^{C·r·(2k₁+1)}` — column-wise negacyclic `R`-NTTs.
//! 2. **Step 2** (VPU): `X ∘ T`, `T[k₁][c] = ψ^{(2k₁+1)·c}`.
//! 3. **Step 3** (MXU): `Y = (X∘T) @ W_C`, `W_C[c][k₂] = ψ^{2R·c·k₂}`.
//!
//! MAT's *transpose elimination*: the baseline 4-step transposes `X∘T`
//! and left-multiplies `W_Cᵀ`; by `(A@B)ᵀ = Bᵀ@Aᵀ` and the symmetry
//! `W_Cᵀ = W_C`, step 3 right-multiplies instead — no transpose, the
//! data never leaves its `R×C` tile. Output: `Y[k₁][k₂] = â[k₁+k₂·R]`.
//!
//! MAT's *bit-reverse elimination*: with `k = k₁+k₂R`,
//! `bitrev_N(k) = bitrev_R(k₁)·C + bitrev_C(k₂)`, so row-permuting
//! `W_R`/`T` by `bitrev_R` and column-permuting `W_C` by `bitrev_C` —
//! all offline — makes the flattened output *exactly* the bit-reversed
//! order of the radix-2 butterfly NTT, at zero runtime cost.
//!
//! Both matmuls lower through BAT (int8 MXU); step 2 and the
//! post-matmul reductions run on the VPU under the configured
//! [`ModRed`] strategy. Under `ModRed::Shoup` (incompatible with BAT,
//! §V-F2) the matmuls fall back to VPU mat-vec chains.

use crate::bat::matmul::{BatMatMul, BatMatMulRight};
use crate::mat::{matmul_mod, matmul_mod_par, perm};
use crate::modred::ModRed;
use cross_math::bitrev::bit_reverse_permutation;
use cross_math::modops::{inv_mod, mul_mod};
use cross_poly::NttTables;
use cross_tpu::{Category, TpuSim};
use std::sync::Arc;

/// Configuration of a 3-step NTT plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ntt3Config {
    /// Row factor `R` (power of two).
    pub r: usize,
    /// Column factor `C` (power of two), `R·C = N`.
    pub c: usize,
    /// Modular-reduction strategy (Fig. 13 ablation).
    pub modred: ModRed,
    /// Embed the bit-reversal permutation offline so the flattened
    /// output matches the radix-2 butterfly layout exactly.
    pub embed_bitrev: bool,
}

/// An offline-compiled, layout-invariant 3-step negacyclic NTT.
#[derive(Debug, Clone)]
pub struct Ntt3Plan {
    tables: Arc<NttTables>,
    cfg: Ntt3Config,
    // ---- forward parameters (plain u64 domain) ----
    w_r: Vec<u64>,
    step2: Vec<u64>,
    w_c: Vec<u64>,
    // ---- inverse parameters ----
    v_c: Vec<u64>,
    inv_step2: Vec<u64>,
    v_r: Vec<u64>,
    // ---- BAT-compiled forms (absent under Shoup) ----
    bat_w_r: Option<BatMatMul>,
    bat_w_c: Option<BatMatMulRight>,
    bat_v_c: Option<BatMatMulRight>,
    bat_v_r: Option<BatMatMul>,
}

impl Ntt3Plan {
    /// Compiles the plan offline.
    ///
    /// # Panics
    /// Panics if `r·c != N` or the factors are not powers of two.
    pub fn new(tables: Arc<NttTables>, cfg: Ntt3Config) -> Self {
        let n = tables.n();
        let (r, c) = (cfg.r, cfg.c);
        assert_eq!(r * c, n, "factorization must satisfy R*C = N");
        assert!(r.is_power_of_two() && c.is_power_of_two());
        let q = tables.q();
        let two_n = 2 * n as u64;
        let r_inv = inv_mod(r as u64, q).expect("R invertible");
        let c_inv = inv_mod(c as u64, q).expect("C invertible");

        // Forward matrices.
        let mut w_r = vec![0u64; r * r];
        for k1 in 0..r {
            for rr in 0..r {
                let e = (c as u64 * rr as u64 % two_n) * (2 * k1 as u64 + 1) % two_n;
                w_r[k1 * r + rr] = tables.psi_power(e);
            }
        }
        let mut step2 = vec![0u64; r * c];
        for k1 in 0..r {
            for cc in 0..c {
                step2[k1 * c + cc] = tables.psi_power((2 * k1 as u64 + 1) * cc as u64 % two_n);
            }
        }
        let mut w_c = vec![0u64; c * c];
        for cc in 0..c {
            for k2 in 0..c {
                let e = 2 * r as u64 * cc as u64 % two_n * k2 as u64 % two_n;
                w_c[cc * c + k2] = tables.psi_power(e);
            }
        }

        // Inverse matrices (scales folded offline).
        let mut v_c = vec![0u64; c * c];
        for k2 in 0..c {
            for cc in 0..c {
                let e = 2 * r as u64 * cc as u64 % two_n * k2 as u64 % two_n;
                v_c[k2 * c + cc] = mul_mod(c_inv, tables.psi_inv_power(e), q);
            }
        }
        let mut inv_step2 = vec![0u64; r * c];
        for k1 in 0..r {
            for cc in 0..c {
                inv_step2[k1 * c + cc] =
                    tables.psi_inv_power((2 * k1 as u64 + 1) * cc as u64 % two_n);
            }
        }
        let mut v_r = vec![0u64; r * r];
        for rr in 0..r {
            for k1 in 0..r {
                let e = (c as u64 * rr as u64 % two_n) * (2 * k1 as u64 + 1) % two_n;
                v_r[rr * r + k1] = mul_mod(r_inv, tables.psi_inv_power(e), q);
            }
        }

        // MAT bit-reverse embedding: offline row/column permutations.
        let (w_r, step2, w_c, v_c, inv_step2, v_r) = if cfg.embed_bitrev {
            let pr = bit_reverse_permutation(r);
            let pc = bit_reverse_permutation(c);
            (
                perm::permute_rows(&w_r, r, r, &pr),
                perm::permute_rows(&step2, r, c, &pr),
                perm::permute_cols(&w_c, c, c, &pc),
                perm::permute_rows(&v_c, c, c, &pc),
                perm::permute_rows(&inv_step2, r, c, &pr),
                perm::permute_cols(&v_r, r, r, &pr),
            )
        } else {
            (w_r, step2, w_c, v_c, inv_step2, v_r)
        };

        // BAT compilation (skipped for Shoup, §V-F2 setup).
        let (bat_w_r, bat_w_c, bat_v_c, bat_v_r) = if cfg.modred.supports_bat() {
            (
                Some(BatMatMul::compile(&w_r, r, r, q, 8)),
                Some(BatMatMulRight::compile(&w_c, c, c, q, 8)),
                Some(BatMatMulRight::compile(&v_c, c, c, q, 8)),
                Some(BatMatMul::compile(&v_r, r, r, q, 8)),
            )
        } else {
            (None, None, None, None)
        };

        Self {
            tables,
            cfg,
            w_r,
            step2,
            w_c,
            v_c,
            inv_step2,
            v_r,
            bat_w_r,
            bat_w_c,
            bat_v_c,
            bat_v_r,
        }
    }

    /// The bound twiddle tables.
    pub fn tables(&self) -> &Arc<NttTables> {
        &self.tables
    }

    /// Total bytes of offline-compiled parameters (for DMA accounting).
    pub(crate) fn param_bytes(&self) -> usize {
        let bat = self.bat_w_r.as_ref().map_or(0, |b| b.param_bytes())
            + self.bat_w_c.as_ref().map_or(0, |b| b.param_bytes());
        bat + self.step2.len() * 4
    }

    // ------------------------------------------------------------------
    // Reference (CPU) execution — also the "CROSS for CPU" row of
    // Tab. VIII: the same O(N√N) schedule on plain matmuls.
    // ------------------------------------------------------------------

    /// Forward transform, pure CPU. Output is the plan's layout:
    /// flattened `R×C` row-major (`= bit-reversed â` when
    /// `embed_bitrev`, digit-tiled otherwise).
    pub fn forward_reference(&self, a: &[u64]) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        assert_eq!(a.len(), r * c);
        let x = matmul_mod(&self.w_r, a, r, r, c, q);
        let x2: Vec<u64> = x
            .iter()
            .zip(&self.step2)
            .map(|(&v, &t)| mul_mod(v, t, q))
            .collect();
        matmul_mod(&x2, &self.w_c, r, c, c, q)
    }

    /// Inverse transform, pure CPU; accepts the plan layout, returns
    /// natural-order coefficients.
    pub fn inverse_reference(&self, y: &[u64]) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        assert_eq!(y.len(), r * c);
        let z = matmul_mod(y, &self.v_c, r, c, c, q);
        let x: Vec<u64> = z
            .iter()
            .zip(&self.inv_step2)
            .map(|(&v, &t)| mul_mod(v, t, q))
            .collect();
        matmul_mod(&self.v_r, &x, r, r, c, q)
    }

    // ------------------------------------------------------------------
    // Batched execution (CPU reference + TPU) — the Fig. 11b unit of
    // work. Inputs hold `batch` polynomials back-to-back
    // (`a[b·N .. (b+1)·N]` is polynomial `b` in the plan layout); all
    // batched paths are bit-identical to looping the single-polynomial
    // entry points.
    // ------------------------------------------------------------------

    /// Column-stacks `batch` row-major `R×C` polynomials into one
    /// `R × C·batch` matrix (`stk[k1][b·C+cc] = a_b[k1·C+cc]`) — the
    /// streamed dimension of the fused step-1 matmul.
    fn col_stack(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let (r, c) = (self.cfg.r, self.cfg.c);
        let (n, cb) = (r * c, c * batch);
        let mut stk = vec![0u64; r * cb];
        for b in 0..batch {
            for k1 in 0..r {
                stk[k1 * cb + b * c..k1 * cb + b * c + c]
                    .copy_from_slice(&a[b * n + k1 * c..b * n + k1 * c + c]);
            }
        }
        stk
    }

    /// Undoes [`Ntt3Plan::col_stack`]: `R × C·batch` back to
    /// `batch` contiguous `R×C` polynomials.
    fn col_unstack(&self, stk: &[u64], batch: usize) -> Vec<u64> {
        let (r, c) = (self.cfg.r, self.cfg.c);
        let (n, cb) = (r * c, c * batch);
        let mut out = vec![0u64; batch * n];
        for b in 0..batch {
            for k1 in 0..r {
                out[b * n + k1 * c..b * n + k1 * c + c]
                    .copy_from_slice(&stk[k1 * cb + b * c..k1 * cb + b * c + c]);
            }
        }
        out
    }

    /// Forward transform of a batch, pure CPU (parallel matmuls): one
    /// fused `W_R @ [A₀|A₁|…]` over the `C·batch` streamed dimension,
    /// tiled step-2 twiddles, relayout, one fused `[X₀;X₁;…] @ W_C`.
    pub fn forward_batch_reference(&self, a: &[u64], batch: usize) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        let n = r * c;
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        let (cb, rb) = (c * batch, r * batch);
        let stk = self.col_stack(a, batch);
        let x = matmul_mod_par(&self.w_r, &stk, r, r, cb, q);
        // Step 2: twiddles tile across the batch blocks of each row.
        let mut x2 = vec![0u64; r * cb];
        for k1 in 0..r {
            for b in 0..batch {
                for cc in 0..c {
                    x2[k1 * cb + b * c + cc] =
                        mul_mod(x[k1 * cb + b * c + cc], self.step2[k1 * c + cc], q);
                }
            }
        }
        // Relayout: column-stacked R×(C·B) → row-stacked (R·B)×C, rows
        // batch-major so the fused right-matmul output lands
        // polynomial-contiguous.
        let row_stacked = self.col_unstack(&x2, batch);
        matmul_mod_par(&row_stacked, &self.w_c, rb, c, c, q)
    }

    /// Inverse transform of a batch, pure CPU; accepts the plan layout,
    /// returns natural-order coefficients per polynomial.
    #[cfg(test)]
    pub(crate) fn inverse_batch_reference(&self, y: &[u64], batch: usize) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        let n = r * c;
        assert_eq!(y.len(), batch * n, "batch shape mismatch");
        let (cb, rb) = (c * batch, r * batch);
        // The contiguous input IS the row-stacked (R·B)×C matrix.
        let z = matmul_mod_par(y, &self.v_c, rb, c, c, q);
        // Tiled inverse step-2 twiddles (row-stacked layout is
        // polynomial-contiguous, so the table tiles with period N).
        let x: Vec<u64> = z
            .iter()
            .enumerate()
            .map(|(i, &v)| mul_mod(v, self.inv_step2[i % n], q))
            .collect();
        // Relayout to column-stacked for the fused left-matmul.
        let xc = self.col_stack(&x, batch);
        let w = matmul_mod_par(&self.v_r, &xc, r, r, cb, q);
        self.col_unstack(&w, batch)
    }

    // ------------------------------------------------------------------
    // TPU execution (functional + cost)
    // ------------------------------------------------------------------

    /// Forward transform on the simulator (one polynomial).
    pub fn forward_on_tpu(&self, sim: &mut TpuSim, a: &[u64]) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        assert_eq!(a.len(), r * c);
        let x = match &self.bat_w_r {
            Some(bat) => bat.execute(sim, a, c, Category::NttMatMul),
            None => self.vpu_matmul(sim, &self.w_r, a, r, r, c, q, Category::NttMatMul),
        };
        let x2 = self.mul_twiddles(sim, &x, |i| self.step2[i]);
        match &self.bat_w_c {
            Some(bat) => bat.execute(sim, &x2, r, Category::NttMatMul),
            None => self.vpu_matmul(sim, &x2, &self.w_c, r, c, c, q, Category::NttMatMul),
        }
    }

    /// Inverse transform on the simulator (one polynomial).
    pub fn inverse_on_tpu(&self, sim: &mut TpuSim, y: &[u64]) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        assert_eq!(y.len(), r * c);
        let z = match &self.bat_v_c {
            Some(bat) => bat.execute(sim, y, r, Category::InttMatMul),
            None => self.vpu_matmul(sim, y, &self.v_c, r, c, c, q, Category::InttMatMul),
        };
        let x = self.mul_twiddles(sim, &z, |i| self.inv_step2[i]);
        match &self.bat_v_r {
            Some(bat) => bat.execute(sim, &x, c, Category::InttMatMul),
            None => self.vpu_matmul(sim, &self.v_r, &x, r, r, c, q, Category::InttMatMul),
        }
    }

    /// Forward transform of a batch on the simulator: the MAT 3-step
    /// matmuls execute **once per batch** with the `C·batch` streamed
    /// dimension — exactly the shapes
    /// [`Ntt3Plan::charge_forward_batch`] charges. Bit-identical to
    /// looping [`Ntt3Plan::forward_on_tpu`].
    pub fn forward_batch_on_tpu(&self, sim: &mut TpuSim, a: &[u64], batch: usize) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        let n = r * c;
        assert_eq!(a.len(), batch * n, "batch shape mismatch");
        let (cb, rb) = (c * batch, r * batch);
        let stk = self.col_stack(a, batch);
        let x = match &self.bat_w_r {
            Some(bat) => bat.execute(sim, &stk, cb, Category::NttMatMul),
            None => self.vpu_matmul(sim, &self.w_r, &stk, r, r, cb, q, Category::NttMatMul),
        };
        // Step-2 twiddles tile across the batch blocks of each row.
        let x2 = self.mul_twiddles(sim, &x, |i| self.step2[i / cb * c + i % c]);
        // Relayout from column-stacked to row-stacked batching.
        sim.charge_reshape((n * batch * 4) as f64, Category::CopyReshape);
        let row_stacked = self.col_unstack(&x2, batch);
        match &self.bat_w_c {
            Some(bat) => bat.execute(sim, &row_stacked, rb, Category::NttMatMul),
            None => self.vpu_matmul(
                sim,
                &row_stacked,
                &self.w_c,
                rb,
                c,
                c,
                q,
                Category::NttMatMul,
            ),
        }
    }

    /// Inverse transform of a batch on the simulator (mirror of
    /// [`Ntt3Plan::forward_batch_on_tpu`]); bit-identical to looping
    /// [`Ntt3Plan::inverse_on_tpu`].
    pub fn inverse_batch_on_tpu(&self, sim: &mut TpuSim, y: &[u64], batch: usize) -> Vec<u64> {
        let (r, c, q) = (self.cfg.r, self.cfg.c, self.tables.q());
        let n = r * c;
        assert_eq!(y.len(), batch * n, "batch shape mismatch");
        let (cb, rb) = (c * batch, r * batch);
        // The contiguous input IS the row-stacked (R·B)×C matrix.
        let z = match &self.bat_v_c {
            Some(bat) => bat.execute(sim, y, rb, Category::InttMatMul),
            None => self.vpu_matmul(sim, y, &self.v_c, rb, c, c, q, Category::InttMatMul),
        };
        // Row-stacked layout is polynomial-contiguous: the inverse
        // twiddle table tiles with period N.
        let x = self.mul_twiddles(sim, &z, |i| self.inv_step2[i % n]);
        sim.charge_reshape((n * batch * 4) as f64, Category::CopyReshape);
        let xc = self.col_stack(&x, batch);
        let w = match &self.bat_v_r {
            Some(bat) => bat.execute(sim, &xc, cb, Category::InttMatMul),
            None => self.vpu_matmul(sim, &self.v_r, &xc, r, r, cb, q, Category::InttMatMul),
        };
        self.col_unstack(&w, batch)
    }

    /// Step 2 on the simulator, `x[i]·twiddle(i) mod q`: charged as
    /// the configured [`ModRed`]'s VecModMul, computed as
    /// [`Ntt3Plan::forward_reference`] computes it.
    fn mul_twiddles(
        &self,
        sim: &mut TpuSim,
        x: &[u64],
        twiddle: impl Fn(usize) -> u64,
    ) -> Vec<u64> {
        let q = self.tables.q();
        self.cfg
            .modred
            .charge_vec_mod_mul(sim, x.len(), q, Category::VecModOps);
        x.iter()
            .enumerate()
            .map(|(i, &v)| mul_mod(v, twiddle(i), q))
            .collect()
    }

    /// VPU fallback matmul (Shoup path): a chain of `k` vectorized
    /// multiply-accumulates — no MXU, the cost the ablation measures.
    #[allow(clippy::too_many_arguments)]
    fn vpu_matmul(
        &self,
        sim: &mut TpuSim,
        a: &[u64],
        b: &[u64],
        m: usize,
        k: usize,
        n: usize,
        q: u64,
        cat: Category,
    ) -> Vec<u64> {
        sim.charge_vpu(
            m * n,
            k as u32 * (self.cfg.modred.vpu_ops() + 2),
            cat,
            "vpu matmul chain",
        );
        matmul_mod(a, b, m, k, n, q)
    }

    // ------------------------------------------------------------------
    // Cost-only batched estimation
    // ------------------------------------------------------------------

    /// Charges the cost of `batch` forward NTTs executed as one fused
    /// kernel (column-stacked step 1, row-stacked step 3, one relayout
    /// between them), plus the one-time parameter DMA.
    pub fn charge_forward_batch(&self, sim: &mut TpuSim, batch: usize) {
        let (r, c) = (self.cfg.r, self.cfg.c);
        let n = r * c;
        let k = crate::bat::chunk::chunk_count(self.tables.q(), 8);
        // One-time parameter load from HBM.
        sim.dma_in(self.param_bytes() as f64, "ntt twiddle params");
        // Input/output streaming for the batch.
        sim.dma_in((batch * n * 4) as f64, "ntt inputs");
        sim.dma_out((batch * n * 4) as f64, "ntt outputs");
        match &self.bat_w_r {
            Some(bat) => bat.charge(sim, c * batch, Category::NttMatMul),
            None => sim.charge_vpu(
                r * c * batch,
                r as u32 * (self.cfg.modred.vpu_ops() + 2),
                Category::NttMatMul,
                "vpu matmul chain",
            ),
        }
        sim.charge_vpu(
            n * batch,
            self.cfg.modred.vpu_ops(),
            Category::VecModOps,
            "step2 twiddle",
        );
        // Relayout from column-stacked to row-stacked batching.
        sim.charge_reshape((n * batch * 4) as f64, Category::CopyReshape);
        match &self.bat_w_c {
            Some(bat) => bat.charge(sim, r * batch, Category::NttMatMul),
            None => sim.charge_vpu(
                r * c * batch,
                c as u32 * (self.cfg.modred.vpu_ops() + 2),
                Category::NttMatMul,
                "vpu matmul chain",
            ),
        }
        // Working set: params + batch in/out/intermediate.
        let ws = self.param_bytes() as f64 + (3 * batch * n * 4) as f64 + (n * k * batch) as f64;
        sim.spill_check(ws, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;
    use cross_poly::ntt;
    use cross_poly::rns_poly::{RnsContext, RnsPoly};
    use cross_poly::PolyBatch;
    use cross_tpu::TpuGeneration;

    fn tables(logn: u32) -> Arc<NttTables> {
        let n = 1usize << logn;
        Arc::new(NttTables::new(
            n,
            primes::ntt_prime(28, n as u64, 0).unwrap(),
        ))
    }

    fn cfg(r: usize, c: usize, modred: ModRed, embed: bool) -> Ntt3Config {
        Ntt3Config {
            r,
            c,
            modred,
            embed_bitrev: embed,
        }
    }

    fn sample(n: usize, q: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761 + 11) % q).collect()
    }

    #[test]
    fn digit_tiled_layout_semantics() {
        // Without bitrev embedding: out[k1*C + k2] == â[k1 + k2*R].
        let t = tables(6);
        let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, ModRed::Montgomery, false));
        let a = sample(t.n(), t.q());
        let got = plan.forward_reference(&a);
        let naive = ntt::naive_forward(&a, &t);
        for k1 in 0..8 {
            for k2 in 0..8 {
                assert_eq!(got[k1 * 8 + k2], naive[k1 + k2 * 8], "k1={k1} k2={k2}");
            }
        }
    }

    #[test]
    fn bitrev_embedding_matches_butterfly_layout() {
        // MAT's headline: the flattened output IS the radix-2 CT layout.
        for (logn, r) in [(6u32, 8usize), (8, 16), (10, 32)] {
            let t = tables(logn);
            let c = t.n() / r;
            let plan = Ntt3Plan::new(t.clone(), cfg(r, c, ModRed::Montgomery, true));
            let a = sample(t.n(), t.q());
            let got = plan.forward_reference(&a);
            let mut ct = a.clone();
            ntt::forward_inplace(&mut ct, &t);
            assert_eq!(got, ct, "logn={logn} r={r}");
        }
    }

    #[test]
    fn roundtrip_all_layouts() {
        for embed in [false, true] {
            let t = tables(8);
            let plan = Ntt3Plan::new(t.clone(), cfg(16, 16, ModRed::Montgomery, embed));
            let a = sample(t.n(), t.q());
            assert_eq!(
                plan.inverse_reference(&plan.forward_reference(&a)),
                a,
                "embed={embed}"
            );
        }
    }

    #[test]
    fn tpu_execution_matches_reference() {
        for modred in [ModRed::Montgomery, ModRed::Barrett, ModRed::Shoup] {
            let t = tables(6);
            let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, modred, true));
            let a = sample(t.n(), t.q());
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            let got = plan.forward_on_tpu(&mut sim, &a);
            assert_eq!(got, plan.forward_reference(&a), "{modred:?}");
            let back = plan.inverse_on_tpu(&mut sim, &got);
            assert_eq!(back, a, "{modred:?}");
        }
    }

    #[test]
    fn pointwise_product_in_plan_layout() {
        // Layout invariance: multiply two transforms pointwise in the
        // plan's own layout, inverse-transform, compare to schoolbook.
        let t = tables(6);
        let q = t.q();
        let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, ModRed::Montgomery, false));
        let a = sample(t.n(), q);
        let b: Vec<u64> = sample(t.n(), q).iter().map(|&x| (x * 7 + 3) % q).collect();
        let fa = plan.forward_reference(&a);
        let fb = plan.forward_reference(&b);
        let prod: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| mul_mod(x, y, q))
            .collect();
        let got = plan.inverse_reference(&prod);
        // Oracle through the radix-2 butterflies.
        let (mut fa2, mut fb2) = (a.clone(), b.clone());
        ntt::forward_inplace(&mut fa2, &t);
        ntt::forward_inplace(&mut fb2, &t);
        let mut prod2: Vec<u64> = fa2
            .iter()
            .zip(&fb2)
            .map(|(&x, &y)| mul_mod(x, y, q))
            .collect();
        ntt::inverse_inplace(&mut prod2, &t);
        assert_eq!(got, prod2);
    }

    #[test]
    fn shoup_plan_skips_bat() {
        let t = tables(6);
        let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, ModRed::Shoup, false));
        assert!(plan.bat_w_r.is_none());
    }

    #[test]
    fn shoup_costs_more_than_bat_at_realistic_sizes() {
        // At paper-scale factorizations the MXU path wins; at toy sizes
        // MXU padding can invert this, so test at N=2^10 (Fig. 13b).
        let t = tables(10);
        let a = sample(t.n(), t.q());
        let mut s_shoup = TpuSim::new(TpuGeneration::V6e);
        let plan_shoup = Ntt3Plan::new(t.clone(), cfg(32, 32, ModRed::Shoup, false));
        let _ = plan_shoup.forward_on_tpu(&mut s_shoup, &a);
        let mut s_bat = TpuSim::new(TpuGeneration::V6e);
        let plan_bat = Ntt3Plan::new(t.clone(), cfg(32, 32, ModRed::Montgomery, false));
        let _ = plan_bat.forward_on_tpu(&mut s_bat, &a);
        assert!(
            s_shoup.compute_seconds() > s_bat.compute_seconds(),
            "shoup {} vs bat {}",
            s_shoup.compute_seconds(),
            s_bat.compute_seconds()
        );
    }

    #[test]
    fn rejects_bad_factorization() {
        let t = tables(6);
        let result =
            std::panic::catch_unwind(|| Ntt3Plan::new(t, cfg(8, 16, ModRed::Montgomery, false)));
        assert!(result.is_err());
    }

    #[test]
    fn batched_reference_bit_exact_with_loop() {
        for (embed, batch) in [(false, 1usize), (false, 4), (true, 3), (true, 8)] {
            let t = tables(6);
            let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, ModRed::Montgomery, embed));
            let a = sample(batch * t.n(), t.q());
            let fused = plan.forward_batch_reference(&a, batch);
            let looped: Vec<u64> = a
                .chunks(t.n())
                .flat_map(|p| plan.forward_reference(p))
                .collect();
            assert_eq!(fused, looped, "embed={embed} batch={batch}");
            assert_eq!(
                plan.inverse_batch_reference(&fused, batch),
                a,
                "roundtrip embed={embed} batch={batch}"
            );
        }
    }

    #[test]
    fn batched_tpu_bit_exact_with_loop_all_modreds() {
        for modred in [ModRed::Montgomery, ModRed::Barrett, ModRed::Shoup] {
            let t = tables(6);
            let plan = Ntt3Plan::new(t.clone(), cfg(8, 8, modred, true));
            let batch = 5usize;
            let a = sample(batch * t.n(), t.q());
            let mut s_fused = TpuSim::new(TpuGeneration::V6e);
            let fused = plan.forward_batch_on_tpu(&mut s_fused, &a, batch);
            let mut s_loop = TpuSim::new(TpuGeneration::V6e);
            let looped: Vec<u64> = a
                .chunks(t.n())
                .flat_map(|p| plan.forward_on_tpu(&mut s_loop, p))
                .collect();
            assert_eq!(fused, looped, "{modred:?}");
            let mut s_inv = TpuSim::new(TpuGeneration::V6e);
            assert_eq!(
                plan.inverse_batch_on_tpu(&mut s_inv, &fused, batch),
                a,
                "{modred:?} roundtrip"
            );
        }
    }

    #[test]
    fn batched_charge_matches_functional_compute() {
        // `charge_forward_batch` and the functional batched path must
        // account identical compute shapes (DMA/spill is extra on the
        // charge side, which models the full fused kernel).
        let t = tables(8);
        let plan = Ntt3Plan::new(t.clone(), cfg(16, 16, ModRed::Montgomery, true));
        let batch = 4usize;
        let a = sample(batch * t.n(), t.q());
        let mut s_fn = TpuSim::new(TpuGeneration::V6e);
        let _ = plan.forward_batch_on_tpu(&mut s_fn, &a, batch);
        let mut s_ch = TpuSim::new(TpuGeneration::V6e);
        plan.charge_forward_batch(&mut s_ch, batch);
        let d = (s_fn.compute_seconds() - s_ch.compute_seconds()).abs();
        assert!(d < 1e-12, "compute mismatch {d}");
    }

    /// An `l`-limb batch of `batch` polynomials of degree `2^logn`,
    /// with one bitrev-embedded `(r, c)` plan per limb modulus.
    fn rns_setup(
        logn: u32,
        l: usize,
        batch: usize,
        rc: Option<(usize, usize)>,
    ) -> (PolyBatch, Vec<Ntt3Plan>) {
        let n = 1usize << logn;
        let moduli = primes::ntt_prime_chain(28, n as u64, l).unwrap();
        let ctx = Arc::new(RnsContext::new(n, moduli));
        let polys: Vec<RnsPoly> = (0..batch as i64)
            .map(|b| {
                let coeffs: Vec<i64> = (0..n as i64).map(|j| (j * 11 + b * 29) % 83 - 41).collect();
                RnsPoly::from_signed_coeffs(ctx.clone(), &coeffs)
            })
            .collect();
        let (r, c) = rc.unwrap_or_else(|| crate::plan::standalone_ntt_rc(n));
        let plans = ctx
            .tables()
            .iter()
            .map(|t| Ntt3Plan::new(t.clone(), cfg(r, c, ModRed::Montgomery, true)))
            .collect();
        (PolyBatch::from_polys(&polys), plans)
    }

    #[test]
    fn rns_batch_reference_matches_host_to_evaluation() {
        // With bitrev embedded, each limb's compiled matmul pipeline is
        // bit-identical to the host engine over the whole RNS batch.
        for logn in [6, 7] {
            let (pb, plans) = rns_setup(logn, 3, 4, None);
            let mut fwd = pb.clone();
            fwd.to_evaluation();
            for (i, plan) in plans.iter().enumerate() {
                let want = plan.forward_batch_reference(&pb.limbs()[i], pb.batch());
                assert_eq!(fwd.limbs()[i], want, "logn {logn} limb {i}");
                let back = plan.inverse_batch_reference(&fwd.limbs()[i], pb.batch());
                assert_eq!(back, pb.limbs()[i], "logn {logn} limb {i}");
            }
        }
    }

    #[test]
    fn rns_batch_tpu_path_matches_host() {
        let (pb, plans) = rns_setup(6, 2, 3, Some((8, 8)));
        let mut fwd = pb.clone();
        fwd.to_evaluation();
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        for (i, plan) in plans.iter().enumerate() {
            let tpu = plan.forward_batch_on_tpu(&mut sim, &pb.limbs()[i], pb.batch());
            assert_eq!(tpu, fwd.limbs()[i], "limb {i}");
            let back = plan.inverse_batch_on_tpu(&mut sim, &tpu, pb.batch());
            assert_eq!(back, pb.limbs()[i], "limb {i}");
        }
        assert!(sim.compute_seconds() > 0.0);
    }

    #[test]
    fn rns_batch_charge_matches_functional_compute() {
        let (pb, plans) = rns_setup(6, 2, 4, Some((8, 8)));
        let mut s_fn = TpuSim::new(TpuGeneration::V6e);
        let mut s_ch = TpuSim::new(TpuGeneration::V6e);
        for (plan, limb) in plans.iter().zip(pb.limbs()) {
            let _ = plan.forward_batch_on_tpu(&mut s_fn, limb, pb.batch());
            plan.charge_forward_batch(&mut s_ch, pb.batch());
        }
        let d = (s_fn.compute_seconds() - s_ch.compute_seconds()).abs();
        assert!(d < 1e-12, "compute mismatch {d}");
    }

    #[test]
    fn batch_amortizes_mxu_padding() {
        // Fig. 11b's mechanism: at small C the streamed dimension of the
        // step-1 matmul underfills the MXU; fusing the batch widens it,
        // so per-polynomial simulated cost drops.
        let t = tables(10);
        let plan = Ntt3Plan::new(t.clone(), cfg(32, 32, ModRed::Montgomery, true));
        let a1 = sample(t.n(), t.q());
        let mut s1 = TpuSim::new(TpuGeneration::V6e);
        let _ = plan.forward_batch_on_tpu(&mut s1, &a1, 1);
        let batch = 16usize;
        let ab = sample(batch * t.n(), t.q());
        let mut sb = TpuSim::new(TpuGeneration::V6e);
        let _ = plan.forward_batch_on_tpu(&mut sb, &ab, batch);
        let per_poly_batched = sb.compute_seconds() / batch as f64;
        assert!(
            per_poly_batched < s1.compute_seconds(),
            "batched {per_poly_batched} vs single {}",
            s1.compute_seconds()
        );
    }
}
