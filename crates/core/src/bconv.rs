//! Basis Conversion lowered through BAT (paper §IV-A3b, Fig. 8, Tab. VI).
//!
//! BConv is the two-step kernel of Fig. 15b:
//!
//! 1. `L×N`-VecModMul by `[q̂_i^{-1}]_{q_i}` (VPU),
//! 2. `(N, L, L')`-ModMatMul against the preknown prime matrix
//!    `[q̂_i]_{p_j}` — high-precision on the baseline (VPU-bound), or a
//!    dense `(N, KL, KL')` int8 matmul on the MXU after BAT.
//!
//! Step 2's modulus varies **per output column** (`p_j`), which Alg. 2
//! handles naturally: each `K×K` block of the dense matrix is compiled
//! with its own column modulus.
//!
//! The host kernel ([`BconvKernel::convert_slices`]) has BAT step 2's
//! shape too: per output it sums raw `b_i·[q̂_i]_{p_j}` products in a
//! `u64` and reduces **once**, where the oracle
//! ([`BconvKernel::convert_reference`]) folds after every
//! multiply-accumulate — same residue, canonical form, same bits.

use crate::bat::{chunk, scalar};
use crate::modred::ModRed;
use cross_math::modops;
use cross_math::rns::BconvTable;
use cross_math::shoup::{self, ShoupPairs};
#[cfg(test)]
use {
    cross_poly::{ring::Domain, PolyBatch},
    cross_tpu::{Category, TpuSim},
};

/// Byte chunks per word of the BAT-dense step-2 matrix.
const K: usize = 4;

/// A BConv kernel compiled for one `(source, target)` basis pair at a
/// fixed degree.
#[derive(Debug, Clone)]
pub struct BconvKernel {
    n: usize,
    l: usize,
    l_out: usize,
    source: Vec<u64>,
    target: Vec<u64>,
    /// Step-1 multipliers as Shoup pairs, one per source limb `i`
    /// (`[q̂_i^{-1}]_{q_i}` wrt `q_i`) — the host fast path.
    qhat_inv_shoup: ShoupPairs,
    /// BAT-dense step-2 matrix, `(K·L) × (K·L')` bytes, row-major.
    m_dense: Vec<u8>,
    /// Step-2 matrix for the host paths, one Shoup table per *output*
    /// column `j` (`[q̂_i]_{p_j}` over `i`, wrt `p_j`).
    m_cols: Vec<ShoupPairs>,
    /// Barrett constants `⌊2⁶⁴/p_j⌋` per output column.
    target_mu: Vec<u64>,
    /// How many raw `b_i·[q̂_i]_{p_j}` products (plus a carried-in
    /// residue) provably fit one `u64` accumulator:
    /// `⌊(2⁶⁴−1)/(max q_i · max p_j)⌋` — 256 for 28-bit chains, ≥ 4
    /// below 2³¹, ≥ 1 for anything `compile` accepts.
    acc_terms: usize,
}

/// Rows per block of [`BconvKernel::convert_slices`]: the step-1
/// products of one block (`L × 256` words) stay L1-resident while
/// every output column reads them.
const BLOCK_ROWS: usize = 256;

impl BconvKernel {
    /// Compiles the kernel from a precomputed [`BconvTable`]. The
    /// kernel is the same under every [`ModRed`]: the host reductions
    /// are fixed, and the modeled cost is
    /// `cross_ckks::costs::charge_bconv`'s.
    ///
    /// # Panics
    /// Panics if any modulus needs more than `K = 4` byte chunks.
    pub fn compile(table: &BconvTable, n: usize, _modred: ModRed) -> Self {
        let source = table.source().to_vec();
        let target = table.target().to_vec();
        let (l, l_out) = (source.len(), target.len());
        for &m in source.iter().chain(&target) {
            assert!(
                chunk::chunk_count(m, 8) <= K,
                "moduli must fit K=4 byte chunks"
            );
        }
        let qhat_inv = table.qhat_inv().to_vec();
        let mut qhat_inv_shoup = ShoupPairs::with_capacity(l);
        for (i, &qi) in source.iter().enumerate() {
            qhat_inv_shoup.push(qhat_inv[i], qi);
        }
        let (kl, klo) = (K * l, K * l_out);
        let mut m_dense = vec![0u8; kl * klo];
        let mut m_cols: Vec<ShoupPairs> =
            (0..l_out).map(|_| ShoupPairs::with_capacity(l)).collect();
        for i in 0..l {
            for j in 0..l_out {
                let pj = target[j];
                let w = table.qhat_mod_p(i, j);
                m_cols[j].push(w % pj, pj);
                // K×K block for entry (i, j) under column modulus p_j:
                // dense[(i·K+kk), (j·K+t)] = chunk_t((w << kk·8) mod p_j).
                let m = scalar::direct_scalar_bat(w % pj, K, 8, pj);
                for kk in 0..K {
                    for t in 0..K {
                        m_dense[(i * K + kk) * klo + (j * K + t)] = m[t][kk] as u8;
                    }
                }
            }
        }
        let max_of = |ms: &[u64]| ms.iter().copied().max().unwrap_or(1);
        let acc_terms = (u64::MAX / (max_of(&source) * max_of(&target))) as usize;
        Self {
            n,
            l,
            l_out,
            target_mu: target.iter().map(|&p| modops::barrett_mu(p)).collect(),
            source,
            target,
            qhat_inv_shoup,
            m_dense,
            m_cols,
            acc_terms,
        }
    }

    /// Source limb count `L`.
    pub fn limbs_in(&self) -> usize {
        self.l
    }

    /// Target limb count `L'`.
    pub fn limbs_out(&self) -> usize {
        self.l_out
    }

    /// Bytes of the compiled dense step-2 matrix.
    pub fn param_bytes(&self) -> usize {
        self.m_dense.len()
    }

    /// Row count of a limb set (`N` for a single polynomial, `N·batch`
    /// for a batch-major limb), validated against the compiled degree.
    fn rows_of<L: AsRef<[u64]>>(&self, limbs: &[L]) -> usize {
        assert_eq!(limbs.len(), self.l, "limb count must match source basis");
        let rows = limbs.first().map_or(self.n, |l| l.as_ref().len());
        assert!(
            rows >= self.n && rows.is_multiple_of(self.n),
            "limb length must be a multiple of the compiled degree"
        );
        for l in limbs {
            assert_eq!(l.as_ref().len(), rows, "ragged limb lengths");
        }
        rows
    }

    /// Step 1 on the simulator: `b_i = a_i · q̂_i^{-1} mod q_i` per limb,
    /// one Montgomery VecModMul each. Accepts degree-`N` limbs or
    /// batch-major `N·batch` limbs.
    #[cfg(test)]
    fn step1_on_tpu(&self, sim: &mut TpuSim, limbs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let rows = self.rows_of(limbs);
        limbs
            .iter()
            .enumerate()
            .map(|(i, limb)| {
                let qi = self.source[i];
                ModRed::Montgomery.charge_vec_mod_mul(sim, rows, qi, Category::VecModOps);
                let w = self.qhat_inv_shoup.get(i).0;
                limb.iter().map(|&x| modops::mul_mod(x, w, qi)).collect()
            })
            .collect()
    }

    /// Step 2 via BAT on the MXU: `(rows × KL) @ (KL × KL')` int8
    /// matmul, merged and reduced per column modulus. `rows` is `N` for
    /// one polynomial and `N·batch` for a batch — the inner products
    /// execute once per batch with the row dimension fused.
    #[cfg(test)]
    fn step2_bat_on_tpu(&self, sim: &mut TpuSim, b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let rows = self.rows_of(b);
        let (kl, klo) = (K * self.l, K * self.l_out);
        // Runtime chunking of the rows×L data into rows×KL (type conversion).
        sim.charge_vpu(
            rows * self.l,
            2 * K as u32,
            Category::TypeConversion,
            "u32->chunks",
        );
        let mut d = vec![0u8; rows * kl];
        for (i, limb) in b.iter().enumerate() {
            for (nn, &v) in limb.iter().enumerate() {
                for (kk, &c) in chunk::decompose(v, K, 8).iter().enumerate() {
                    d[nn * kl + i * K + kk] = c as u8;
                }
            }
        }
        let z = sim.matmul_u8(&d, &self.m_dense, rows, kl, klo, Category::BconvMatMul);
        sim.charge_vpu(
            rows * self.l_out,
            K as u32,
            Category::VecModOps,
            "chunk merge",
        );
        sim.charge_vpu(
            rows * self.l_out,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final mod reduce",
        );
        (0..self.l_out)
            .map(|j| {
                let pj = self.target[j];
                (0..rows)
                    .map(|nn| {
                        let mut acc = 0u128;
                        for t in 0..K {
                            acc += (z[nn * klo + j * K + t] as u128) << (8 * t as u32);
                        }
                        modops::reduce_u128(acc, pj)
                    })
                    .collect()
            })
            .collect()
    }

    /// Step 2 on the VPU only (the TPU *baseline* of Tab. VI): `L`
    /// high-precision multiply-accumulates per output element.
    #[cfg(test)]
    fn step2_baseline_on_tpu(&self, sim: &mut TpuSim, b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let rows = self.rows_of(b);
        sim.charge_vpu(
            rows * self.l_out,
            self.l as u32 * (ModRed::Montgomery.vpu_ops() + 2),
            Category::VecModOps,
            "hp modmatmul on vpu",
        );
        self.step2_reference(b)
    }

    /// Pure-CPU step-2 oracle (row-count agnostic: works on single
    /// polynomials and batch-major limbs alike).
    ///
    /// # Panics
    /// Panics if `b` does not carry one row per source limb.
    pub fn step2_reference(&self, b: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(b.len(), self.l, "limb count must match source basis");
        let rows = self.rows_of(b);
        // Division-free: each output column accumulates `Σ b_i·[q̂_i]_{p_j}`
        // in lazy `< 2p_j` Shoup form against the compiled per-column
        // pairs, with one strict pass at the end — bit-identical to the
        // term-by-term reduced sum (same congruence class, canonical
        // final fold).
        (0..self.l_out)
            .map(|j| {
                let pj = self.target[j];
                let col = &self.m_cols[j];
                let mut out = vec![0u64; rows];
                for (i, bi) in b.iter().enumerate() {
                    let (w, ws) = col.get(i);
                    shoup::mul_acc_lazy_const(bi, w, ws, &mut out, pj);
                }
                shoup::reduce_strict_slice(&mut out, pj);
                out
            })
            .collect()
    }

    /// Full conversion on the simulator with BAT (`use_bat = true`) or
    /// the VPU baseline. Returns target-basis limbs.
    #[cfg(test)]
    fn convert_on_tpu(&self, sim: &mut TpuSim, limbs: &[Vec<u64>], use_bat: bool) -> Vec<Vec<u64>> {
        let b = self.step1_on_tpu(sim, limbs);
        if use_bat {
            self.step2_bat_on_tpu(sim, &b)
        } else {
            self.step2_baseline_on_tpu(sim, &b)
        }
    }

    /// Full conversion of a batch-major [`PolyBatch`] on the simulator:
    /// one fused `(N·batch × KL) @ (KL × KL')` matmul for step 2 — the
    /// batched shape `cross_ckks::costs::charge_bconv` accounts for.
    ///
    /// Returns target-basis limbs in the same batch-major layout.
    ///
    /// # Panics
    /// Panics if the batch's basis does not match the compiled source
    /// basis or the batch is not in the coefficient domain.
    #[cfg(test)]
    fn convert_batch_on_tpu(
        &self,
        sim: &mut TpuSim,
        batch: &PolyBatch,
        use_bat: bool,
    ) -> Vec<Vec<u64>> {
        assert_eq!(batch.context().n(), self.n, "degree mismatch");
        assert_eq!(batch.context().moduli(), &self.source[..], "basis mismatch");
        assert_eq!(
            batch.domain(),
            Domain::Coefficient,
            "basis conversion operates on coefficients"
        );
        self.convert_on_tpu(sim, batch.limbs(), use_bat)
    }

    /// Scalar-path oracle via `BconvTable::convert_scalar` semantics:
    /// full reference conversion of all coefficients (single-polynomial
    /// or batch-major limbs) — strict step 1 into whole limbs, then
    /// [`BconvKernel::step2_reference`]'s fold-per-term accumulation.
    /// What [`BconvKernel::convert_slices`] is pinned against.
    pub fn convert_reference(&self, limbs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(limbs.len(), self.l, "limb count must match source basis");
        let b: Vec<Vec<u64>> = limbs
            .iter()
            .enumerate()
            .map(|(i, limb)| {
                let (w, ws) = self.qhat_inv_shoup.get(i);
                limb.iter()
                    .map(|&x| shoup::mul(x, w, ws, self.source[i]))
                    .collect()
            })
            .collect();
        self.step2_reference(&b)
    }

    /// The host conversion kernel, over borrowed limb views — callers
    /// feed limbs sliced out of a larger structure (e.g. the
    /// coefficient-domain digit limbs of a key switch) without cloning
    /// them first. Output limbs are canonical `< p_j`, bit-identical
    /// to [`BconvKernel::convert_reference`].
    ///
    /// Row-blocked: step 1 (strict Shoup by `[q̂_i⁻¹]_{q_i}`) fills an
    /// L1-resident `L × 256` block, then every output column
    /// sums raw `b_i·[q̂_i]_{p_j}` products in a `u64` — as many terms
    /// as provably fit, which is all of them for every shipped chain —
    /// and folds once with `⌊2⁶⁴/p_j⌋` to the canonical residue: the
    /// residue the per-term lazy chain reaches, in the same canonical
    /// form.
    ///
    /// # Panics
    /// Panics on a limb count other than the source basis', ragged
    /// limbs, or a limb length that is not a multiple of the degree.
    pub fn convert_slices(&self, limbs: &[&[u64]]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.l_out];
        self.convert_slices_into(limbs, &mut out);
        out
    }

    /// [`BconvKernel::convert_slices`] into caller-owned buffers, one
    /// per target limb — recycled limbs, say. Each buffer is cleared
    /// and zero-filled to the row count first, so what it held before
    /// never reaches the output.
    ///
    /// # Panics
    /// As [`BconvKernel::convert_slices`], and on a buffer count other
    /// than the target basis'.
    pub fn convert_slices_into(&self, limbs: &[&[u64]], out: &mut [Vec<u64>]) {
        let rows = self.rows_of(limbs);
        assert_eq!(out.len(), self.l_out, "one buffer per target limb");
        for o in out.iter_mut() {
            o.clear();
            o.resize(rows, 0);
        }
        // Step-1 products and matrix entries are canonical residues of
        // moduli `compile` checked to be below 2³², so they are held
        // and multiplied as 32-bit words (a widening 32×32 multiply
        // vectorizes; a 64×64 one does not).
        let mut block = vec![0u32; self.l * BLOCK_ROWS];
        for start in (0..rows).step_by(BLOCK_ROWS) {
            let len = BLOCK_ROWS.min(rows - start);
            for (i, (limb, b)) in limbs.iter().zip(block.chunks_mut(BLOCK_ROWS)).enumerate() {
                let (w, ws) = self.qhat_inv_shoup.get(i);
                let qi = self.source[i];
                for (b, &x) in b.iter_mut().zip(&limb[start..start + len]) {
                    *b = shoup::mul(x, w, ws, qi) as u32;
                }
            }
            for (j, out) in out.iter_mut().enumerate() {
                let (pj, mu) = (self.target[j], self.target_mu[j]);
                let acc = &mut out[start..start + len];
                for first in (0..self.l).step_by(self.acc_terms) {
                    for i in first..(first + self.acc_terms).min(self.l) {
                        let w = self.m_cols[j].get(i).0 as u32;
                        for (a, &b) in acc.iter_mut().zip(&block[i * BLOCK_ROWS..]) {
                            *a += b as u64 * w as u64;
                        }
                    }
                    for a in acc.iter_mut() {
                        *a = modops::reduce_barrett(*a, pj, mu);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_math::primes;
    use cross_math::rns::RnsBasis;
    use cross_tpu::TpuGeneration;

    fn setup(l: usize, l_out: usize, n: usize) -> (RnsBasis, Vec<u64>, BconvKernel) {
        let all = primes::ntt_prime_chain(28, 1 << 10, l + l_out).unwrap();
        let basis = RnsBasis::new(all[..l].to_vec());
        let target = all[l..].to_vec();
        let table = basis.bconv_table(&target);
        let kernel = BconvKernel::compile(&table, n, ModRed::Montgomery);
        (basis, target, kernel)
    }

    fn limbs_of(basis: &RnsBasis, values: &[u64], n: usize) -> Vec<Vec<u64>> {
        // values: one integer per coefficient, reduced into each limb.
        basis
            .moduli()
            .iter()
            .map(|&q| (0..n).map(|i| values[i] % q).collect())
            .collect()
    }

    #[test]
    fn bat_step2_matches_reference() {
        let (basis, _, kernel) = setup(3, 2, 16);
        let values: Vec<u64> = (0..16u64).map(|i| i * 999_983 + 7).collect();
        let limbs = limbs_of(&basis, &values, 16);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let b = kernel.step1_on_tpu(&mut sim, &limbs);
        let got = kernel.step2_bat_on_tpu(&mut sim, &b);
        assert_eq!(got, kernel.step2_reference(&b));
    }

    #[test]
    fn full_conversion_consistent_between_paths() {
        let (basis, _, kernel) = setup(4, 3, 8);
        let values: Vec<u64> = (0..8u64).map(|i| i * 123_457 + 1).collect();
        let limbs = limbs_of(&basis, &values, 8);
        let mut s1 = TpuSim::new(TpuGeneration::V6e);
        let mut s2 = TpuSim::new(TpuGeneration::V6e);
        let bat = kernel.convert_on_tpu(&mut s1, &limbs, true);
        let base = kernel.convert_on_tpu(&mut s2, &limbs, false);
        assert_eq!(bat, base, "BAT and baseline must agree functionally");
        assert_eq!(bat, kernel.convert_reference(&limbs));
        // into buffers that held other words, of other lengths
        let views: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
        let mut dirty = vec![vec![u64::MAX; 8], vec![3; 5], vec![7; 20]];
        kernel.convert_slices_into(&views, &mut dirty);
        assert_eq!(dirty, bat);
    }

    #[test]
    fn conversion_is_fast_base_extension() {
        // The HPS fast base conversion yields x + e·Q for small e ≥ 0.
        let (basis, target, kernel) = setup(3, 2, 4);
        let x = 123_456_789u64;
        let limbs = limbs_of(&basis, &[x; 4], 4);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let out = kernel.convert_on_tpu(&mut sim, &limbs, true);
        for (j, &pj) in target.iter().enumerate() {
            let mut ok = false;
            for e in 0..=basis.len() as u64 {
                let want = cross_math::BigUint::from(e)
                    .mul(basis.big_q())
                    .add(&cross_math::BigUint::from(x))
                    .mod_u64(pj);
                if out[j][0] == want {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "limb {j}");
        }
    }

    #[test]
    fn bat_charges_less_vpu_more_mxu() {
        let (basis, _, kernel) = setup(12, 12, 64);
        let values: Vec<u64> = (0..64u64).collect();
        let limbs = limbs_of(&basis, &values, 64);
        let mut s_bat = TpuSim::new(TpuGeneration::V6e);
        let mut s_base = TpuSim::new(TpuGeneration::V6e);
        let _ = kernel.convert_on_tpu(&mut s_bat, &limbs, true);
        let _ = kernel.convert_on_tpu(&mut s_base, &limbs, false);
        assert!(s_bat.trace().seconds_of(Category::BconvMatMul) > 0.0);
        assert_eq!(s_base.trace().seconds_of(Category::BconvMatMul), 0.0);
    }

    #[test]
    fn batched_conversion_matches_sequential() {
        use cross_poly::rns_poly::{RnsContext, RnsPoly};
        use std::sync::Arc;
        let (basis, _, kernel) = setup(3, 2, 16);
        let ctx = Arc::new(RnsContext::new(16, basis.moduli().to_vec()));
        let polys: Vec<RnsPoly> = (0..4i64)
            .map(|b| {
                let coeffs: Vec<i64> = (0..16).map(|j| (j * 5 + b * 7) % 31 - 15).collect();
                RnsPoly::from_signed_coeffs(ctx.clone(), &coeffs)
            })
            .collect();
        let pb = cross_poly::PolyBatch::from_polys(&polys);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let fused = kernel.convert_batch_on_tpu(&mut sim, &pb, true);
        // Sequential oracle: convert each polynomial independently.
        for (b, p) in polys.iter().enumerate() {
            let mut s = TpuSim::new(TpuGeneration::V6e);
            let want = kernel.convert_on_tpu(&mut s, p.limbs(), true);
            for (j, limb) in fused.iter().enumerate() {
                assert_eq!(limb[b * 16..(b + 1) * 16], want[j][..], "poly {b} limb {j}");
            }
        }
        // And the reference path agrees at the batched width.
        assert_eq!(fused, kernel.convert_reference(pb.limbs()));
    }

    #[test]
    #[should_panic(expected = "ragged limb lengths")]
    fn host_kernel_rejects_ragged_limbs() {
        let (_, _, kernel) = setup(3, 2, 16);
        let (full, short) = (vec![1u64; 32], vec![1u64; 16]);
        let _ = kernel.convert_slices(&[&full, &full, &short]);
    }

    #[test]
    #[should_panic(expected = "multiple of the compiled degree")]
    fn host_kernel_rejects_short_limbs() {
        let (_, _, kernel) = setup(2, 2, 16);
        let short = vec![1u64; 8];
        let _ = kernel.convert_slices(&[&short, &short]);
    }
}
