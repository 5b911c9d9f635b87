//! SoTA GPU HE algorithms replayed on the TPU simulator — the paper's
//! "TPU baseline" (§V-A Baselines): (1) sparse-Toeplitz low-precision
//! ModMatMul (Fig. 7 ❶) and (2) the radix-2 Cooley–Tukey NTT whose
//! per-stage bit-complement shuffles devastate the coarse-grained
//! memory system (§F1, Tab. X), plus (3) the 4-step NTT with an
//! explicit runtime transpose (the decomposition MAT fixes).

use cross_core::modred::ModRed;
use cross_poly::ntt;
use cross_tpu::{Category, TpuSim};

/// The sparse-Toeplitz low-precision ModMatMul TensorFHE-style GPU
/// libraries use: each element of a preknown `h×v` matrix becomes a
/// `(2K-1)×K` chunk block (≈43 % zeros). Only its cost is charged here;
/// this module's tests execute the expansion against the oracle.
#[derive(Debug, Clone, Copy)]
pub struct SparseMatMul;

impl SparseMatMul {
    /// Shape-only cost charge (no compiled matrix needed).
    pub fn charge_shape(sim: &mut TpuSim, h: usize, v: usize, w: usize, k: usize, cat: Category) {
        let rows_per = 2 * k - 1;
        let (sh, sv) = (rows_per * h, k * v);
        sim.charge_vpu(v * w, 2 * k as u32, Category::TypeConversion, "rhs chunks");
        sim.charge_vpu(
            h * v,
            2 * k as u32,
            Category::TypeConversion,
            "static param cast",
        );
        sim.charge_matmul_u8(sh, sv, w, cat);
        sim.charge_vpu(
            h * w,
            rows_per as u32,
            Category::VecModOps,
            "carry-add chain",
        );
        sim.charge_vpu(
            h * w,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final reduce",
        );
    }
}

/// The radix-2 Cooley–Tukey NTT mapped onto the TPU (Tab. X baseline),
/// cost only, for a `batch` of degree-`n` transforms: per stage, `N/2`
/// vectorized modular ops **plus** a bit-complement shuffle whose
/// contiguous-run length shrinks geometrically — the fine-grained
/// reordering the XLU pays for dearly.
pub fn charge_ct_ntt(sim: &mut TpuSim, n: usize, batch: usize) {
    let stages = ntt::stages(n);
    for s in 0..stages {
        // Stage s reads operand pairs at stride t = n/2^{s+1}: that is
        // the contiguous run length crossing lanes.
        let t = n >> (s + 1);
        sim.charge_vpu(
            n / 2 * batch,
            cross_core::modred::ModRed::Montgomery.vpu_ops() + 4,
            Category::VecModOps,
            "butterfly stage",
        );
        sim.charge_shuffle(n * batch, t.max(1), Category::Permutation);
    }
}

/// The 4-step NTT with an EXPLICIT runtime transpose and bit-reverse
/// shuffle (the decomposition-layer baseline MAT rewrites): identical
/// matmul work to the 3-step plan plus the reordering cost.
#[cfg(test)]
pub(crate) fn charge_four_step_ntt(sim: &mut TpuSim, r: usize, c: usize, batch: usize) {
    let n = r * c;
    let k = 4usize;
    sim.charge_vpu(n * batch, 2 * k as u32, Category::TypeConversion, "chunks");
    sim.charge_matmul_u8(k * r, k * r, c * batch, Category::NttMatMul);
    sim.charge_vpu(
        n * batch,
        k as u32 + ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "merge+reduce",
    );
    sim.charge_vpu(
        n * batch,
        ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "twiddle",
    );
    // EXPLICIT transpose R×C per polynomial (the cost MAT removes).
    for _ in 0..batch {
        sim.charge_transpose(r, c, Category::Permutation);
    }
    sim.charge_vpu(n * batch, 2 * k as u32, Category::TypeConversion, "chunks");
    sim.charge_matmul_u8(k * c, k * c, r * batch, Category::NttMatMul);
    sim.charge_vpu(
        n * batch,
        k as u32 + ModRed::Montgomery.vpu_ops(),
        Category::VecModOps,
        "merge+reduce",
    );
    // EXPLICIT bit-reverse shuffle of the output.
    sim.charge_shuffle(n * batch, 1, Category::Permutation);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_core::bat::matmul::{mod_matmul_reference, BatMatMul};
    use cross_core::bat::{chunk, scalar};
    use cross_core::mat::ntt3::{Ntt3Config, Ntt3Plan};
    use cross_math::modops;
    use cross_math::primes;
    use cross_poly::tables::NttTables;
    use cross_tpu::TpuGeneration;
    use std::sync::Arc;

    const Q: u64 = 268_369_921;

    /// The functional sparse expansion [`SparseMatMul`] charges.
    struct SparseExpansion {
        h: usize,
        v: usize,
        k: usize,
        bp: u32,
        q: u64,
        /// `((2K-1)·H) × (K·V)` bytes, row-major — with the structural zeros.
        a_sparse: Vec<u8>,
    }

    impl SparseExpansion {
        /// Expands the preknown matrix into its sparse chunk form.
        fn compile(a: &[u64], h: usize, v: usize, q: u64, bp: u32) -> Self {
            assert_eq!(a.len(), h * v);
            let k = chunk::chunk_count(q, bp);
            let rows_per = 2 * k - 1;
            let (sh, sv) = (rows_per * h, k * v);
            let mut a_sparse = vec![0u8; sh * sv];
            for hh in 0..h {
                for vv in 0..v {
                    let x = scalar::construct_toeplitz(&chunk::decompose(a[hh * v + vv], k, bp), k);
                    for (i, row) in x.iter().enumerate() {
                        for (j, &val) in row.iter().enumerate() {
                            a_sparse[(hh * rows_per + i) * sv + (vv * k + j)] = val as u8;
                        }
                    }
                }
            }
            Self {
                h,
                v,
                k,
                bp,
                q,
                a_sparse,
            }
        }

        /// Executes `(h×v)@(v×w) mod q` through the sparse expansion on the
        /// simulator: bigger matmul, longer carry-add chain (2K-1 psums),
        /// and a type conversion the BAT path avoids for static params.
        fn execute(&self, sim: &mut TpuSim, b: &[u64], w: usize, cat: Category) -> Vec<u64> {
            assert_eq!(b.len(), self.v * w);
            let rows_per = 2 * self.k - 1;
            let (sh, sv) = (rows_per * self.h, self.k * self.v);
            // Runtime chunking of BOTH operands (static params are re-cast
            // each invocation in the baseline — the conversion overhead BAT
            // removes for preknown data).
            sim.charge_vpu(
                self.v * w,
                2 * self.k as u32,
                Category::TypeConversion,
                "rhs chunks",
            );
            sim.charge_vpu(
                self.h * self.v,
                2 * self.k as u32,
                Category::TypeConversion,
                "static param cast",
            );
            let mut b_dense = vec![0u8; sv * w];
            for vv in 0..self.v {
                for ww in 0..w {
                    for (kk, &c) in chunk::decompose(b[vv * w + ww], self.k, self.bp)
                        .iter()
                        .enumerate()
                    {
                        b_dense[(vv * self.k + kk) * w + ww] = c as u8;
                    }
                }
            }
            let z = sim.matmul_u8(&self.a_sparse, &b_dense, sh, sv, w, cat);
            // 2K-1 psums merged through the long carry-add chain (Fig. 7 ❷).
            sim.charge_vpu(
                self.h * w,
                rows_per as u32,
                Category::VecModOps,
                "carry-add chain",
            );
            sim.charge_vpu(
                self.h * w,
                ModRed::Montgomery.vpu_ops(),
                Category::VecModOps,
                "final reduce",
            );
            let mut out = vec![0u64; self.h * w];
            for hh in 0..self.h {
                for ww in 0..w {
                    let mut acc = 0u128;
                    for i in 0..rows_per {
                        acc += (z[(hh * rows_per + i) * w + ww] as u128) << (i as u32 * self.bp);
                    }
                    out[hh * w + ww] = modops::reduce_u128(acc, self.q);
                }
            }
            out
        }
    }

    fn sample(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761 + seed) % Q).collect()
    }

    #[test]
    fn sparse_matches_oracle() {
        let (h, v, w) = (4usize, 5usize, 3usize);
        let a = sample(h * v, 1);
        let b = sample(v * w, 2);
        let sm = SparseExpansion::compile(&a, h, v, Q, 8);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let got = sm.execute(&mut sim, &b, w, Category::NttMatMul);
        assert_eq!(got, mod_matmul_reference(&a, &b, h, v, w, Q));
    }

    #[test]
    fn sparse_has_structural_zeros() {
        let (h, v) = (4usize, 4usize);
        // use values with all chunks nonzero to isolate structural zeros
        let a = vec![0x0F0E_0D0Cu64 % Q; h * v];
        let sm = SparseExpansion::compile(&a, h, v, Q, 8);
        // (K-1)·K / (2K-1)·K = 12/28 ≈ 43 %
        let zeros = sm.a_sparse.iter().filter(|&&x| x == 0).count();
        let zero_fraction = zeros as f64 / sm.a_sparse.len() as f64;
        assert!(zero_fraction >= 12.0 / 28.0 - 1e-9, "{zero_fraction}");
    }

    #[test]
    fn bat_beats_sparse_on_sim() {
        // Tab. V: BAT ~1.3-1.6× faster at paper shapes (H=512,V=W=256
        // scaled down here for test speed via cost-only charges).
        let (h, v, w) = (512usize, 256, 256);
        let a = sample(h * v, 3);
        let bat = BatMatMul::compile(&a, h, v, Q, 8);
        let mut s_bat = TpuSim::new(TpuGeneration::V6e);
        let mut s_sparse = TpuSim::new(TpuGeneration::V6e);
        bat.charge(&mut s_bat, w, Category::NttMatMul);
        SparseMatMul::charge_shape(&mut s_sparse, h, v, w, 4, Category::NttMatMul);
        let speedup = s_sparse.compute_seconds() / s_bat.compute_seconds();
        assert!(
            speedup > 1.2 && speedup < 2.5,
            "speedup {speedup} out of the Tab. V band"
        );
    }

    #[test]
    fn sparse_param_memory_is_larger() {
        let a = sample(16, 5);
        let bat = BatMatMul::compile(&a, 4, 4, Q, 8);
        let sparse = SparseExpansion::compile(&a, 4, 4, Q, 8);
        let ratio = sparse.a_sparse.len() as f64 / bat.param_bytes() as f64;
        assert!((ratio - 7.0 / 4.0).abs() < 1e-9, "(2K-1)/K = 1.75x memory");
    }

    #[test]
    fn ct_ntt_charges_more_than_mat() {
        let n = 1usize << 10;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let mut s_ct = TpuSim::new(TpuGeneration::V4);
        charge_ct_ntt(&mut s_ct, n, 1);
        // Tab. X shape: radix-2 on TPU far slower than the MAT plan.
        let plan = Ntt3Plan::new(
            tables.clone(),
            Ntt3Config {
                r: 32,
                c: 32,
                modred: cross_core::modred::ModRed::Montgomery,
                embed_bitrev: true,
            },
        );
        let mut s_mat = TpuSim::new(TpuGeneration::V4);
        plan.charge_forward_batch(&mut s_mat, 1);
        let ratio = s_ct.compute_seconds() / s_mat.compute_seconds();
        assert!(ratio > 3.0, "CT/MAT ratio {ratio} too small");
    }

    #[test]
    fn four_step_pays_reordering() {
        // The explicit-transpose 4-step must charge Permutation time the
        // 3-step plan does not.
        let mut s4 = TpuSim::new(TpuGeneration::V6e);
        charge_four_step_ntt(&mut s4, 128, 32, 8);
        assert!(s4.trace().seconds_of(Category::Permutation) > 0.0);
        let n = 1usize << 12;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let plan = Ntt3Plan::new(
            tables,
            Ntt3Config {
                r: 128,
                c: 32,
                modred: cross_core::modred::ModRed::Montgomery,
                embed_bitrev: true,
            },
        );
        let mut s3 = TpuSim::new(TpuGeneration::V6e);
        plan.charge_forward_batch(&mut s3, 8);
        assert_eq!(s3.trace().seconds_of(Category::Permutation), 0.0);
        assert!(
            s4.compute_seconds() > s3.compute_seconds(),
            "4-step {} vs 3-step {}",
            s4.compute_seconds(),
            s3.compute_seconds()
        );
    }
}
