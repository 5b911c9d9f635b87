//! BAT for high-precision `ModMatMul` (paper Alg. 2, Fig. 8).
//!
//! A preknown `H×V` matrix `A` over `Z_q` is compiled offline into a
//! dense `KH×KV` byte matrix; a runtime `V×W` matrix `B` is byte-chunked
//! into `KV×W`; their int8 MXU product yields `KH×W` 32-bit partial sums
//! that merge (`CHUNKMERGE`) and reduce back to the `H×W` result mod `q`.

use super::{chunk, scalar};
use crate::modred::ModRed;
use cross_math::modops;
use cross_tpu::{Category, TpuSim};

/// A preknown matrix compiled for BAT execution on the MXU.
///
/// # Example
/// ```
/// use cross_core::bat::matmul::BatMatMul;
/// use cross_tpu::{TpuGeneration, TpuSim, Category};
/// let q = 268_369_921u64;
/// let a = vec![12345u64, 678, 90123, 4567]; // 2×2 preknown matrix
/// let bm = BatMatMul::compile(&a, 2, 2, q, 8);
/// let b = vec![111u64, 222, 333, 444]; // 2×2 runtime matrix
/// let mut sim = TpuSim::new(TpuGeneration::V6e);
/// let z = bm.execute(&mut sim, &b, 2, Category::BconvMatMul);
/// assert_eq!(z, bm.execute_reference(&b, 2));
/// ```
#[derive(Debug, Clone)]
pub struct BatMatMul {
    h: usize,
    v: usize,
    k: usize,
    bp: u32,
    q: u64,
    /// Dense `(K·H) × (K·V)` byte matrix, row-major.
    a_dense: Vec<u8>,
}

impl BatMatMul {
    /// `OFFLINECOMPILELEFT`: compiles the preknown `h×v` matrix `a`
    /// (row-major, entries reduced mod `q`) into the dense byte matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch or unreduced entries.
    pub fn compile(a: &[u64], h: usize, v: usize, q: u64, bp: u32) -> Self {
        assert_eq!(a.len(), h * v, "matrix shape mismatch");
        let k = chunk::chunk_count(q, bp);
        let (kh, kv) = (k * h, k * v);
        let mut a_dense = vec![0u8; kh * kv];
        for hh in 0..h {
            for vv in 0..v {
                let m = scalar::direct_scalar_bat(a[hh * v + vv], k, bp, q);
                for i in 0..k {
                    for j in 0..k {
                        a_dense[(hh * k + i) * kv + (vv * k + j)] = m[i][j] as u8;
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
            a_dense,
        }
    }

    /// Bytes of the compiled parameter (for DMA/batching accounting).
    pub fn param_bytes(&self) -> usize {
        self.a_dense.len()
    }

    /// `RUNTIMECOMPILERIGHT`: chunks a runtime `v×w` matrix into the
    /// `KV×W` byte layout (chunk rows stacked per source row).
    pub(crate) fn compile_right(&self, b: &[u64], w: usize) -> Vec<u8> {
        assert_eq!(b.len(), self.v * w, "rhs shape mismatch");
        let kv = self.k * self.v;
        let mut out = vec![0u8; kv * w];
        for vv in 0..self.v {
            for ww in 0..w {
                let chunks = chunk::decompose(b[vv * w + ww], self.k, self.bp);
                for (kk, &c) in chunks.iter().enumerate() {
                    out[(vv * self.k + kk) * w + ww] = c as u8;
                }
            }
        }
        out
    }

    /// Merges the `KH×W` 32-bit psum matrix and reduces mod `q` into the
    /// final `H×W` result.
    fn merge_reduce(&self, z_chunk: &[u32], w: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.h * w];
        for hh in 0..self.h {
            for ww in 0..w {
                let mut acc = 0u128;
                for j in 0..self.k {
                    acc += (z_chunk[(hh * self.k + j) * w + ww] as u128) << (j as u32 * self.bp);
                }
                out[hh * w + ww] = modops::reduce_u128(acc, self.q);
            }
        }
        out
    }

    /// Full `MAIN-FULLMATMUL` on the simulator: runtime chunking (type
    /// conversion), MXU matmul, merge + modular reduction on the VPU.
    pub fn execute(&self, sim: &mut TpuSim, b: &[u64], w: usize, cat: Category) -> Vec<u64> {
        let (kh, kv) = (self.k * self.h, self.k * self.v);
        // Runtime right-matrix compilation = type conversion on the VPU.
        sim.charge_vpu(
            self.v * w,
            2 * self.k as u32,
            Category::TypeConversion,
            "u32->chunks",
        );
        let b_dense = self.compile_right(b, w);
        let z_chunk = sim.matmul_u8(&self.a_dense, &b_dense, kh, kv, w, cat);
        // Merge (shift-add) + final reduction on the VPU.
        sim.charge_vpu(
            self.h * w,
            self.k as u32,
            Category::VecModOps,
            "chunk merge",
        );
        sim.charge_vpu(
            self.h * w,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final mod reduce",
        );
        self.merge_reduce(&z_chunk, w)
    }

    /// Cost-only charge of one execution with `w` output columns.
    pub fn charge(&self, sim: &mut TpuSim, w: usize, cat: Category) {
        Self::charge_shape(sim, self.h, self.v, w, self.k, cat);
    }

    /// Shape-only cost charge (no compiled matrix needed) — used by the
    /// large parameter sweeps of the bench harness.
    pub fn charge_shape(sim: &mut TpuSim, h: usize, v: usize, w: usize, k: usize, cat: Category) {
        let (kh, kv) = (k * h, k * v);
        sim.charge_vpu(v * w, 2 * k as u32, Category::TypeConversion, "u32->chunks");
        sim.charge_matmul_u8(kh, kv, w, cat);
        sim.charge_vpu(h * w, k as u32, Category::VecModOps, "chunk merge");
        sim.charge_vpu(
            h * w,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final mod reduce",
        );
    }

    /// Pure-Rust reference execution (no simulator, no costs) — used by
    /// tests and by CPU-side callers.
    pub fn execute_reference(&self, b: &[u64], w: usize) -> Vec<u64> {
        let b_dense = self.compile_right(b, w);
        let (kh, kv) = (self.k * self.h, self.k * self.v);
        let mut z_chunk = vec![0u32; kh * w];
        for i in 0..kh {
            for t in 0..kv {
                let av = self.a_dense[i * kv + t] as u64;
                if av == 0 {
                    continue;
                }
                for j in 0..w {
                    let acc = z_chunk[i * w + j] as u64 + av * b_dense[t * w + j] as u64;
                    assert!(acc <= u32::MAX as u64, "32-bit accumulator overflow");
                    z_chunk[i * w + j] = acc as u32;
                }
            }
        }
        self.merge_reduce(&z_chunk, w)
    }
}

/// Reference high-precision `ModMatMul` oracle: `(h×v)@(v×w) mod q`.
pub fn mod_matmul_reference(
    a: &[u64],
    b: &[u64],
    h: usize,
    v: usize,
    w: usize,
    q: u64,
) -> Vec<u64> {
    crate::mat::matmul_mod(a, b, h, v, w, q)
}

/// BAT with the *right* operand preknown: `Z = X @ W` where `W (v×w)` is
/// compiled offline. This is the orientation MAT's transpose elimination
/// needs — step 3 of the layout-invariant NTT right-multiplies by the
/// twiddle matrix instead of transposing the data (paper Fig. 9/10).
///
/// Derivation mirrors Eq. (1)–(7): per known entry `w`,
/// `x·w = Σ_k x_k · (w·2^{k·bp} mod q)`, so the compiled matrix is
/// `W_dense[(v·K+k), (j·K+t)] = chunk_t((w[v][j] << k·bp) mod q)` and the
/// runtime left matrix is byte-chunked column-interleaved.
#[derive(Debug, Clone)]
pub(crate) struct BatMatMulRight {
    v: usize,
    w: usize,
    k: usize,
    bp: u32,
    q: u64,
    /// Dense `(K·V) × (K·W)` byte matrix, row-major.
    w_dense: Vec<u8>,
}

impl BatMatMulRight {
    /// Compiles the preknown `v×w` right matrix.
    pub(crate) fn compile(wmat: &[u64], v: usize, w: usize, q: u64, bp: u32) -> Self {
        assert_eq!(wmat.len(), v * w, "matrix shape mismatch");
        let k = chunk::chunk_count(q, bp);
        let (kv, kw) = (k * v, k * w);
        let mut w_dense = vec![0u8; kv * kw];
        for vv in 0..v {
            for ww in 0..w {
                // direct_scalar_bat: m[t][kk] = chunk_t((w << kk·bp) mod q)
                let m = scalar::direct_scalar_bat(wmat[vv * w + ww], k, bp, q);
                for kk in 0..k {
                    for t in 0..k {
                        w_dense[(vv * k + kk) * kw + (ww * k + t)] = m[t][kk] as u8;
                    }
                }
            }
        }
        Self {
            v,
            w,
            k,
            bp,
            q,
            w_dense,
        }
    }

    /// Bytes of the compiled parameter.
    pub(crate) fn param_bytes(&self) -> usize {
        self.w_dense.len()
    }

    /// Chunks a runtime `h×v` left matrix into `h × KV` (column-interleaved).
    pub(crate) fn compile_left(&self, x: &[u64], h: usize) -> Vec<u8> {
        assert_eq!(x.len(), h * self.v, "lhs shape mismatch");
        let kv = self.k * self.v;
        let mut out = vec![0u8; h * kv];
        for hh in 0..h {
            for vv in 0..self.v {
                let chunks = chunk::decompose(x[hh * self.v + vv], self.k, self.bp);
                for (kk, &c) in chunks.iter().enumerate() {
                    out[hh * kv + vv * self.k + kk] = c as u8;
                }
            }
        }
        out
    }

    fn merge_reduce(&self, z_chunk: &[u32], h: usize) -> Vec<u64> {
        let kw = self.k * self.w;
        let mut out = vec![0u64; h * self.w];
        for hh in 0..h {
            for ww in 0..self.w {
                let mut acc = 0u128;
                for t in 0..self.k {
                    acc += (z_chunk[hh * kw + ww * self.k + t] as u128) << (t as u32 * self.bp);
                }
                out[hh * self.w + ww] = modops::reduce_u128(acc, self.q);
            }
        }
        out
    }

    /// Full execution on the simulator (`Z = X @ W mod q`, `X` is `h×v`).
    pub(crate) fn execute(&self, sim: &mut TpuSim, x: &[u64], h: usize, cat: Category) -> Vec<u64> {
        let (kv, kw) = (self.k * self.v, self.k * self.w);
        sim.charge_vpu(
            h * self.v,
            2 * self.k as u32,
            Category::TypeConversion,
            "u32->chunks",
        );
        let x_dense = self.compile_left(x, h);
        let z_chunk = sim.matmul_u8(&x_dense, &self.w_dense, h, kv, kw, cat);
        sim.charge_vpu(
            h * self.w,
            self.k as u32,
            Category::VecModOps,
            "chunk merge",
        );
        sim.charge_vpu(
            h * self.w,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final mod reduce",
        );
        self.merge_reduce(&z_chunk, h)
    }

    /// Cost-only charge with `h` runtime rows.
    pub(crate) fn charge(&self, sim: &mut TpuSim, h: usize, cat: Category) {
        let (kv, kw) = (self.k * self.v, self.k * self.w);
        sim.charge_vpu(
            h * self.v,
            2 * self.k as u32,
            Category::TypeConversion,
            "u32->chunks",
        );
        sim.charge_matmul_u8(h, kv, kw, cat);
        sim.charge_vpu(
            h * self.w,
            self.k as u32,
            Category::VecModOps,
            "chunk merge",
        );
        sim.charge_vpu(
            h * self.w,
            ModRed::Montgomery.vpu_ops(),
            Category::VecModOps,
            "final mod reduce",
        );
    }

    /// Pure-Rust reference execution.
    #[cfg(test)]
    pub(crate) fn execute_reference(&self, x: &[u64], h: usize) -> Vec<u64> {
        let x_dense = self.compile_left(x, h);
        let (kv, kw) = (self.k * self.v, self.k * self.w);
        let mut z_chunk = vec![0u32; h * kw];
        for i in 0..h {
            for t in 0..kv {
                let xv = x_dense[i * kv + t] as u64;
                if xv == 0 {
                    continue;
                }
                for j in 0..kw {
                    let acc = z_chunk[i * kw + j] as u64 + xv * self.w_dense[t * kw + j] as u64;
                    assert!(acc <= u32::MAX as u64, "32-bit accumulator overflow");
                    z_chunk[i * kw + j] = acc as u32;
                }
            }
        }
        self.merge_reduce(&z_chunk, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cross_tpu::TpuGeneration;

    const Q: u64 = 268_369_921;

    fn sample(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761 + seed) % Q).collect()
    }

    #[test]
    fn matches_oracle_small() {
        let (h, v, w) = (3usize, 4usize, 5usize);
        let a = sample(h * v, 7);
        let b = sample(v * w, 13);
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        let got = bm.execute_reference(&b, w);
        let want = mod_matmul_reference(&a, &b, h, v, w, Q);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_oracle_on_sim() {
        let (h, v, w) = (8usize, 8usize, 4usize);
        let a = sample(h * v, 3);
        let b = sample(v * w, 5);
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let got = bm.execute(&mut sim, &b, w, Category::BconvMatMul);
        assert_eq!(got, mod_matmul_reference(&a, &b, h, v, w, Q));
        // Costs were charged.
        assert!(sim.trace().total_seconds() > 0.0);
        assert!(sim.trace().seconds_of(Category::BconvMatMul) > 0.0);
        assert!(sim.trace().seconds_of(Category::TypeConversion) > 0.0);
    }

    #[test]
    fn dense_matrix_is_square_expansion() {
        let (h, v) = (2usize, 3usize);
        let a = sample(h * v, 1);
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        assert_eq!(bm.k, 4);
        assert_eq!(bm.a_dense.len(), (4 * h) * (4 * v));
    }

    #[test]
    fn identity_matrix() {
        let (h, v, w) = (4usize, 4usize, 3usize);
        let mut a = vec![0u64; h * v];
        for i in 0..h {
            a[i * v + i] = 1;
        }
        let b = sample(v * w, 9);
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        assert_eq!(bm.execute_reference(&b, w), b);
    }

    #[test]
    fn extreme_values() {
        let (h, v, w) = (2usize, 2usize, 2usize);
        let a = vec![Q - 1; h * v];
        let b = vec![Q - 1; v * w];
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        assert_eq!(
            bm.execute_reference(&b, w),
            mod_matmul_reference(&a, &b, h, v, w, Q)
        );
    }

    #[test]
    fn charge_only_accounts_same_shapes() {
        let (h, v, w) = (16usize, 16usize, 8usize);
        let a = sample(h * v, 2);
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        let mut s1 = TpuSim::new(TpuGeneration::V6e);
        let mut s2 = TpuSim::new(TpuGeneration::V6e);
        let b = sample(v * w, 4);
        let _ = bm.execute(&mut s1, &b, w, Category::NttMatMul);
        bm.charge(&mut s2, w, Category::NttMatMul);
        let d = (s1.compute_seconds() - s2.compute_seconds()).abs();
        assert!(
            d < 1e-12,
            "functional and charge-only costs must agree: {d}"
        );
    }

    #[test]
    fn right_preknown_matches_oracle() {
        let (h, v, w) = (5usize, 4usize, 3usize);
        let x = sample(h * v, 21);
        let wmat = sample(v * w, 23);
        let bm = BatMatMulRight::compile(&wmat, v, w, Q, 8);
        let got = bm.execute_reference(&x, h);
        assert_eq!(got, mod_matmul_reference(&x, &wmat, h, v, w, Q));
    }

    #[test]
    fn right_preknown_on_sim() {
        let (h, v, w) = (4usize, 8usize, 8usize);
        let x = sample(h * v, 31);
        let wmat = sample(v * w, 37);
        let bm = BatMatMulRight::compile(&wmat, v, w, Q, 8);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let got = bm.execute(&mut sim, &x, h, Category::NttMatMul);
        assert_eq!(got, mod_matmul_reference(&x, &wmat, h, v, w, Q));
        let mut sim2 = TpuSim::new(TpuGeneration::V6e);
        bm.charge(&mut sim2, h, Category::NttMatMul);
        assert!((sim.compute_seconds() - sim2.compute_seconds()).abs() < 1e-12);
    }

    #[test]
    fn left_and_right_orientations_agree() {
        // A@B computed as left-preknown(A) and right-preknown(B) agree.
        let (h, v, w) = (4usize, 4usize, 4usize);
        let a = sample(h * v, 41);
        let b = sample(v * w, 43);
        let left = BatMatMul::compile(&a, h, v, Q, 8).execute_reference(&b, w);
        let right = BatMatMulRight::compile(&b, v, w, Q, 8).execute_reference(&a, h);
        assert_eq!(left, right);
    }

    #[test]
    fn bat_beats_sparse_in_theory() {
        // The dense matrix is K/(2K-1) the size of the sparse one.
        let bm = BatMatMul::compile(&sample(4, 1), 2, 2, Q, 8);
        let dense_rows = bm.k * bm.h;
        let sparse_rows = (2 * bm.k - 1) * bm.h;
        assert!(dense_rows * 2 > sparse_rows, "~2x saving");
        assert!(dense_rows < sparse_rows);
    }
}
