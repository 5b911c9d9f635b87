//! The tensor-core simulator: functional execution + latency accounting.
//!
//! Each `TpuSim` models **one tensor core**. Its functional forms are
//! the MXU's int8 products ([`TpuSim::matmul_u8`]): they compute real
//! results while charging time, so BAT's lowering is checked on the
//! unit it targets. Everything else is a `charge_*` cost-only form. In
//! particular the VPU's modular products are charge-only: their values
//! are computed by `cross_core` with the host arithmetic, and its
//! `ModRed` strategy decides what they cost, never what they are.
//!
//! The latency model is a first-order roofline per kernel:
//!
//! ```text
//! latency = dispatch + max(HBM time, Σ compute-unit busy time)
//! ```
//!
//! where compute-unit time itself is `max(ALU/MXU time, VMEM traffic)`
//! per op — dependent ops serialize, DMA double-buffers behind compute.

use crate::spec::{ChipSpec, TpuGeneration};
use crate::trace::{breakdown_of, Category, Trace};
use crate::vreg;

/// Per-kernel simulation report (the trace-viewer row).
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Modeled wall-clock latency in seconds.
    pub latency_s: f64,
    /// Compute-unit busy seconds (MXU + VPU + XLU + conversions).
    pub compute_s: f64,
    /// HBM DMA seconds (overlapped with compute up to the roofline).
    pub hbm_s: f64,
    /// Per-category busy-second breakdown.
    pub breakdown: Vec<(Category, f64)>,
}

impl KernelReport {
    /// Latency in microseconds (the paper's reporting unit).
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }
}

#[derive(Debug, Clone, Copy)]
struct KernelMark {
    compute_before: f64,
    hbm_before: f64,
    entries_before: usize,
}

/// One simulated tensor core.
#[derive(Debug, Clone)]
pub struct TpuSim {
    spec: ChipSpec,
    trace: Trace,
    hbm_seconds: f64,
    mark: Option<KernelMark>,
    kernel_name: String,
}

impl TpuSim {
    /// A fresh tensor core of the given generation.
    pub fn new(gen: TpuGeneration) -> Self {
        Self::with_spec(gen.spec())
    }

    /// A tensor core with an explicit (possibly customized) spec.
    pub fn with_spec(spec: ChipSpec) -> Self {
        Self {
            spec,
            trace: Trace::new(),
            hbm_seconds: 0.0,
            mark: None,
            kernel_name: String::new(),
        }
    }

    /// The spec this core simulates.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total compute busy seconds so far (excluding DMA).
    pub fn compute_seconds(&self) -> f64 {
        self.trace.total_seconds() - self.trace.seconds_of(Category::DmaHbm)
    }

    /// Total HBM seconds so far.
    pub fn hbm_seconds(&self) -> f64 {
        self.hbm_seconds
    }

    /// Resets trace and counters, abandoning any open kernel.
    pub fn reset(&mut self) {
        self.trace.clear();
        self.hbm_seconds = 0.0;
        self.mark = None;
        self.kernel_name.clear();
    }

    // ------------------------------------------------------------------
    // Kernel boundaries
    // ------------------------------------------------------------------

    /// Marks the start of a kernel (an XLA dispatch).
    ///
    /// # Panics
    /// Panics if a kernel is already open.
    pub fn begin_kernel(&mut self, name: impl Into<String>) {
        assert!(self.mark.is_none(), "kernel already open");
        self.mark = Some(KernelMark {
            compute_before: self.compute_seconds(),
            hbm_before: self.hbm_seconds,
            entries_before: self.trace.entries().len(),
        });
        self.kernel_name = name.into();
    }

    /// Closes the open kernel and returns its report.
    ///
    /// # Panics
    /// Panics if no kernel is open.
    pub fn end_kernel(&mut self) -> KernelReport {
        let mark = self.mark.take().expect("no kernel open");
        let compute = self.compute_seconds() - mark.compute_before;
        let hbm = self.hbm_seconds - mark.hbm_before;
        let latency = self.spec.dispatch_s + compute.max(hbm);
        KernelReport {
            name: std::mem::take(&mut self.kernel_name),
            latency_s: latency,
            compute_s: compute,
            hbm_s: hbm,
            breakdown: breakdown_of(&self.trace.entries()[mark.entries_before..]),
        }
    }

    // ------------------------------------------------------------------
    // MXU
    // ------------------------------------------------------------------

    /// Cost model of an `(m×k)@(k×n)` u8 matmul on the systolic MXUs:
    /// each `dim×dim` weight tile streams `n` columns with fill/drain.
    pub fn mxu_seconds(&self, m: usize, k: usize, n: usize) -> f64 {
        let dim = self.spec.mxu_dim as usize;
        let tiles_m = m.div_ceil(dim);
        let tiles_k = k.div_ceil(dim);
        let cycles = (tiles_m * tiles_k) as f64 * (n as f64 + 2.0 * dim as f64);
        cycles / self.spec.mxu_count as f64 / (self.spec.clock_ghz() * 1e9)
    }

    /// Charges MXU time for an `(m×k)@(k×n)` u8 matmul without computing.
    pub fn charge_matmul_u8(&mut self, m: usize, k: usize, n: usize, cat: Category) {
        let s = self.mxu_seconds(m, k, n);
        self.trace.record(cat, s, "matmul");
    }

    /// Functional `(m×k)@(k×n)` u8 matmul with 32-bit accumulation,
    /// charging MXU time.
    ///
    /// # Panics
    /// Panics if shapes mismatch or any accumulator exceeds 32 bits
    /// (hardware accumulators are 32-bit; CROSS sizes matrices so the
    /// `2bp + log2(KV)` bound of Fig. 8 holds).
    pub fn matmul_u8(
        &mut self,
        a: &[u8],
        b: &[u8],
        m: usize,
        k: usize,
        n: usize,
        cat: Category,
    ) -> Vec<u32> {
        assert_eq!(a.len(), m * k, "lhs shape mismatch");
        assert_eq!(b.len(), k * n, "rhs shape mismatch");
        self.charge_matmul_u8(m, k, n, cat);
        let mut out = vec![0u32; m * n];
        for i in 0..m {
            for t in 0..k {
                let av = a[i * k + t] as u64;
                if av == 0 {
                    continue;
                }
                for j in 0..n {
                    let acc = out[i * n + j] as u64 + av * b[t * n + j] as u64;
                    assert!(acc <= u32::MAX as u64, "32-bit MXU accumulator overflow");
                    out[i * n + j] = acc as u32;
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // VPU
    // ------------------------------------------------------------------

    /// Seconds for `elems` elements at `ops_per_elem` scalar ops each,
    /// rooflined against VMEM traffic (`read_bytes` in, `write_bytes` out).
    pub fn vpu_seconds(
        &self,
        elems: usize,
        ops_per_elem: u32,
        read_bytes: f64,
        write_bytes: f64,
    ) -> f64 {
        // Partially-filled VRegs still occupy full lanes: round elems up.
        let padded = vreg::vregs_for(elems) * vreg::ELEMS_PER_VREG;
        let alu = padded as f64 * ops_per_elem as f64 / self.spec.vpu_ops_per_s();
        let mem =
            self.spec.vmem_read_seconds(read_bytes) + self.spec.vmem_write_seconds(write_bytes);
        alu.max(mem)
    }

    /// Charges VPU time for an elementwise op without computing.
    pub fn charge_vpu(
        &mut self,
        elems: usize,
        ops_per_elem: u32,
        cat: Category,
        label: &'static str,
    ) {
        let s = self.vpu_seconds(elems, ops_per_elem, elems as f64 * 8.0, elems as f64 * 4.0);
        self.trace.record(cat, s, label);
    }

    // ------------------------------------------------------------------
    // XLU (cross-lane unit)
    // ------------------------------------------------------------------

    /// Seconds to transpose an `r×c` 32-bit matrix through the XLU.
    pub(crate) fn transpose_seconds(&self, r: usize, c: usize) -> f64 {
        // Non-hidden: data crosses lanes twice (read + reordered write).
        let bytes = (r * c * 4) as f64;
        2.0 * bytes / (self.spec.vmem_write_gibs * GIB) + XLU_FIXED_S
    }

    /// Cost-only transpose charge.
    pub fn charge_transpose(&mut self, r: usize, c: usize, cat: Category) {
        self.trace
            .record(cat, self.transpose_seconds(r, c), "transpose");
    }

    /// Seconds to shuffle `elems` 32-bit values in contiguous runs of
    /// `run_len` — the coarse-grained penalty of paper §III-B2: each
    /// partially-filled VReg costs a full 4 KB tile through the XLU.
    pub fn shuffle_seconds(&self, elems: usize, run_len: usize) -> f64 {
        let eff_bytes = vreg::effective_shuffle_elems(elems, run_len) * 4.0;
        eff_bytes / (self.spec.vmem_write_gibs * GIB) + XLU_FIXED_S
    }

    /// Cost-only shuffle charge.
    pub fn charge_shuffle(&mut self, elems: usize, run_len: usize, cat: Category) {
        self.trace
            .record(cat, self.shuffle_seconds(elems, run_len), "shuffle");
    }

    // ------------------------------------------------------------------
    // Relayout and materialization
    // ------------------------------------------------------------------

    /// Cost-only relayout charge (XLA copy/reshape to (8,128) tiles).
    pub fn charge_reshape(&mut self, bytes: f64, cat: Category) {
        let s = bytes / (self.spec.vmem_write_gibs * GIB);
        self.trace.record(cat, s, "copy/reshape");
    }

    /// Charges XLA's no-fusion materialization of intermediates through
    /// HBM (paper §V-E: "intermediate results are written back to HBM,
    /// incurring back-and-forth memory access"). Unlike [`TpuSim::dma_in`],
    /// this sits on the *compute* critical path — sequential op
    /// dependencies prevent double-buffering it away.
    pub fn charge_materialize(&mut self, bytes: f64, cat: Category) {
        let s = self.spec.hbm_seconds(bytes);
        self.trace.record(cat, s, "hbm materialize");
    }

    // ------------------------------------------------------------------
    // Memory system
    // ------------------------------------------------------------------

    /// Charges an HBM parameter/operand load.
    pub fn dma_in(&mut self, bytes: f64, label: &'static str) {
        let s = self.spec.hbm_seconds(bytes);
        self.hbm_seconds += s;
        self.trace.record(Category::DmaHbm, s, label);
    }

    /// Charges an HBM writeback.
    pub fn dma_out(&mut self, bytes: f64, label: &'static str) {
        self.dma_in(bytes, label);
    }

    /// Models working-set pressure: if `working_set_bytes` exceeds the
    /// on-chip capacity, the overflow is re-fetched from HBM `refetches`
    /// times (paper Fig. 11b's large-batch degradation).
    pub fn spill_check(&mut self, working_set_bytes: f64, refetches: u32) {
        let cap = self.spec.onchip_bytes as f64;
        if working_set_bytes > cap {
            let overflow = working_set_bytes - cap;
            self.dma_in(overflow * refetches as f64, "vmem spill refetch");
        }
    }
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// Fixed, non-hidden XLU startup latency per reorder op.
const XLU_FIXED_S: f64 = 0.2e-6;

/// Scalar-op costs per element for the VPU modular primitives, derived
/// from the algorithm structure (Alg. 1/4 and the Shoup flow of Fig. 7).
pub mod ops {
    /// 32×32→64 product via 16-bit primitives (~6) + Alg. 1 reduction (12).
    pub const MONTGOMERY_MUL: u32 = 18;
    /// product (~6) + Alg. 4 reduction with wide products (~20).
    pub const BARRETT_MUL: u32 = 26;
    /// needs 64-bit products the VPU lacks → widest emulation chain.
    pub const SHOUP_MUL: u32 = 29;
    /// plain 32-bit multiply low half.
    pub const MUL_LO: u32 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> TpuSim {
        TpuSim::new(TpuGeneration::V6e)
    }

    #[test]
    fn matmul_functional_correct() {
        let mut s = sim();
        // 3x2 @ 2x2 with known result
        let a = vec![1u8, 2, 3, 4, 5, 6];
        let b = vec![7u8, 8, 9, 10];
        let out = s.matmul_u8(&a, &b, 3, 2, 2, Category::NttMatMul);
        assert_eq!(out, vec![25, 28, 57, 64, 89, 100]);
    }

    #[test]
    fn matmul_cost_scales_with_tiles() {
        let s = sim();
        let t1 = s.mxu_seconds(256, 256, 256);
        let t2 = s.mxu_seconds(512, 256, 256); // 2x tiles_m
        let t3 = s.mxu_seconds(256, 256, 512); // 2x streamed columns (< 2x total)
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(t3 > t1 && t3 < 2.0 * t1);
    }

    #[test]
    fn small_matmul_underutilizes() {
        // A 4x4x4 matmul costs nearly the same as 256-wide: padding waste.
        let s = sim();
        let tiny = s.mxu_seconds(4, 4, 4);
        let full = s.mxu_seconds(256, 256, 4);
        assert!((tiny / full - 1.0).abs() < 1e-9, "same tile count");
    }

    #[test]
    fn montgomery_cheaper_than_shoup_on_vpu() {
        // The Fig. 13 ordering is baked into the op costs.
        let s = sim();
        let m = s.vpu_seconds(1 << 16, ops::MONTGOMERY_MUL, 0.0, 0.0);
        let b = s.vpu_seconds(1 << 16, ops::BARRETT_MUL, 0.0, 0.0);
        let sh = s.vpu_seconds(1 << 16, ops::SHOUP_MUL, 0.0, 0.0);
        assert!(m < b && b < sh);
    }

    #[test]
    fn fine_shuffle_costs_more() {
        let s = sim();
        let coarse = s.shuffle_seconds(1 << 16, 1 << 16);
        let fine = s.shuffle_seconds(1 << 16, 1);
        assert!(
            fine / coarse > 50.0,
            "fine-grained shuffle must be far slower: {}",
            fine / coarse
        );
    }

    #[test]
    fn kernel_report_roofline() {
        let mut s = sim();
        s.begin_kernel("k");
        s.dma_in(1e9, "params"); // ~0.61 ms on v6e HBM
        s.charge_vpu(1024, 1, Category::VecModOps, "tiny");
        let r = s.end_kernel();
        assert!(r.hbm_s > r.compute_s);
        // Roofline: latency tracks the DMA side, not the sum.
        assert!((r.latency_s - (s.spec().dispatch_s + r.hbm_s)).abs() < 1e-12);
    }

    #[test]
    fn spill_only_beyond_capacity() {
        let mut s = sim();
        let before = s.hbm_seconds();
        s.spill_check(1e6, 1); // far below capacity
        assert_eq!(s.hbm_seconds(), before);
        s.spill_check(s.spec().onchip_bytes as f64 + 1e6, 1);
        assert!(s.hbm_seconds() > before);
    }

    #[test]
    #[should_panic(expected = "accumulator overflow")]
    fn matmul_overflow_guard() {
        let mut s = sim();
        // 255*255*67000 > 2^32
        let k = 67_000usize;
        let a = vec![255u8; k];
        let b = vec![255u8; k];
        let _ = s.matmul_u8(&a, &b, 1, k, 1, Category::NttMatMul);
    }

    #[test]
    #[should_panic(expected = "kernel already open")]
    fn nested_kernels_rejected() {
        let mut s = sim();
        s.begin_kernel("a");
        s.begin_kernel("b");
    }
}
