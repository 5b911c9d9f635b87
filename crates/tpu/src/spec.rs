//! Per-generation TPU specifications (paper Tab. IV + Fig. 4).
//!
//! Bandwidths and FLOPs are the paper's XProf-measured numbers for **one
//! tensor core**; the MXU dimension doubles on v6e (256×256 systolic
//! array). Power figures are the per-tensor-core thermal envelopes used
//! to reproduce the paper's "scale TCs to the baseline's TDP" method.

/// TPU generations evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpuGeneration {
    /// TPUv4 (v4-8 host: 8 tensor cores, 128 MB CMEM + VMEM).
    V4,
    /// TPUv5e (v5litepod-4: 4 tensor cores, e-class).
    V5e,
    /// TPUv5p (v5p-8: 8 tensor cores, p-class).
    V5p,
    /// TPUv6e (v6e-8: 8 tensor cores, 256×256 MXU). Paper default.
    V6e,
}

impl TpuGeneration {
    /// All generations, in paper order.
    pub const ALL: [TpuGeneration; 4] = [
        TpuGeneration::V4,
        TpuGeneration::V5e,
        TpuGeneration::V5p,
        TpuGeneration::V6e,
    ];

    /// The architectural spec for one tensor core of this generation.
    pub fn spec(self) -> ChipSpec {
        match self {
            TpuGeneration::V4 => ChipSpec {
                name: "TPUv4",
                vm_setup: "v4-8",
                tensor_cores: 8,
                mxu_dim: 128,
                mxu_count: 4,
                vpu_alus: 2048,
                int8_gops: 139_800.0,
                hbm_gibs: 572.0,
                vmem_read_gibs: 2_003.0,
                vmem_write_gibs: 1_001.0,
                onchip_bytes: 80 * MIB, // 16 MB VMEM + CMEM share (128 MB/2 TCs)
                tc_watts: 85.0,
                dispatch_s: 1.5e-6,
                // 2400 Gbps/chip ICI (6 links x 400 Gbps, 3D torus),
                // shared by the chip's 2 tensor cores.
                ici_gbs: 150.0,
                ici_hop_s: ICI_HOP_S,
                dcn_gbs: DCN_HOST_GBS,
                dcn_hop_s: DCN_HOP_S,
            },
            TpuGeneration::V5e => ChipSpec {
                name: "TPUv5e",
                vm_setup: "v5litepod-4",
                tensor_cores: 4,
                mxu_dim: 128,
                mxu_count: 4,
                vpu_alus: 2048,
                int8_gops: 202_700.0,
                hbm_gibs: 763.0,
                vmem_read_gibs: 17_166.0,
                vmem_write_gibs: 5_722.0,
                onchip_bytes: 48 * MIB,
                tc_watts: 60.0,
                dispatch_s: 1.0e-6,
                // 1600 Gbps/chip ICI (4 links x 400 Gbps, 2D torus),
                // one tensor core per chip.
                ici_gbs: 200.0,
                ici_hop_s: ICI_HOP_S,
                dcn_gbs: DCN_HOST_GBS,
                dcn_hop_s: DCN_HOP_S,
            },
            TpuGeneration::V5p => ChipSpec {
                name: "TPUv5p",
                vm_setup: "v5p-8",
                tensor_cores: 8,
                mxu_dim: 128,
                mxu_count: 4,
                vpu_alus: 2048,
                int8_gops: 236_700.0,
                hbm_gibs: 1_287.0,
                vmem_read_gibs: 20_027.0,
                vmem_write_gibs: 6_676.0,
                onchip_bytes: 112 * MIB,
                tc_watts: 125.0,
                dispatch_s: 1.0e-6,
                // 4800 Gbps/chip ICI (6 links x 800 Gbps, 3D torus),
                // shared by the chip's 2 tensor cores.
                ici_gbs: 300.0,
                ici_hop_s: ICI_HOP_S,
                dcn_gbs: DCN_HOST_GBS,
                dcn_hop_s: DCN_HOP_S,
            },
            TpuGeneration::V6e => ChipSpec {
                name: "TPUv6e",
                vm_setup: "v6e-8",
                tensor_cores: 8,
                mxu_dim: 256,
                mxu_count: 4,
                vpu_alus: 2048,
                int8_gops: 918_000.0,
                hbm_gibs: 1_526.0,
                vmem_read_gibs: 21_696.0,
                vmem_write_gibs: 15_020.0,
                // Effective VMEM budget for HE working sets (twiddles +
                // chunk forms + psums contend; Fig. 11b knees calibrate
                // this, not the nameplate capacity).
                onchip_bytes: 24 * MIB,
                tc_watts: 75.0,
                dispatch_s: 0.8e-6,
                // 3584 Gbps/chip ICI (4 links x 896 Gbps, 2D torus),
                // one tensor core per chip.
                ici_gbs: 448.0,
                ici_hop_s: ICI_HOP_S,
                dcn_gbs: DCN_HOST_GBS,
                dcn_hop_s: DCN_HOP_S,
            },
        }
    }
}

impl std::fmt::Display for TpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().name)
    }
}

const MIB: u64 = 1024 * 1024;

/// Per-hop ICI latency: one serialization/deserialization through a
/// torus neighbor link (sub-microsecond on real hardware; 1 µs is the
/// conservative figure used for honest multi-chip estimates).
const ICI_HOP_S: f64 = 1.0e-6;
/// Per-host DCN bandwidth: ~200 Gbps of NIC bandwidth per TPU host.
const DCN_HOST_GBS: f64 = 25.0;
/// One-way DCN latency between hosts in the same cluster.
const DCN_HOP_S: f64 = 10.0e-6;

/// Architectural parameters of one tensor core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSpec {
    /// Generation name.
    pub name: &'static str,
    /// Single-host VM configuration the paper used (Tab. IV).
    pub vm_setup: &'static str,
    /// Tensor cores in that VM configuration.
    pub tensor_cores: u32,
    /// Systolic array dimension (128, or 256 for v6e).
    pub mxu_dim: u32,
    /// MXUs per tensor core.
    pub mxu_count: u32,
    /// SIMD ALUs in the VPU (128 lanes × 8 sublanes × 2).
    pub vpu_alus: u32,
    /// Peak int8 throughput per tensor core, Giga-ops/s (Tab. IV GFLOPs).
    pub int8_gops: f64,
    /// HBM bandwidth per tensor core (GiB/s).
    pub hbm_gibs: f64,
    /// VMEM read bandwidth per tensor core (GiB/s).
    pub vmem_read_gibs: f64,
    /// VMEM write bandwidth per tensor core (GiB/s).
    pub vmem_write_gibs: f64,
    /// On-chip capacity available to one tensor core (VMEM + CMEM share).
    pub onchip_bytes: u64,
    /// Per-tensor-core thermal envelope (W) for perf/W scaling.
    pub tc_watts: f64,
    /// Fixed kernel dispatch overhead (XLA launch) in seconds.
    pub dispatch_s: f64,
    /// Inter-chip interconnect bandwidth available to one tensor core
    /// (decimal GB/s = 1e9 B/s, one direction): the chip's published
    /// aggregate ICI bandwidth divided by its tensor-core count.
    pub ici_gbs: f64,
    /// Per-hop ICI latency (neighbor link on the ring/torus), seconds.
    pub ici_hop_s: f64,
    /// Data-center-network bandwidth per host (decimal GB/s) — the
    /// cross-host path once a topology outgrows one host's ICI domain.
    pub dcn_gbs: f64,
    /// One-way DCN latency between hosts, seconds.
    pub dcn_hop_s: f64,
}

impl ChipSpec {
    /// Effective clock implied by the Tab. IV int8 throughput:
    /// `ops = 2 · mxu_dim² · mxu_count · clock`.
    pub(crate) fn clock_ghz(&self) -> f64 {
        self.int8_gops / (2.0 * self.mxu_dim as f64 * self.mxu_dim as f64 * self.mxu_count as f64)
    }

    /// VPU elementwise-op throughput (ops/s): `alus · clock`.
    pub(crate) fn vpu_ops_per_s(&self) -> f64 {
        self.vpu_alus as f64 * self.clock_ghz() * 1e9
    }

    /// Seconds to move `bytes` over HBM.
    pub fn hbm_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.hbm_gibs * GIB)
    }

    /// Seconds to read `bytes` from VMEM.
    pub(crate) fn vmem_read_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.vmem_read_gibs * GIB)
    }

    /// Seconds to write `bytes` to VMEM.
    pub(crate) fn vmem_write_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.vmem_write_gibs * GIB)
    }
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_are_plausible() {
        // Implied clocks should land in the sub-2 GHz band TPUs run at
        // (Tab. IV throughputs imply ~1.07/1.55/1.81/0.88 GHz for
        // v4/v5e/v5p/v6e — v5p's public clock is indeed 1.75 GHz).
        for g in TpuGeneration::ALL {
            let c = g.spec().clock_ghz();
            assert!((0.7..2.0).contains(&c), "{g}: clock {c} GHz");
        }
    }

    #[test]
    fn v6e_has_double_mxu() {
        assert_eq!(TpuGeneration::V6e.spec().mxu_dim, 256);
        assert_eq!(TpuGeneration::V4.spec().mxu_dim, 128);
    }

    #[test]
    fn bandwidth_ordering_matches_table() {
        // Tab. IV: HBM and VMEM bandwidths strictly increase v4→v6e.
        let hbm: Vec<f64> = TpuGeneration::ALL
            .iter()
            .map(|g| g.spec().hbm_gibs)
            .collect();
        assert!(hbm.windows(2).all(|w| w[0] < w[1]), "{hbm:?}");
    }

    #[test]
    fn v6e_peak_tops() {
        // 918 TOPs int8 per TC as listed in Tab. IV.
        let s = TpuGeneration::V6e.spec();
        let tops =
            2.0 * s.mxu_dim as f64 * s.mxu_dim as f64 * s.mxu_count as f64 * s.clock_ghz() / 1000.0;
        assert!((tops - 918.0).abs() < 1.0, "tops={tops}");
    }

    #[test]
    fn memory_time_linear() {
        let s = TpuGeneration::V4.spec();
        let t1 = s.hbm_seconds(1e9);
        let t2 = s.hbm_seconds(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }
}
