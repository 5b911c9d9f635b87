//! Multi-core pod simulation: N tensor cores plus an honest
//! interconnect.
//!
//! A [`PodSim`] owns one [`TpuSim`] per participating tensor core and a
//! [`Topology`] describing the links between them. Compute is charged
//! per core exactly as before; *communication* — key scatters,
//! all-gathers after key switching, cross-host DCN crossings — is
//! charged explicitly through the collective methods here and lands in
//! a separate trace under [`Category::IciTransfer`] /
//! [`Category::DcnTransfer`]. Multi-core latency is then
//! `max(per-core latency) + critical-path communication`, which is
//! sublinear in the core count — never `single-core / cores`.
//!
//! Collective costs use the standard ring formulas (the shapes TPU
//! collectives actually run — pipelined neighbor RDMA around the ICI
//! ring, bottlenecked on the slowest link the ring traverses):
//!
//! | collective | seconds (`P` cores, bottleneck link `ℓ`) |
//! |---|---|
//! | point-to-point | `hops·ℓ.hop + bytes/ℓ.bw` |
//! | broadcast (pipelined) | `(P−1)·ℓ.hop + bytes/ℓ.bw` |
//! | scatter from root | `(P−1)·(ℓ.hop + (bytes/P)/ℓ.bw)` |
//! | all-gather | `(P−1)·(ℓ.hop + shard/ℓ.bw)` |
//! | all-reduce | `2·(P−1)·(ℓ.hop + (bytes/P)/ℓ.bw)` |
//!
//! With one core every collective is a no-op (0 s), so a 1-core pod
//! over `crate::topology::LinkSpec::ZERO_COST` links reproduces the
//! single-[`TpuSim`] numbers bit for bit (`tests/pod_model.rs`).

use crate::sim::{KernelReport, TpuSim};
use crate::spec::TpuGeneration;
use crate::topology::Topology;
use crate::trace::{Category, Trace};

/// N simulated tensor cores joined by an explicit interconnect.
///
/// # Example
///
/// Shard a kernel across four v6e cores, all-gather the results, and
/// read the pod-level report:
///
/// ```
/// use cross_tpu::{Category, PodSim, TpuGeneration};
///
/// let mut pod = PodSim::new(TpuGeneration::V6e, 4);
/// let mark = pod.comm_trace().entries().len();
/// let mut reports = Vec::new();
/// for i in 0..pod.num_cores() {
///     let core = pod.core_mut(i);
///     core.begin_kernel("shard");
///     core.charge_vpu(1 << 14, 8, Category::VecModOps, "quarter of the limbs");
///     reports.push(core.end_kernel());
/// }
/// pod.all_gather(1e6, "gather partial results");
/// let rep = pod.assemble_report("sharded-op", &reports, mark);
/// assert!(rep.comm_s > 0.0);                       // ICI is never free
/// assert_eq!(rep.per_core_latency_s.len(), 4);
/// assert!((rep.latency_s - (rep.per_core_latency_s[0] + rep.comm_s)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct PodSim {
    topology: Topology,
    cores: Vec<TpuSim>,
    comm: Trace,
}

impl PodSim {
    /// A pod of `cores` tensor cores of `gen`, with the generation's
    /// published ICI/DCN topology (`Topology::for_generation`).
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn new(gen: TpuGeneration, cores: u32) -> Self {
        Self::with_topology(gen, Topology::for_generation(gen, cores))
    }

    /// A pod with an explicit (possibly customized) topology.
    ///
    /// # Panics
    /// Panics if the topology has zero cores.
    pub fn with_topology(gen: TpuGeneration, topology: Topology) -> Self {
        assert!(topology.cores >= 1, "need at least one core");
        Self {
            topology,
            cores: (0..topology.cores).map(|_| TpuSim::new(gen)).collect(),
            comm: Trace::new(),
        }
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Participating tensor cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to core `i`.
    pub fn core(&self, i: usize) -> &TpuSim {
        &self.cores[i]
    }

    /// Mutable access to core `i` (charge compute onto it directly).
    pub fn core_mut(&mut self, i: usize) -> &mut TpuSim {
        &mut self.cores[i]
    }

    /// Resets every core and the communication trace.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
        self.comm.clear();
    }

    /// The communication trace (ICI/DCN entries only).
    pub fn comm_trace(&self) -> &Trace {
        &self.comm
    }

    /// Total critical-path communication seconds charged so far.
    pub fn comm_seconds(&self) -> f64 {
        self.comm.total_seconds()
    }

    // ------------------------------------------------------------------
    // Communication kernels
    // ------------------------------------------------------------------

    /// The category collectives over the full pod are charged to.
    fn collective_category(&self) -> Category {
        if self.topology.crosses_hosts() {
            Category::DcnTransfer
        } else {
            Category::IciTransfer
        }
    }

    fn charge_comm(&mut self, cat: Category, seconds: f64, label: &'static str) -> f64 {
        self.comm.record(cat, seconds, label);
        seconds
    }

    /// Charges a point-to-point ICI transfer of `bytes` over `hops`
    /// neighbor links, returning the seconds charged.
    pub fn ici_transfer(&mut self, bytes: f64, hops: u32, label: &'static str) -> f64 {
        let s = self.topology.ici.transfer_seconds(bytes, hops);
        self.charge_comm(Category::IciTransfer, s, label)
    }

    /// Charges a cross-host DCN transfer of `bytes` (one hop),
    /// returning the seconds charged.
    pub fn dcn_transfer(&mut self, bytes: f64, label: &'static str) -> f64 {
        let s = self.topology.dcn.transfer_seconds(bytes, 1);
        self.charge_comm(Category::DcnTransfer, s, label)
    }

    /// Pipelined ring broadcast of `bytes` from one core to all others.
    /// No-op on a single core.
    pub fn broadcast(&mut self, bytes: f64, label: &'static str) -> f64 {
        let p = self.num_cores() as u32;
        if p <= 1 {
            return 0.0;
        }
        let link = self.topology.bottleneck();
        let s = (p - 1) as f64 * link.hop_s + bytes / (link.gbs * 1e9);
        self.charge_comm(self.collective_category(), s, label)
    }

    /// Scatter of `total_bytes` from a root core: each of the `P−1`
    /// remote cores receives its `total/P` shard through the root's
    /// link, serialized. No-op on a single core.
    pub fn scatter(&mut self, total_bytes: f64, label: &'static str) -> f64 {
        let p = self.num_cores() as u32;
        if p <= 1 {
            return 0.0;
        }
        let link = self.topology.bottleneck();
        let s = (p - 1) as f64 * link.transfer_seconds(total_bytes / p as f64, 1);
        self.charge_comm(self.collective_category(), s, label)
    }

    /// Ring all-gather: every core contributes `shard_bytes` and ends
    /// with all `P` shards, in `P−1` pipelined steps. No-op on a
    /// single core.
    pub fn all_gather(&mut self, shard_bytes: f64, label: &'static str) -> f64 {
        let p = self.num_cores() as u32;
        if p <= 1 {
            return 0.0;
        }
        let link = self.topology.bottleneck();
        let s = (p - 1) as f64 * link.transfer_seconds(shard_bytes, 1);
        self.charge_comm(self.collective_category(), s, label)
    }

    /// Ring all-reduce of `bytes` (reduce-scatter + all-gather over
    /// `bytes/P` shards). No-op on a single core.
    pub fn all_reduce(&mut self, bytes: f64, label: &'static str) -> f64 {
        let p = self.num_cores() as u32;
        if p <= 1 {
            return 0.0;
        }
        let link = self.topology.bottleneck();
        let s = 2.0 * (p - 1) as f64 * link.transfer_seconds(bytes / p as f64, 1);
        self.charge_comm(self.collective_category(), s, label)
    }

    // ------------------------------------------------------------------
    // Report assembly
    // ------------------------------------------------------------------

    /// Combines per-core kernel reports and a communication window into
    /// a pod-level report: compute/HBM are the *critical core's*
    /// (maximum latency), communication rides on top of the critical
    /// path, and the breakdown merges the critical core's categories
    /// with the window's ICI/DCN entries.
    ///
    /// `comm_mark` is the value of `comm_trace().entries().len()`
    /// captured before the kernel's collectives were charged.
    ///
    /// # Panics
    /// Panics if `per_core` is empty.
    pub fn assemble_report(
        &self,
        name: impl Into<String>,
        per_core: &[KernelReport],
        comm_mark: usize,
    ) -> PodKernelReport {
        assert!(!per_core.is_empty(), "no per-core reports");
        let critical = per_core
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.latency_s.total_cmp(&b.1.latency_s))
            .map(|(i, _)| i)
            .unwrap();
        let comm_entries = &self.comm.entries()[comm_mark..];
        // `+ 0.0` normalizes the empty sum's -0.0 (std's float `Sum`
        // folds from -0.0) without perturbing any nonzero value.
        let comm_s: f64 = comm_entries.iter().map(|e| e.seconds).sum::<f64>() + 0.0;
        let mut breakdown = per_core[critical].breakdown.clone();
        for e in comm_entries {
            match breakdown.iter_mut().find(|(c, _)| *c == e.category) {
                Some((_, s)) => *s += e.seconds,
                None => breakdown.push((e.category, e.seconds)),
            }
        }
        breakdown.sort_by(|a, b| b.1.total_cmp(&a.1));
        PodKernelReport {
            name: name.into(),
            latency_s: per_core[critical].latency_s + comm_s,
            compute_s: per_core[critical].compute_s,
            hbm_s: per_core[critical].hbm_s,
            comm_s,
            per_core_latency_s: per_core.iter().map(|r| r.latency_s).collect(),
            breakdown,
        }
    }
}

/// Pod-level kernel report: the critical core's roofline plus
/// critical-path communication.
#[derive(Debug, Clone)]
pub struct PodKernelReport {
    /// Kernel name.
    pub name: String,
    /// End-to-end modeled latency: `max(core latency) + comm`.
    pub latency_s: f64,
    /// Critical core's compute busy seconds.
    pub compute_s: f64,
    /// Critical core's HBM seconds.
    pub hbm_s: f64,
    /// Critical-path communication seconds (ICI + DCN).
    pub comm_s: f64,
    /// Modeled latency of every core (the load-balance picture).
    pub per_core_latency_s: Vec<f64>,
    /// Critical core's category breakdown merged with communication.
    pub breakdown: Vec<(Category, f64)>,
}

impl PodKernelReport {
    /// Latency in microseconds (the paper's reporting unit).
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }

    /// Fraction of end-to-end latency spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.latency_s > 0.0 {
            self.comm_s / self.latency_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_collectives_are_free() {
        let mut pod = PodSim::with_topology(TpuGeneration::V6e, Topology::zero_cost(1));
        assert_eq!(pod.broadcast(1e9, "b"), 0.0);
        assert_eq!(pod.all_gather(1e9, "g"), 0.0);
        assert_eq!(pod.all_reduce(1e9, "r"), 0.0);
        assert_eq!(pod.scatter(1e9, "s"), 0.0);
        assert_eq!(pod.comm_seconds(), 0.0);
        assert!(pod.comm_trace().entries().is_empty());
    }

    #[test]
    fn collectives_scale_with_cores_and_bytes() {
        let mut p4 = PodSim::new(TpuGeneration::V6e, 4);
        let mut p8 = PodSim::new(TpuGeneration::V6e, 8);
        let g4 = p4.all_gather(1e6, "g");
        let g8 = p8.all_gather(1e6, "g");
        assert!(g8 > g4, "more ring steps");
        let small = p4.all_gather(1e3, "g");
        assert!(small < g4, "fewer bytes");
        assert!(p4.comm_seconds() > 0.0);
    }

    #[test]
    fn cross_host_collectives_hit_dcn() {
        // 32 v6e cores span 4 hosts: the ring bottlenecks on DCN.
        let mut wide = PodSim::new(TpuGeneration::V6e, 32);
        let s = wide.broadcast(1e8, "key");
        let mut narrow = PodSim::new(TpuGeneration::V6e, 8);
        let t = narrow.broadcast(1e8, "key");
        assert!(s > t, "DCN-bound broadcast must be slower");
        assert_eq!(
            wide.comm_trace().entries()[0].category,
            Category::DcnTransfer
        );
        assert_eq!(
            narrow.comm_trace().entries()[0].category,
            Category::IciTransfer
        );
    }

    #[test]
    fn report_assembly_takes_critical_core_plus_comm() {
        let mut pod = PodSim::new(TpuGeneration::V6e, 2);
        let mark = pod.comm_trace().entries().len();
        let mut reports = Vec::new();
        for (i, elems) in [(0usize, 1 << 14), (1usize, 1 << 16)] {
            let sim = pod.core_mut(i);
            sim.begin_kernel("k");
            sim.charge_vpu(elems, 8, Category::VecModOps, "w");
            reports.push(sim.end_kernel());
        }
        let comm = pod.all_gather(1e6, "gather");
        let rep = pod.assemble_report("k", &reports, mark);
        assert_eq!(rep.per_core_latency_s.len(), 2);
        // Critical core is the slower one; comm rides on top.
        let max_core = reports[1].latency_s.max(reports[0].latency_s);
        assert!((rep.latency_s - (max_core + comm)).abs() < 1e-15);
        assert!(rep.comm_s > 0.0);
        assert!(rep
            .breakdown
            .iter()
            .any(|(c, s)| c.is_interconnect() && *s > 0.0));
    }

    #[test]
    fn ici_and_dcn_point_to_point() {
        let mut pod = PodSim::new(TpuGeneration::V4, 8);
        let i = pod.ici_transfer(1e6, 2, "p2p");
        let d = pod.dcn_transfer(1e6, "host hop");
        assert!(d > i, "DCN hop slower than 2 ICI hops for 1 MB");
        assert_eq!(pod.comm_trace().entries().len(), 2);
    }
}
