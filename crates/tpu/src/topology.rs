//! Interconnect topology of a multi-core TPU slice.
//!
//! The paper's VM setups (Tab. IV: v4-8, v5litepod-4, v5p-8, v6e-4/8)
//! are *single hosts* whose tensor cores talk over the inter-chip
//! interconnect (ICI — a ring/torus of neighbor links); anything larger
//! crosses the data-center network (DCN) between hosts. A [`Topology`]
//! captures both tiers so [`crate::pod::PodSim`] can charge honest
//! communication costs instead of dividing latency by the core count.
//!
//! Bandwidths here are decimal GB/s (`1e9` B/s, matching vendor link
//! datasheets), unlike the GiB/s used for HBM/VMEM in [`crate::spec`].

use crate::spec::TpuGeneration;

/// One interconnect tier: bandwidth plus a fixed per-hop latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in decimal GB/s (1e9 bytes/second), one direction.
    pub gbs: f64,
    /// Fixed per-hop latency in seconds.
    pub hop_s: f64,
}

impl LinkSpec {
    /// A link with infinite bandwidth and zero latency — the
    /// degenerate configuration under which a multi-core estimate must
    /// collapse to the single-core one (pinned by `tests/pod_model.rs`).
    pub(crate) const ZERO_COST: LinkSpec = LinkSpec {
        gbs: f64::INFINITY,
        hop_s: 0.0,
    };

    /// Seconds for one point-to-point transfer of `bytes` over this
    /// link (`hops` serialized hop latencies + bandwidth term).
    pub(crate) fn transfer_seconds(&self, bytes: f64, hops: u32) -> f64 {
        hops as f64 * self.hop_s + bytes / (self.gbs * 1e9)
    }
}

/// Shape of a multi-core slice: how many tensor cores participate, how
/// many share one host's ICI domain, and the two link tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Participating tensor cores.
    pub cores: u32,
    /// Tensor cores per host (one ICI domain). Collectives spanning
    /// more than one host bottleneck on the DCN tier.
    pub cores_per_host: u32,
    /// Intra-host inter-chip interconnect.
    pub ici: LinkSpec,
    /// Cross-host data-center network.
    pub dcn: LinkSpec,
}

impl Topology {
    /// The topology of `cores` tensor cores of `gen`, using the
    /// generation's published ICI/DCN figures and its Tab. IV VM size
    /// as the host boundary.
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub(crate) fn for_generation(gen: TpuGeneration, cores: u32) -> Self {
        assert!(cores >= 1, "need at least one core");
        let s = gen.spec();
        Self {
            cores,
            cores_per_host: s.tensor_cores,
            ici: LinkSpec {
                gbs: s.ici_gbs,
                hop_s: s.ici_hop_s,
            },
            dcn: LinkSpec {
                gbs: s.dcn_gbs,
                hop_s: s.dcn_hop_s,
            },
        }
    }

    /// A free interconnect: `cores` cores with `LinkSpec::ZERO_COST`
    /// links and a single host. With `cores == 1` this is the exact
    /// single-[`crate::TpuSim`] reference configuration.
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn zero_cost(cores: u32) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self {
            cores,
            cores_per_host: cores,
            ici: LinkSpec::ZERO_COST,
            dcn: LinkSpec::ZERO_COST,
        }
    }

    /// Hosts spanned by this topology.
    pub fn hosts(&self) -> u32 {
        self.cores.div_ceil(self.cores_per_host)
    }

    /// The slowest link class a ring over all cores traverses: ICI
    /// within one host, DCN as soon as the ring spans hosts. Ring
    /// collectives serialize on this bottleneck.
    pub(crate) fn bottleneck(&self) -> LinkSpec {
        if self.hosts() > 1 {
            self.dcn
        } else {
            self.ici
        }
    }

    /// Whether collective steps cross hosts (and should be charged to
    /// [`crate::Category::DcnTransfer`] rather than
    /// [`crate::Category::IciTransfer`]).
    pub fn crosses_hosts(&self) -> bool {
        self.hosts() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_topologies_are_single_host_at_vm_size() {
        for gen in TpuGeneration::ALL {
            let vm = gen.spec().tensor_cores;
            let t = Topology::for_generation(gen, vm);
            assert_eq!(t.hosts(), 1, "{gen}");
            assert!(!t.crosses_hosts());
            assert_eq!(t.bottleneck(), t.ici);
        }
    }

    #[test]
    fn oversized_slice_crosses_to_dcn() {
        let t = Topology::for_generation(TpuGeneration::V6e, 32);
        assert_eq!(t.hosts(), 4);
        assert!(t.crosses_hosts());
        assert_eq!(t.bottleneck(), t.dcn);
        // DCN is strictly the slower tier.
        assert!(t.dcn.gbs < t.ici.gbs);
        assert!(t.dcn.hop_s > t.ici.hop_s);
    }

    #[test]
    fn transfer_seconds_linear_in_bytes_and_hops() {
        let l = LinkSpec {
            gbs: 100.0,
            hop_s: 1e-6,
        };
        let t1 = l.transfer_seconds(1e9, 1);
        assert!((t1 - (1e-6 + 0.01)).abs() < 1e-12);
        assert!(l.transfer_seconds(2e9, 1) > t1);
        assert!(l.transfer_seconds(1e9, 3) > t1);
    }

    #[test]
    fn zero_cost_links_are_free() {
        let t = Topology::zero_cost(4);
        assert_eq!(t.ici.transfer_seconds(1e12, 7), 0.0);
        assert_eq!(t.hosts(), 1);
    }

    #[test]
    fn ici_bandwidth_increases_within_chip_class() {
        // e-class: v5e -> v6e; p-class: v4 -> v5p (per-TC figures).
        assert!(TpuGeneration::V6e.spec().ici_gbs > TpuGeneration::V5e.spec().ici_gbs);
        assert!(TpuGeneration::V5p.spec().ici_gbs > TpuGeneration::V4.spec().ici_gbs);
    }
}
