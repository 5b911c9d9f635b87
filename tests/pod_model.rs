//! Interconnect-model properties (ISSUE 3).
//!
//! Two contracts keep the multi-chip estimates honest:
//!
//! 1. **Degenerate exactness** — a [`PodSim`] with one core and
//!    zero-cost links must reproduce the single-[`TpuSim`] estimates
//!    *bit for bit*: the sharded path may not perturb the numbers the
//!    paper-claims suite pins.
//! 2. **Monotonicity** — adding cores never increases the critical
//!    core's compute, always charges ≥ 0 communication, and never
//!    yields super-linear speedup (communication is charged on the
//!    critical path, so speedup < P for every keyed operator).

use cross::ckks::bootstrap::{self, BootstrapCounts};
use cross::ckks::costs::{self, ExecMode, OpBundle};
use cross::ckks::params::{CkksParams, ParamSet};
use cross::sched::{cost_graph, HeOpKind, OpGraph};
use cross::tpu::topology::Topology;
use cross::tpu::{PodSim, TpuGeneration, TpuSim};
use proptest::prelude::*;

/// The four backbone operators at level `l`, with their key traffic.
fn backbone_ops(params: &CkksParams, l: usize) -> [OpBundle; 4] {
    [
        ("add", &costs::HE_ADD),
        ("mult", &costs::HE_MULT),
        ("rescale", &costs::RESCALE),
        ("rotate", &costs::ROTATE),
    ]
    .map(|(name, spec)| spec.bundle(name, params, l, 1))
}

/// HE-Mult at level `l`, optionally with its key traffic zeroed.
fn mult_bundle(params: &CkksParams, l: usize, keyed: bool) -> OpBundle {
    let bundle = costs::HE_MULT.bundle("m", params, l, 1);
    OpBundle {
        key_bytes: if keyed { bundle.key_bytes } else { 0.0 },
        ..bundle
    }
}

#[test]
fn one_core_zero_link_pod_is_bit_identical_to_tpusim() {
    for gen in TpuGeneration::ALL {
        for set in [ParamSet::A, ParamSet::B, ParamSet::C, ParamSet::D] {
            let params = set.params();
            for op in backbone_ops(&params, params.limbs) {
                let name = op.name;
                let mut sim = TpuSim::new(gen);
                let single = costs::charge_op_mode(&mut sim, &params, &op, ExecMode::Unfused);
                let mut pod = PodSim::with_topology(gen, Topology::zero_cost(1));
                let sharded = costs::charge_op_pod(&mut pod, &params, &op, ExecMode::Unfused);
                assert_eq!(
                    single.latency_s.to_bits(),
                    sharded.latency_s.to_bits(),
                    "{gen} {} {name}: latency drifted",
                    set.name()
                );
                assert_eq!(single.compute_s.to_bits(), sharded.compute_s.to_bits());
                assert_eq!(single.hbm_s.to_bits(), sharded.hbm_s.to_bits());
                assert_eq!(sharded.comm_s, 0.0, "no links, no communication");
            }
        }
    }
}

#[test]
fn one_core_zero_link_bootstrap_matches_single_core_estimate() {
    let params = ParamSet::C.params();
    // The oracle: every bootstrap bundle charged `times` times, in
    // order, on one lone tensor core.
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    let mut single = 0.0;
    for b in bootstrap::op_bundles(&params, &BootstrapCounts::packed(&params)) {
        if b.times > 0 {
            let rep = costs::charge_op_mode(&mut sim, &params, &b, ExecMode::Unfused);
            single += rep.latency_s * b.times as f64;
        }
    }
    let graph = OpGraph::single_op(HeOpKind::Bootstrap, params.limbs);
    let mut pod = PodSim::with_topology(TpuGeneration::V6e, Topology::zero_cost(1));
    let sharded = cost_graph(&mut pod, &params, &graph, ExecMode::Unfused);
    assert_eq!(
        single.to_bits(),
        sharded.critical_s.to_bits(),
        "bootstrap estimate drifted through the pod path"
    );
    // Amortizing over one core is the same single bootstrapping.
    assert_eq!(single.to_bits(), sharded.amortized_s.to_bits());
    assert_eq!(sharded.comm_s, 0.0, "no links, no communication");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the degenerate-exactness contract over random
    /// parameter shapes and levels.
    #[test]
    fn prop_one_core_zero_link_exactness(
        logn in 12u32..15,
        limbs in 2usize..24,
        level in 2usize..24,
        keyed in any::<bool>(),
    ) {
        let limbs = limbs.max(2);
        let l = level.clamp(2, limbs);
        let params = CkksParams::new(1usize << logn, limbs, limbs.min(3), 28);
        let op = mult_bundle(&params, l, keyed);
        let mut sim = TpuSim::new(TpuGeneration::V5p);
        let single = costs::charge_op_mode(&mut sim, &params, &op, ExecMode::Unfused);
        let mut pod = PodSim::with_topology(TpuGeneration::V5p, Topology::zero_cost(1));
        let sharded = costs::charge_op_pod(&mut pod, &params, &op, ExecMode::Unfused);
        prop_assert_eq!(single.latency_s.to_bits(), sharded.latency_s.to_bits());
        prop_assert_eq!(single.compute_s.to_bits(), sharded.compute_s.to_bits());
    }

    /// Monotonicity: more cores never increase the critical core's
    /// compute; communication is never negative and appears as soon as
    /// a keyed op is sharded; speedup stays sublinear.
    #[test]
    fn prop_scaling_monotonicity(
        limbs in 4usize..32,
        keyed in any::<bool>(),
    ) {
        let params = CkksParams::new(1 << 13, limbs, 3, 28);
        let op = mult_bundle(&params, limbs, keyed);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let single = costs::charge_op_mode(&mut sim, &params, &op, ExecMode::Unfused);
        let mut prev_compute = f64::INFINITY;
        for cores in [1u32, 2, 4, 8, 16] {
            let mut pod = PodSim::new(TpuGeneration::V6e, cores);
            let rep = costs::charge_op_pod(&mut pod, &params, &op, ExecMode::Unfused);
            prop_assert!(rep.compute_s <= prev_compute + 1e-15,
                "compute grew at {cores} cores: {} > {prev_compute}", rep.compute_s);
            prev_compute = rep.compute_s;
            prop_assert!(rep.comm_s >= 0.0, "negative communication");
            if cores == 1 {
                prop_assert_eq!(rep.comm_s, 0.0);
            } else if keyed {
                prop_assert!(rep.comm_s > 0.0, "keyed sharded op must communicate");
            }
            // Communication on the critical path forbids super-linear
            // speedup.
            prop_assert!(rep.latency_s * (cores as f64) >= single.latency_s * (1.0 - 1e-12),
                "super-linear speedup at {cores} cores");
        }
    }

    /// Amortized batch-parallel throughput is also sublinear: `P` cores
    /// complete `P` ops no faster than `P times one core's rate`, and
    /// keyed ops pay a broadcast.
    #[test]
    fn prop_amortized_throughput_sublinear(
        limbs in 4usize..24,
    ) {
        let params = CkksParams::new(1 << 13, limbs, 3, 28);
        let op = costs::ROTATE.bundle("r", &params, limbs, 1);
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let single = costs::charge_op_mode(&mut sim, &params, &op, ExecMode::Unfused).latency_s;
        let mut prev = f64::INFINITY;
        for cores in [1u32, 2, 4, 8] {
            let mut pod = PodSim::new(TpuGeneration::V6e, cores);
            let amortized = costs::amortized_op_pod(&mut pod, &params, &op, ExecMode::Unfused);
            prop_assert!(amortized <= prev * (1.0 + 1e-12), "amortized cost grew with cores");
            prev = amortized;
            // Never better than the communication-free ideal.
            prop_assert!(amortized >= single / cores as f64 - 1e-15);
            if cores > 1 {
                prop_assert!(amortized > single / cores as f64,
                    "broadcast must make amortized throughput sublinear");
            }
        }
    }
}

#[test]
fn wide_pods_cross_hosts_and_slow_down_per_step() {
    // Same total work, but a 32-core v6e slice spans 4 hosts: its
    // collectives bottleneck on DCN, so communication per op exceeds
    // the single-host 8-core slice's.
    let params = ParamSet::D.params();
    let op = mult_bundle(&params, params.limbs, true);
    let mut host = PodSim::new(TpuGeneration::V6e, 8);
    let mut pod32 = PodSim::new(TpuGeneration::V6e, 32);
    assert!(!host.topology().crosses_hosts());
    assert!(pod32.topology().crosses_hosts());
    let r8 = costs::charge_op_pod(&mut host, &params, &op, ExecMode::Unfused);
    let r32 = costs::charge_op_pod(&mut pod32, &params, &op, ExecMode::Unfused);
    assert!(
        r32.comm_s > r8.comm_s,
        "DCN-bound communication must dominate: {} vs {}",
        r32.comm_s,
        r8.comm_s
    );
    // With Set D's 51 limbs, 4x the cores cannot pay for DCN crossings:
    // the wide slice is slower end to end — exactly the honesty the
    // naive /cores division hid.
    assert!(r32.latency_s > r8.latency_s);
}

#[test]
fn fused_mode_helps_on_pods_too() {
    let params = ParamSet::D.params();
    let op = mult_bundle(&params, params.limbs, true);
    let mut p1 = PodSim::new(TpuGeneration::V6e, 8);
    let mut p2 = PodSim::new(TpuGeneration::V6e, 8);
    let unfused = costs::charge_op_pod(&mut p1, &params, &op, ExecMode::Unfused);
    let fused = costs::charge_op_pod(&mut p2, &params, &op, ExecMode::FusedBatch);
    assert!(fused.latency_s < unfused.latency_s);
    // Communication is lowering-independent.
    assert!((fused.comm_s - unfused.comm_s).abs() < 1e-15);
}

/// What one limb-parallel Set D HE-Mult records on a reset v6e-8 pod:
/// the kernel entries on each core and the collectives on the links.
/// A count needs no clock, so it pins the charge's bookkeeping where a
/// host timing could only bound it; a change that adds or drops a
/// charged kernel or collective restates it here. The kernel counts
/// are split over the cores with the remainder on the first ones, and
/// a core whose share of a count is zero records nothing for it, so
/// the last three cores record one or two entries fewer.
#[test]
fn set_d_mult_on_v6e8_records_fixed_entries() {
    let params = ParamSet::D.params();
    let bundle = costs::HE_MULT.bundle("HE-Mult", &params, params.limbs, 1);
    let mut pod = PodSim::new(TpuGeneration::V6e, 8);
    for _ in 0..2 {
        pod.reset();
        costs::charge_op_pod(&mut pod, &params, &bundle, ExecMode::Unfused);
        let per_core: Vec<usize> = (0..pod.num_cores())
            .map(|i| pod.core(i).trace().entries().len())
            .collect();
        assert_eq!(per_core, [74, 74, 74, 74, 74, 73, 72, 72]);
        let comm: Vec<&str> = pod.comm_trace().entries().iter().map(|e| e.label).collect();
        assert_eq!(
            comm,
            [
                "switching-key scatter",
                "bconv source-limb all-gather",
                "key-switch partial-sum all-reduce",
            ]
        );
    }
}
