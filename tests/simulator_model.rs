//! Cost-model property tests: the simulator's latency surface must be
//! sane (deterministic, monotone, roofline-consistent) for the bench
//! harness results to be trustworthy.

use cross::ckks::costs;
use cross::tpu::{Category, TpuGeneration, TpuSim};

#[test]
fn mxu_time_monotone_in_every_dimension() {
    let s = TpuSim::new(TpuGeneration::V6e);
    let base = *s.spec();
    let t = |m: usize, k: usize, n: usize| {
        let sim = TpuSim::with_spec(base);
        sim.mxu_seconds(m, k, n)
    };
    assert!(t(512, 256, 256) >= t(256, 256, 256));
    assert!(t(256, 512, 256) >= t(256, 256, 256));
    assert!(t(256, 256, 512) >= t(256, 256, 256));
}

#[test]
fn vpu_time_monotone_and_roofline() {
    let s = TpuSim::new(TpuGeneration::V6e);
    // More ops per element → more time.
    assert!(s.vpu_seconds(1 << 16, 20, 0.0, 0.0) > s.vpu_seconds(1 << 16, 10, 0.0, 0.0));
    // Memory-bound regime: huge traffic with 1 op/elem is memory-limited.
    let alu_only = s.vpu_seconds(1024, 1, 0.0, 0.0);
    let mem_heavy = s.vpu_seconds(1024, 1, 1e9, 1e9);
    assert!(mem_heavy > 100.0 * alu_only);
}

#[test]
fn shuffle_time_decreases_with_run_length() {
    let s = TpuSim::new(TpuGeneration::V4);
    let mut prev = f64::INFINITY;
    for run in [1usize, 8, 64, 512, 4096] {
        let t = s.shuffle_seconds(1 << 16, run);
        assert!(t <= prev, "run {run}");
        prev = t;
    }
}

#[test]
fn kernel_latency_is_roofline_of_parts() {
    let mut s = TpuSim::new(TpuGeneration::V6e);
    s.begin_kernel("k");
    s.charge_vpu(1 << 20, 18, Category::VecModOps, "work");
    s.dma_in(1e6, "params");
    let r = s.end_kernel();
    assert!(r.latency_s >= r.compute_s && r.latency_s >= r.hbm_s);
    assert!(r.latency_s <= r.compute_s + r.hbm_s + s.spec().dispatch_s + 1e-12);
}

#[test]
fn he_op_costs_scale_with_limbs() {
    // Doubling the limb count must raise every backbone operator's cost.
    use cross::ckks::params::CkksParams;
    let small = CkksParams::new(1 << 13, 8, 2, 28);
    let large = CkksParams::new(1 << 13, 16, 2, 28);
    for spec in [
        &costs::HE_ADD,
        &costs::HE_MULT,
        &costs::RESCALE,
        &costs::ROTATE,
    ] {
        let top = |sim: &mut TpuSim, p: &CkksParams| {
            let bundle = spec.bundle("op", p, p.limbs, 1);
            costs::charge_op_mode(sim, p, &bundle, costs::ExecMode::Unfused).latency_s
        };
        let mut s1 = TpuSim::new(TpuGeneration::V6e);
        let mut s2 = TpuSim::new(TpuGeneration::V6e);
        assert!(top(&mut s2, &large) > top(&mut s1, &small));
    }
}

#[test]
fn ntt_batch_cost_subadditive_per_item() {
    // Per-NTT cost at batch 16 must not exceed per-NTT cost at batch 1
    // (parameter amortization) on any generation.
    for gen in TpuGeneration::ALL {
        let lat = |batch: usize| {
            let mut s = TpuSim::new(gen);
            s.begin_kernel("ntt");
            costs::charge_ntt_params(&mut s, 128, 32);
            costs::charge_ntt_batch(&mut s, 128, 32, batch, Category::NttMatMul);
            s.end_kernel().latency_s / batch as f64
        };
        assert!(lat(16) <= lat(1), "{gen}");
    }
}

#[test]
fn trace_breakdown_conserves_time() {
    let mut s = TpuSim::new(TpuGeneration::V5p);
    s.begin_kernel("k");
    costs::charge_ntt_batch(&mut s, 128, 64, 4, Category::NttMatMul);
    let r = s.end_kernel();
    let sum: f64 = r.breakdown.iter().map(|(_, t)| t).sum();
    assert!((sum - (r.compute_s + r.hbm_s)).abs() < 1e-12);
}

#[test]
fn power_matching_is_monotone_in_target() {
    use cross::tpu::power::cores_matching_power;
    let mut prev = 0;
    for watts in [50.0, 150.0, 300.0, 450.0, 700.0] {
        let c = cores_matching_power(TpuGeneration::V6e, watts);
        assert!(c >= prev);
        prev = c;
    }
}
