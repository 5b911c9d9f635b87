//! Integration tests pinning the paper's *relative* claims — the
//! "shape" results this reproduction must preserve (see DESIGN.md).

use cross::baselines::gpu_style::{self, SparseMatMul};
use cross::ckks::costs::{self, ExecMode};
use cross::ckks::params::{CkksParams, ParamSet};
use cross::core::bat::matmul::BatMatMul;
use cross::core::bat::scalar;
use cross::tpu::{Category, TpuGeneration, TpuSim};

/// Paper §IV-A1: the sparse baseline matrix carries ≈43 % zeros; BAT's
/// dense form removes them, halving compute and memory.
#[test]
fn claim_bat_removes_toeplitz_zeros() {
    assert!((scalar::toeplitz_zero_fraction(4) - 0.4286).abs() < 1e-3);
    let bat_rows = 4;
    let sparse_rows = 7;
    assert!((sparse_rows as f64 / bat_rows as f64 - 1.75).abs() < 1e-12);
}

/// Paper Tab. V: BAT beats the sparse baseline by 1.26–1.62× on the
/// evaluated shapes — our simulated band must overlap the paper's.
#[test]
fn claim_table5_speedup_band() {
    for &(h, v, w) in &[(512usize, 256usize, 256usize), (2048, 2048, 2048)] {
        let mut s_bat = TpuSim::new(TpuGeneration::V6e);
        let mut s_sp = TpuSim::new(TpuGeneration::V6e);
        BatMatMul::charge_shape(&mut s_bat, h, v, w, 4, Category::NttMatMul);
        SparseMatMul::charge_shape(&mut s_sp, h, v, w, 4, Category::NttMatMul);
        let sp = s_sp.compute_seconds() / s_bat.compute_seconds();
        assert!((1.2..2.2).contains(&sp), "speedup {sp} for ({h},{v},{w})");
    }
}

/// Paper Tab. VI: BAT-BConv beats the VPU baseline, more at higher limb
/// counts.
#[test]
fn claim_bconv_speedup_grows_with_limbs() {
    let speedup = |l_in: usize, l_out: usize| {
        let n = 1 << 16;
        let mut s_base = TpuSim::new(TpuGeneration::V6e);
        s_base.charge_vpu(n * l_out, l_in as u32 * 20, Category::VecModOps, "hp");
        let mut s_bat = TpuSim::new(TpuGeneration::V6e);
        costs::charge_bconv(&mut s_bat, n, l_in, l_out, 1);
        s_base.compute_seconds() / s_bat.compute_seconds()
    };
    let small = speedup(12, 28);
    let large = speedup(24, 56);
    assert!(small > 1.5, "small {small}");
    assert!(large > small, "large {large} vs small {small}");
}

/// Paper Tab. X: the radix-2 butterfly on TPU loses to the MAT 3-step
/// NTT by an order of magnitude or more (20–35×).
#[test]
fn claim_mat_ntt_crushes_radix2_on_tpu() {
    for logn in [12u32, 14, 16] {
        let n = 1usize << logn;
        let (r, c) = cross::core::plan::standalone_ntt_rc(n);
        let batch = 128;
        let mut s_ct = TpuSim::new(TpuGeneration::V4);
        gpu_style::charge_ct_ntt(&mut s_ct, n, batch);
        let mut s_mat = TpuSim::new(TpuGeneration::V4);
        costs::charge_ntt_batch(&mut s_mat, r, c, batch, Category::NttMatMul);
        let ratio = s_ct.compute_seconds() / s_mat.compute_seconds();
        assert!(ratio > 10.0, "2^{logn}: ratio {ratio}");
    }
}

/// Paper Fig. 12: HE-Mult and Rotate are VPU-bound — VecModOps is the
/// single largest category and exceeds all MXU matmul time combined.
#[test]
fn claim_he_ops_are_vpu_bound() {
    let params = ParamSet::D.params();
    for (spec, name) in [(&costs::HE_MULT, "mult"), (&costs::ROTATE, "rotate")] {
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let bundle = spec.bundle(name, &params, params.limbs, 1);
        let rep = costs::charge_op_mode(&mut sim, &params, &bundle, ExecMode::Unfused);
        let vec: f64 = rep
            .breakdown
            .iter()
            .filter(|(c, _)| *c == Category::VecModOps)
            .map(|(_, s)| s)
            .sum();
        let mxu: f64 = rep
            .breakdown
            .iter()
            .filter(|(c, _)| c.is_mxu())
            .map(|(_, s)| s)
            .sum();
        assert!(vec > mxu, "{name}: vec {vec} mxu {mxu}");
    }
}

/// Paper Tab. VIII bottom: CROSS on v6e beats all commodity baselines
/// (CPU/GPU/FPGA) in HE-Mult throughput/W but loses to the CraterLake
/// HE ASIC.
#[test]
fn claim_efficiency_ordering() {
    use cross::baselines::devices::HE_OP_BASELINES;
    let v6e = TpuGeneration::V6e;
    let mut wins = 0;
    let mut craterlake_wins_us = false;
    for row in &HE_OP_BASELINES {
        let n = if row.system == "HEAP" {
            1 << 13
        } else {
            1 << 16
        };
        let params = CkksParams::new(n, row.cross_limbs, row.cross_dnum, 28);
        let mut sim = TpuSim::new(v6e);
        let bundle = costs::HE_MULT.bundle("m", &params, params.limbs, 1);
        let rep = costs::charge_op_mode(&mut sim, &params, &bundle, ExecMode::Unfused);
        let cores = row.tpu_cores_matched as f64;
        let ours = cores / rep.latency_s / (cores * v6e.spec().tc_watts);
        let theirs = 1.0 / (row.mult_us * 1e-6) / row.tdp_watts;
        let commodity = matches!(
            row.platform,
            p if p.contains("GPU") || p.contains("FPGA") || p.contains("CPU")
        );
        if commodity && ours > theirs {
            wins += 1;
        }
        if row.system == "CraterLake" && theirs > ours {
            craterlake_wins_us = true;
        }
    }
    assert!(
        wins >= 5,
        "CROSS must beat most commodity baselines: {wins}"
    );
    assert!(
        craterlake_wins_us,
        "the HE ASIC keeps its lead (paper §V-G)"
    );
}

/// Paper Fig. 11b: higher-degree sets reach peak throughput at smaller
/// batch sizes.
#[test]
fn claim_batch_knee_shrinks_with_degree() {
    let knee = |set: ParamSet| {
        let p = set.params();
        let (r, c) = cross::core::plan::standalone_ntt_rc(p.n);
        let mut best = (0.0f64, 1usize);
        for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let mut sim = TpuSim::new(TpuGeneration::V6e);
            sim.begin_kernel("ntt");
            costs::charge_ntt_params(&mut sim, r, c);
            costs::charge_ntt_batch(&mut sim, r, c, batch, Category::NttMatMul);
            sim.spill_check((batch * p.n * 48) as f64, 1);
            let rep = sim.end_kernel();
            let t = batch as f64 / rep.latency_s;
            if t > best.0 * 1.05 {
                best = (t, batch);
            }
        }
        best.1
    };
    let ka = knee(ParamSet::A);
    let kd = knee(ParamSet::D);
    assert!(ka > kd, "Set A knee {ka} must exceed Set D knee {kd}");
}

/// Paper §V-B takeaway: newer TPU generations are strictly faster for
/// the same NTT workload.
#[test]
fn claim_generation_scaling() {
    let mut prev = f64::INFINITY;
    for gen in [
        TpuGeneration::V4,
        TpuGeneration::V5e,
        TpuGeneration::V5p,
        TpuGeneration::V6e,
    ] {
        let mut sim = TpuSim::new(gen);
        sim.begin_kernel("ntt");
        costs::charge_ntt_batch(&mut sim, 128, 32, 16, Category::NttMatMul);
        let lat = sim.end_kernel().latency_s;
        assert!(lat < prev, "{gen} regressed: {lat} vs {prev}");
        prev = lat;
    }
}
