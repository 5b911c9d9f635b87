//! Table VIII: HE-operator latency on every TPU setup vs published
//! baselines, plus the energy-efficiency (throughput/W) comparison.
//!
//! Multi-core numbers come from [`cross_ckks::costs::charge_op_pod`] /
//! [`cross_ckks::costs::amortized_op_pod`] on a [`cross_tpu::PodSim`]
//! with the generation's ICI/DCN topology — two honest columns per op
//! (limb-parallel critical path, batch-parallel amortized throughput)
//! instead of the old single-core-latency-divided-by-cores shortcut.

use cross_baselines::devices::{HE_OP_BASELINES, PAPER_EFFICIENCY_RATIOS};
use cross_bench::{banner, pod_for, ratio, us, vm_setups, PodTable};
use cross_ckks::costs::{self, ExecMode};
use cross_ckks::params::CkksParams;
use cross_tpu::TpuGeneration;

/// Pod estimates for [Add, Mult, Rescale, Rotate]:
/// `(critical-path µs, comm share, amortized µs/op)` per operator.
fn backbone_pod_us(
    gen: TpuGeneration,
    cores: u32,
    params: &CkksParams,
    mode: ExecMode,
) -> [(f64, f64, f64); 4] {
    let mut pod = pod_for(gen, cores);
    let lat = costs::backbone_latencies_pod(&mut pod, params, mode);
    lat.map(|(_, rep, amortized)| (rep.latency_us(), rep.comm_fraction(), amortized * 1e6))
}

fn main() {
    banner("Table VIII: HE kernel latency (us) & efficiency — sharded PodSim estimates");
    let default_params = CkksParams::new(1 << 16, 51, 3, 28);

    // Default Set D block across all VM setups: one critical-path row
    // and one amortized row per setup (see README "Reading the bench
    // output").
    println!("CROSS default (Set D: N=2^16, L=51, dnum=3), XLA-unfused lowering:");
    let table = PodTable::us_cols(&["HE-Add", "HE-Mult", "Rescale", "Rotate"]);
    table.header("setup", "column");
    for (gen, cores, label) in vm_setups() {
        let l = backbone_pod_us(gen, cores, &default_params, ExecMode::Unfused);
        table.row(
            label,
            "critical",
            &[l[0].0, l[1].0, l[2].0, l[3].0],
            Some(l[1].1),
        );
        table.row("", "amortized", &[l[0].2, l[1].2, l[2].2, l[3].2], None);
    }
    table.row("paper", "amortized", &[3.5, 509.0, 77.0, 414.0], None);
    println!("(paper row: published v6e-8 amortized figures)");

    // The fused batch-major lowering (ROADMAP "batched HE-op cost
    // model"): same ops, step-3 tile padding amortized, VMEM-resident
    // intermediates.
    println!("\nFused batch-major lowering (v6e-8):");
    let unf = backbone_pod_us(TpuGeneration::V6e, 8, &default_params, ExecMode::Unfused);
    let fus = backbone_pod_us(TpuGeneration::V6e, 8, &default_params, ExecMode::FusedBatch);
    let fused_table = PodTable::us_cols(&["HE-Add", "HE-Mult", "Rescale", "Rotate"]).without_comm();
    fused_table.header("v6e-8", "column");
    for (name, row) in [("unfused", &unf), ("fused", &fus)] {
        fused_table.row("", name, &[row[0].0, row[1].0, row[2].0, row[3].0], None);
    }
    println!(
        "fused/unfused HE-Mult: {} (batch-major execution costed end to end)",
        ratio(unf[1].0 / fus[1].0)
    );

    // Per-baseline comparison with power-matched cores: amortized
    // throughput per op on a pod of `tpu_cores_matched` cores, keys
    // broadcast over ICI.
    banner("Per-baseline comparison (power-matched v6e cores, double-rescaled configs)");
    println!(
        "{:>10} {:>22} | {:>9} {:>9} | {:>24}",
        "baseline", "published Mult/Rot us", "oursMult", "oursRot", "efficiency Mult/Rot"
    );
    let mut measured_ratios: Vec<(String, f64, f64)> = Vec::new();
    for row in &HE_OP_BASELINES {
        let n = if row.system == "HEAP" {
            1 << 13
        } else {
            1 << 16
        };
        let params = CkksParams::new(n, row.cross_limbs, row.cross_dnum, 28);
        let cores = row.tpu_cores_matched;
        let mut pod = pod_for(TpuGeneration::V6e, cores);
        let mut amortized_s = |spec: &costs::OpSpec, name| {
            let bundle = spec.bundle(name, &params, params.limbs, 1);
            costs::amortized_op_pod(&mut pod, &params, &bundle, ExecMode::Unfused)
        };
        let mult_s = amortized_s(&costs::HE_MULT, "mult");
        let rot_s = amortized_s(&costs::ROTATE, "rot");
        // Energy efficiency: kernels/s/W on each side (ours = the
        // pod's amortized throughput at its matched power envelope).
        let our_watts = cores as f64 * TpuGeneration::V6e.spec().tc_watts;
        let eff_mult = (1.0 / mult_s / our_watts) / (1.0 / (row.mult_us * 1e-6) / row.tdp_watts);
        let eff_rot = (1.0 / rot_s / our_watts) / (1.0 / (row.rotate_us * 1e-6) / row.tdp_watts);
        measured_ratios.push((row.system.to_string(), eff_mult, eff_rot));
        println!(
            "{:>10} {:>10}/{:>11} | {:>9} {:>9} | Mult {:>7}  Rot {:>7}",
            row.system,
            us(row.mult_us),
            us(row.rotate_us),
            us(mult_s * 1e6),
            us(rot_s * 1e6),
            ratio(eff_mult),
            ratio(eff_rot),
        );
    }

    banner("Energy-efficiency ratios: paper vs this reproduction (HE-Mult / Rotate)");
    for (name, paper_mult, _, _, paper_rot) in PAPER_EFFICIENCY_RATIOS {
        if let Some((_, m, r)) = measured_ratios.iter().find(|(n, _, _)| n == name) {
            println!(
                "{:>10}: paper {:>7}/{:>7}   measured {:>7}/{:>7}",
                name,
                ratio(paper_mult),
                ratio(paper_rot),
                ratio(*m),
                ratio(*r)
            );
        }
    }
    println!("\nTakeaway: CROSS-on-TPU beats every commodity baseline (GPU/FPGA/CPU)");
    println!("in throughput/W while dedicated HE ASICs (CraterLake) keep a lead on");
    println!("Mult/Rotate — the same win/loss pattern as the paper's Tab. VIII —");
    println!("and multi-core speedup is now sublinear: ICI scatter/all-reduce cost");
    println!("rides the critical path instead of vanishing into a /cores division.");
}
