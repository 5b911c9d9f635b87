//! Table IX: packed bootstrapping latency and v6e-8 breakdown.
//!
//! Bootstrapping is a single `Bootstrap` node in the
//! [`cross_sched::OpGraph`] IR, expanded by
//! [`cross_sched::cost_graph`] into the Tab. IX kernel bundles
//! ([`cross_ckks::bootstrap::op_bundles`]) and charged on a
//! [`cross_tpu::PodSim`]; every row is pinned bit for bit in
//! `tests/model_golden.rs`. Every row charges explicit ICI/DCN
//! communication; the old "single-core latency divided by core count"
//! shortcut is gone.

use cross_baselines::devices::{BOOTSTRAP_BASELINES, PAPER_BOOTSTRAP_BREAKDOWN};
use cross_bench::{banner, pod_for, print_breakdown, ratio, vm_setups, PodTable};
use cross_ckks::costs::ExecMode;
use cross_ckks::params::ParamSet;
use cross_sched::{cost_graph, HeOpKind, OpGraph};

fn main() {
    banner("Table IX: packed bootstrapping (Set D), latency in ms");
    let params = ParamSet::D.params();
    let graph = OpGraph::single_op(HeOpKind::Bootstrap, params.limbs);
    let table = PodTable::ms_cols(&["critical", "amortized"]).label_width(22);
    table.header("system", "");
    for (name, ms) in BOOTSTRAP_BASELINES {
        table.row(name, "published", &[f64::NAN, ms], None);
    }
    let mut v6e8 = 0.0;
    let mut v6e8_breakdown = Vec::new();
    for (gen, cores, label) in vm_setups() {
        let mut pod = pod_for(gen, cores);
        let est = cost_graph(&mut pod, &params, &graph, ExecMode::Unfused);
        if label == "v6e-8" {
            v6e8 = est.amortized_ms();
            v6e8_breakdown = est.breakdown.clone();
        }
        table.row(
            label,
            "simulated",
            &[est.critical_ms(), est.amortized_ms()],
            Some(est.comm_s / est.critical_s),
        );
    }
    let cheddar = BOOTSTRAP_BASELINES[1].1;
    let craterlake = BOOTSTRAP_BASELINES[2].1;
    println!(
        "\nv6e-8 (amortized) vs Cheddar: {} (paper 1.5x) | vs CraterLake: {} (paper 0.2x)",
        ratio(cheddar / v6e8),
        ratio(craterlake / v6e8)
    );

    banner("v6e bootstrapping breakdown (paper Tab. IX row)");
    // One tensor core: the apples-to-apples comparison with the
    // paper's published percentages (on a 1-core pod the graph costs
    // exactly its bundles charged on a lone TpuSim).
    let mut single = pod_for(cross_tpu::TpuGeneration::V6e, 1);
    let est = cost_graph(&mut single, &params, &graph, ExecMode::Unfused);
    println!("one tensor core:");
    print_breakdown(&est.breakdown);
    println!("paper:");
    for (name, f) in PAPER_BOOTSTRAP_BREAKDOWN {
        println!("{:>16}: {:>5.1}%", name, f * 100.0);
    }
    // The sharded profile adds the interconnect slice.
    let ici: f64 = v6e8_breakdown
        .iter()
        .filter(|(c, _)| c.is_interconnect())
        .map(|(_, f)| *f)
        .sum();
    println!(
        "\nv6e-8 sharded: ICI/DCN communication is {:.1}% of busy time — the",
        ici * 100.0
    );
    println!("Tab. VIII/IX columns are communication-bound at 8 cores (DESIGN.md).");
    println!("\nTakeaway: automorphism permutations and VecModMul dominate, MatMuls");
    println!("stay minor — the VPU-bound profile the paper reports — while the ICI");
    println!("share is the price of honest multi-core sharding.");
}
