//! The modeled numbers, pinned across commits bit for bit.
//!
//! Every other model test compares two paths *of the same binary*
//! (`cost_graph` ≡ `charge_op_pod`, 1-core pod ≡ lone `TpuSim`, …), so
//! a refactor that moves both sides together passes them all. This
//! suite compares against `f64::to_bits` constants recorded from the
//! commit *before* the simulator's accounting was rewritten (PR 14),
//! which makes "every modeled value is unchanged" a failing test for
//! that rewrite and for every later `costs.rs`/`cross_tpu` refactor.
//!
//! A deliberate model change (a new charge, a recalibrated spec)
//! refreshes the table: run the test, and paste the `GOLDEN` block the
//! failure message prints. Say so in CHANGES.md — these constants are
//! the reproduction's numbers.

use cross_bench::workloads::{helr_iteration, helr_params, mnist_network, mnist_params};
use cross_ckks::costs::{backbone_latencies_pod, ExecMode};
use cross_ckks::params::{CkksParams, ParamSet};
use cross_sched::{cost_graph, HeOpKind, OpGraph, PassManager, Scheduler};
use cross_tpu::{PodSim, TpuGeneration};

const GEN: TpuGeneration = TpuGeneration::V6e;
const CORES: u32 = 8;

/// Recorded on the parent of PR 14 (commit 5eb67e8).
const GOLDEN: &[(&str, u64)] = &[
    ("backbone/HE-Add/latency_s", 0x3edfa3a5aee6a03b), // 7.54338428380496e-6
    ("backbone/HE-Add/amortized_s", 0x3edc28c8da5e9f51), // 6.71370381680871e-6
    ("backbone/HE-Mult/latency_s", 0x3f4801904e0d81e2), // 7.326082814920721e-4
    ("backbone/HE-Mult/amortized_s", 0x3f37fc3adc82f38f), // 3.659862236522976e-4
    ("backbone/Rescale/latency_s", 0x3f170ce74f606edf), // 8.793031506154233e-5
    ("backbone/Rescale/amortized_s", 0x3f14a9a6028173bc), // 7.882190459569579e-5
    ("backbone/Rotate/latency_s", 0x3f4698d5fe049f42), // 6.896061786720658e-4
    ("backbone/Rotate/amortized_s", 0x3f34fb1de4674371), // 3.2014350690894646e-4
    ("bootstrap/critical_s", 0x3fba3a872ef15059),      // 1.0245556732235296e-1
    ("bootstrap/amortized_s", 0x3fa49627c785f724),     // 4.020809469783007e-2
    ("bootstrap/comm_s", 0x3faf291cfc318bb6),          // 6.0860544e-2
    ("helr/before/critical_s", 0x3fabb775ef7edb5d),    // 5.413406895188786e-2
    ("helr/before/amortized_s", 0x3f965bfd5f395ffd),   // 2.183528798772726e-2
    ("helr/before/comm_s", 0x3fa01eb78c59fc26),        // 3.1484351999999924e-2
    ("helr/after/critical_s", 0x3faa25d584015734),     // 5.106990085975696e-2
    ("helr/after/amortized_s", 0x3f93637dc89d646a),    // 1.893421685176514e-2
    ("helr/after/comm_s", 0x3f9fa050ba4f1321),         // 3.0884991999999948e-2
    ("helr/scheduled/wall_s", 0x3f93e0f9e4388c57),     // 1.941290336084153e-2
    ("mnist/before/critical_s", 0x3f921ea1918ebc69),   // 1.7694973477486196e-2
    ("mnist/before/amortized_s", 0x3f7162e214786e59),  // 4.244692921499282e-3
    ("mnist/before/comm_s", 0x3f866144ad47e606),       // 1.0927711999999989e-2
    ("mnist/after/critical_s", 0x3f913da82915bd5f),    // 1.683676481974083e-2
    ("mnist/after/amortized_s", 0x3f6ca377500338f1),   // 3.495915443728064e-3
    ("mnist/after/comm_s", 0x3f86040a9e0b0fc4),        // 1.0749895999999988e-2
    ("mnist/scheduled/wall_s", 0x3f85e6b85429e13b),    // 1.069396979185965e-2
];

/// Before/after-optimizer graph cost plus the scheduled wall clock of
/// one recorded program, as the `helr`/`mnist` bins compute them.
fn program(out: &mut Vec<(String, f64)>, name: &str, params: &CkksParams, graph: &OpGraph) {
    let pm = PassManager::standard(GEN, CORES, ExecMode::FusedBatch);
    let optimized = pm.run(graph, params);
    let mut pod = PodSim::new(GEN, CORES);
    for (stage, g) in [("before", graph), ("after", &optimized.graph)] {
        let rep = cost_graph(&mut pod, params, g, ExecMode::FusedBatch);
        out.push((format!("{name}/{stage}/critical_s"), rep.critical_s));
        out.push((format!("{name}/{stage}/amortized_s"), rep.amortized_s));
        out.push((format!("{name}/{stage}/comm_s"), rep.comm_s));
    }
    let schedule = Scheduler::new(GEN, CORES).schedule(&optimized.graph, params);
    out.push((format!("{name}/scheduled/wall_s"), schedule.wall_s()));
}

/// Every pinned value, in table order.
fn modeled() -> Vec<(String, f64)> {
    let mut out = Vec::new();

    // Tab. VIII, v6e-8 Set D: the 7.54 / 733 / 87.9 / 690 µs row.
    let set_d = ParamSet::D.params();
    let mut pod = PodSim::new(GEN, CORES);
    for (op, rep, amortized) in backbone_latencies_pod(&mut pod, &set_d, ExecMode::Unfused) {
        out.push((format!("backbone/{op}/latency_s"), rep.latency_s));
        out.push((format!("backbone/{op}/amortized_s"), amortized));
    }

    let graph = OpGraph::single_op(HeOpKind::Bootstrap, set_d.limbs);
    let mut pod = PodSim::new(GEN, CORES);
    let rep = cost_graph(&mut pod, &set_d, &graph, ExecMode::Unfused);
    out.push(("bootstrap/critical_s".into(), rep.critical_s));
    out.push(("bootstrap/amortized_s".into(), rep.amortized_s));
    out.push(("bootstrap/comm_s".into(), rep.comm_s));

    let params = helr_params();
    program(&mut out, "helr", &params, &helr_iteration(params.limbs));
    let params = mnist_params();
    program(&mut out, "mnist", &params, &mnist_network(params.limbs));
    out
}

#[test]
fn modeled_values_match_the_recorded_bits() {
    let got = modeled();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((k, v), (gk, bits))| k == gk && v.to_bits() == *bits);
    let table = || -> String {
        got.iter()
            .map(|(k, v)| format!("    (\"{k}\", {:#018x}), // {v:e}\n", v.to_bits()))
            .collect()
    };
    assert!(
        same,
        "modeled values moved; if deliberate, replace GOLDEN with:\n{}",
        table()
    );
}

#[test]
fn the_pinned_backbone_row_is_the_published_one() {
    // Guards the table against being refreshed onto the wrong
    // configuration: these are the figures README/DESIGN quote.
    let us = |key: &str| {
        let bits = GOLDEN.iter().find(|(k, _)| *k == key).expect(key).1;
        f64::from_bits(bits) * 1e6
    };
    for (key, want) in [
        ("backbone/HE-Add/latency_s", 7.54),
        ("backbone/HE-Mult/latency_s", 733.0),
        ("backbone/Rescale/latency_s", 87.9),
        ("backbone/Rotate/latency_s", 690.0),
    ] {
        let got = us(key);
        assert!((got / want - 1.0).abs() < 5e-3, "{key}: {got} µs vs {want}");
    }
}
