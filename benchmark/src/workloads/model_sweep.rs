//! `model_sweep`: no ciphertexts. One round compiles the four recorded
//! programs for v6e-8 — every standard pass alone and together,
//! `Scheduler::schedule`, `naive_wall_s`, `cost_graph` — and then
//! charges every published CROSS table row on the simulator.
//!
//! The functional path does no work here: a `poly` or `ckks` kernel
//! optimisation must leave this workload unchanged, and a simulator or
//! cost-model refactor must leave every modeled number bit-identical.

use super::graphs::{self, Program};
use super::paper_rows::{self, Charged, Row, Table};
use super::{Outcome, RunCfg};
use crate::metrics::Values;
use crate::oracle::Tally;
use crate::span::{self, Tracer};
use crate::stats;
use cross_ckks::costs::ExecMode;
use cross_sched::{
    cost_graph, Cse, HeOpKind, HoistRotations, Pass, PassManager, RotationDedup, Schedule,
    Scheduler, Waterline,
};
use cross_tpu::{Category, PodSim, TpuGeneration};
use std::collections::BTreeMap;
use std::time::Instant;

/// Tail percentile: a 20 s run makes about four rounds, which
/// supports no percentile above the median (nor, strictly, that).
const TAIL_P: f64 = 0.50;

const GEN: TpuGeneration = TpuGeneration::V6e;
const CORES: u32 = 8;
const MODE: ExecMode = ExecMode::FusedBatch;

/// Span name of each pass run alone, and its metric.
const PASSES: [(&str, &str); 4] = [
    ("sched.pass_waterline", "sched.pass_waterline_ms"),
    ("sched.pass_dedup", "sched.pass_dedup_ms"),
    ("sched.pass_cse", "sched.pass_cse_ms"),
    ("sched.pass_hoist", "sched.pass_hoist_ms"),
];

/// Every modeled value and count a round produces, by metric name.
/// Two rounds of one build must agree bit for bit.
type Modeled = BTreeMap<&'static str, f64>;

/// What compiling one program yields.
struct Compiled {
    speedup: f64,
    ops_in: usize,
    ops_out: usize,
    hoist_groups: usize,
    wall_ms: f64,
}

/// `--quick` skips the `cost_graph` oracle on programs larger than
/// this many ops: it is nine tenths of a round's host time.
const QUICK_COST_ORACLE_MAX_OPS: usize = 1000;

fn compile(p: &Program, quick: bool, tr: &mut Tracer, id: u64, tally: &mut Tally) -> Compiled {
    let hoist = HoistRotations {
        gen: GEN,
        cores: CORES,
        mode: MODE,
    };
    let alone: [&dyn Pass; 4] = [&Waterline, &RotationDedup, &Cse, &hoist];
    for (pass, (name, _)) in alone.into_iter().zip(PASSES) {
        std::hint::black_box(tr.leaf(name, id, || pass.run(&p.graph, &p.params)));
    }
    let optimized = tr.leaf("sched.opt", id, || {
        PassManager::standard(GEN, CORES, MODE).run(&p.graph, &p.params)
    });
    let scheduler = Scheduler::new(GEN, CORES).with_optimize(true);
    let schedule = tr.leaf("sched.schedule", id, || {
        scheduler.schedule(&optimized.graph, &p.params)
    });
    let naive_s = tr.leaf("sched.naive_wall", id, || {
        scheduler.naive_wall_s(&p.graph, &p.params)
    });
    // The passes may never make the modeled cost worse, and the fused
    // schedule must beat dispatching every op alone.
    if !quick || p.graph.op_count() <= QUICK_COST_ORACLE_MAX_OPS {
        let (before, after) = tr.leaf("sched.cost_graph", id, || {
            let mut pod = PodSim::new(GEN, CORES);
            let before = cost_graph(&mut pod, &p.params, &p.graph, MODE);
            let after = cost_graph(&mut pod, &p.params, &optimized.graph, MODE);
            (before, after)
        });
        tally.record(
            after.critical_s <= before.critical_s && after.amortized_s <= before.amortized_s,
        );
    }
    tally.record(schedule.wall_s() < naive_s);
    Compiled {
        speedup: naive_s / schedule.wall_s(),
        ops_in: p.graph.op_count(),
        ops_out: optimized.graph.op_count(),
        hoist_groups: optimized
            .graph
            .nodes()
            .iter()
            .filter(|n| n.kind == HeOpKind::HoistDecomp)
            .count(),
        wall_ms: schedule.wall_s() * 1e3,
    }
}

/// The optimised HELR graph scheduled on one v6e core, which §V-D's
/// published HELR figure is compared with.
fn helr_one_core(helr: &Program) -> Schedule {
    let optimized = PassManager::standard(GEN, CORES, MODE).run(&helr.graph, &helr.params);
    Scheduler::new(GEN, 1)
        .with_optimize(true)
        .schedule(&optimized.graph, &helr.params)
}

fn share(breakdown: &[(Category, f64)], keep: impl Fn(Category) -> bool) -> f64 {
    let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
    breakdown
        .iter()
        .filter(|(c, _)| keep(*c))
        .map(|(_, s)| s)
        .sum::<f64>()
        / total
        + 0.0
}

fn median_err(rows: &[Row], keep: impl Fn(&Row) -> bool) -> f64 {
    let errs: Vec<f64> = rows.iter().filter(|r| keep(r)).map(Row::err_pct).collect();
    stats::median(&errs)
}

/// One round over `programs`; returns its host time in milliseconds,
/// the modeled values, and the charged rows.
fn round(
    programs: &[Program],
    quick: bool,
    tr: &mut Tracer,
    id: u64,
    tally: &mut Tally,
) -> (f64, Modeled, Charged) {
    let t0 = Instant::now();
    let (compiled, charged) = tr.span("round", id, |tr| {
        let compiled: Vec<Compiled> = programs
            .iter()
            .map(|p| tr.span("program", id, |tr| compile(p, quick, tr, id, tally)))
            .collect();
        let helr = tr.leaf("sched.helr_one_core", id, || helr_one_core(&programs[0]));
        let charged = tr.leaf("tpu.paper_rows", id, || {
            paper_rows::charge_all(&programs[1], &helr)
        });
        (compiled, charged)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut m = Modeled::new();
    let speedups: Vec<f64> = compiled.iter().map(|c| c.speedup).collect();
    m.insert("sched_speedup_x", stats::geomean(&speedups));
    m.insert(
        "sched.ops_in",
        compiled.iter().map(|c| c.ops_in).sum::<usize>() as f64,
    );
    m.insert(
        "sched.ops_out",
        compiled.iter().map(|c| c.ops_out).sum::<usize>() as f64,
    );
    m.insert(
        "sched.hoist_groups",
        compiled.iter().map(|c| c.hoist_groups).sum::<usize>() as f64,
    );
    m.insert("tpu.modeled_helr_ms", compiled[0].wall_ms);
    m.insert("tpu.modeled_mnist_ms", compiled[1].wall_ms);

    let [_, mult, rescale, rotate] = &charged.v6e8_backbone;
    m.insert("tpu.modeled_he_mult_us", mult.latency_us());
    m.insert("tpu.modeled_rotate_us", rotate.latency_us());
    m.insert("tpu.modeled_rescale_us", rescale.latency_us());
    m.insert("tpu.modeled_bootstrap_ms", charged.v6e8_bootstrap_ms);
    m.insert("tpu.mxu_share", share(&mult.breakdown, Category::is_mxu));
    m.insert(
        "tpu.vpu_share",
        share(&mult.breakdown, |c| c == Category::VecModOps),
    );
    m.insert(
        "tpu.permute_share",
        share(&mult.breakdown, |c| c == Category::Permutation),
    );
    m.insert(
        "tpu.hbm_share",
        share(&mult.breakdown, |c| c == Category::DmaHbm),
    );
    m.insert(
        "tpu.ici_share",
        share(&mult.breakdown, Category::is_interconnect),
    );

    let rows = &charged.rows;
    tally.record(
        rows.iter()
            .all(|r| r.modeled.is_finite() && r.modeled > 0.0),
    );
    m.insert("baselines.rows", rows.len() as f64);
    for table in Table::ALL {
        m.insert(table.metric(), median_err(rows, |r| r.table == table));
    }
    m.insert("paper_err_median_pct", median_err(rows, |_| true));
    m.insert(
        "baselines.err_max_pct",
        rows.iter().map(Row::err_pct).fold(0.0, f64::max),
    );
    (ms, m, charged)
}

fn bit_identical(a: &Modeled, b: &Modeled) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    // Set-up records the programs and warms the compile path on the two
    // small ones (helr, argmax4), so `setup_s` is long enough to read.
    let (programs, setup_s) = super::timed_setup(cfg.quick, || {
        let programs = graphs::programs();
        let mut warm = Tally::default();
        for p in [&programs[0], &programs[2]] {
            compile(p, cfg.quick, &mut Tracer::off(), 0, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up compile failed its oracle");
        programs
    });
    let mut tally = Tally::default();
    let mut values = Values::new();
    let mut notes = Vec::new();
    let mut first: Option<Modeled> = None;
    let mut last_charged = None;
    // Every round must reproduce the first round's modeled values.
    let mut one_round = |tr: &mut Tracer, i: u64, tally: &mut Tally| {
        let (ms, modeled, charged) = round(&programs, cfg.quick, tr, i, tally);
        last_charged = Some(charged);
        match &first {
            Some(f) => tally.record(bit_identical(f, &modeled)),
            None => first = Some(modeled),
        }
        ms
    };

    if !cfg.trace {
        let round_ms = super::closed_loop(cfg.seconds, |i| {
            one_round(&mut Tracer::off(), i, &mut tally)
        });
        super::single_caller_values(&mut values, &mut notes, setup_s, &round_ms, TAIL_P);
        return Outcome {
            tally,
            values,
            notes,
        };
    }

    let (spans, overhead) = super::traced_phases(cfg.seconds, |tr, i| one_round(tr, i, &mut tally));
    values.extend(first.expect("at least one round ran"));
    values.insert("trace_overhead_pct", overhead);

    // Host time per round of each stage, summed over the four programs.
    let per_round = |name: &str| -> f64 {
        let mut by_round: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.id).or_default() += s.ms();
        }
        stats::median(&by_round.into_values().collect::<Vec<f64>>())
    };
    for (name, metric) in PASSES {
        values.insert(metric, per_round(name));
    }
    values.insert("sched.opt_ms", per_round("sched.opt"));
    values.insert("sched.schedule_ms", per_round("sched.schedule"));
    values.insert("sched.cost_graph_ms", per_round("sched.cost_graph"));
    values.insert(
        "sched.stage_residual_pct",
        super::residual_pct(&spans, "round"),
    );
    let rows_s = stats::median(&span::durations_ms(&spans, "tpu.paper_rows")) / 1e3;
    let charged = last_charged.expect("at least one round ran");
    values.insert("tpu.charges_per_host_s", charged.charges as f64 / rows_s);

    let rounds = spans.iter().filter(|s| s.name == "round").count();
    notes.push(format!(
        "programs compiled per round: {}",
        programs
            .iter()
            .map(|p| format!("{} ({} ops)", p.name, p.graph.op_count()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "{rounds} traced rounds; {} published rows compared; no modeled counterpart for: {}",
        values["baselines.rows"],
        paper_rows::UNMODELED
    ));
    for r in &charged.rows {
        notes.push(format!(
            "row {:?}: published {} modeled {:.4} error {:.1}%",
            r.table,
            r.published,
            r.modeled,
            r.err_pct()
        ));
    }
    super::write_trace("model_sweep", cfg.seed, &spans, &mut notes);
    Outcome {
        tally,
        values,
        notes,
    }
}
