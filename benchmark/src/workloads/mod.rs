//! The four workloads and what they share: the run configuration, the
//! outcome a run hands back, repeated set-up and the closed loop of a
//! single caller.

use crate::metrics::Values;
use crate::oracle::Tally;
use crate::span::{self, Span, Tracer};
use crate::stats;
use std::time::Instant;

pub mod eager_chain;
pub mod fused_graph;
pub mod graphs;
pub mod model_sweep;
pub mod paper_rows;
pub mod serve_tenants;

/// How one run of one workload is asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Inputs are a function of this and nothing else.
    pub seed: u64,
    /// Length of the measured phase of the untraced run; the traced
    /// run measures a quarter of it untraced and a quarter traced.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Smoke run: set-up runs once, and `model_sweep` skips its cost
    /// oracle on the two large programs.
    pub quick: bool,
}

/// What one run hands back.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// Lines for the human reader: sample counts, percentile support.
    pub notes: Vec<String>,
}

/// A workload: its name, why it exists, and its entry point.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunCfg) -> Outcome,
}

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "eager_chain",
        why: "one thread calls the eager Evaluator at Set B (N=2^13, 8 limbs): ckks/poly/core/math do all the work, sched and tpu none",
        run: eager_chain::run,
    },
    WorkloadDef {
        name: "fused_graph",
        why: "record, optimise, schedule and execute 8 sign chains plus rotation fan-outs through the batched Evaluator (N=2^10, 17 limbs): same ckks layer used the other way",
        run: fused_graph::run,
    },
    WorkloadDef {
        name: "serve_tenants",
        why: "two client threads drive four tenants (one bursty, three interactive) through serve_tenants with a thrashing key cache: queueing, fairness and fusion under contention",
        run: serve_tenants::run,
    },
    WorkloadDef {
        name: "model_sweep",
        why: "no ciphertexts: compile four recorded graphs and charge every published table row on the simulator; a kernel optimisation must leave this unchanged",
        run: model_sweep::run,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Most set-ups of one run.
const SETUP_REPS: usize = 5;

/// Set-ups after the third are skipped once this many seconds have
/// gone into set-up, so a workload whose set-up is slow does not
/// spend its run on it.
const SETUP_BUDGET_S: f64 = 6.0;

/// Runs `setup` up to [`SETUP_REPS`] times (once when `quick`; see
/// [`SETUP_BUDGET_S`]), dropping each state before building the next,
/// and returns the last state with the median build time in seconds.
/// Set-up includes the workload's warm-up, so that work a change moves
/// into lazily built plans still shows in `setup_s`.
pub fn timed_setup<S>(quick: bool, mut setup: impl FnMut() -> S) -> (S, f64) {
    let reps = if quick { 1 } else { SETUP_REPS };
    let started = Instant::now();
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    while times.len() < reps
        && (times.len() < 3 || started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "# set-up ran {} time(s); peak memory after set-up {:.1} MB",
        times.len(),
        crate::sysinfo::peak_rss_mb()
    );
    (state.expect("set up at least once"), stats::median(&times))
}

/// A closed loop with one caller: calls `iter` until `seconds` have
/// passed (at least once) and returns what each call reports as its
/// own time in milliseconds. `iter` times only the work; the oracle
/// checks it runs afterwards shorten the loop, not the samples.
pub fn closed_loop(seconds: f64, mut iter: impl FnMut(u64) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    loop {
        ms.push(iter(ms.len() as u64));
        if start.elapsed().as_secs_f64() >= seconds {
            return ms;
        }
    }
}

/// End-to-end values of a workload with one caller and one unit of
/// work in flight: the unit's latency is the time of one turn of the
/// loop, and throughput is units per second at the median unit time —
/// the median, not the mean, so that one stall of the shared host does
/// not move it.
pub fn single_caller_values(
    values: &mut Values,
    notes: &mut Vec<String>,
    setup_s: f64,
    iter_ms: &[f64],
    tail_p: f64,
) {
    let sorted = stats::sorted(iter_ms.to_vec());
    let p50 = stats::percentile(&sorted, 0.5);
    values.insert("setup_s", setup_s);
    values.insert("latency_p50_ms", p50);
    values.insert("latency_tail_ms", stats::percentile(&sorted, tail_p));
    values.insert("req_per_s", 1e3 / p50);
    values.insert("peak_rss_mb", crate::sysinfo::peak_rss_mb());
    notes.push(tail_note(sorted.len(), tail_p));
    notes.push(format!(
        "unit times in ms: fastest {:.1}, quartiles {:.1} and {:.1}, slowest {:.1}",
        sorted[0],
        stats::percentile(&sorted, 0.25),
        stats::percentile(&sorted, 0.75),
        sorted[sorted.len() - 1]
    ));
}

/// States the sample count behind a tail percentile and whether ten
/// samples lie beyond it.
pub fn tail_note(n: usize, tail_p: f64) -> String {
    let beyond = stats::samples_beyond(n, tail_p);
    let supported = match stats::supported_tail(n) {
        Some(p) => format!("a sample of {n} supports up to p{:.0}", p * 100.0),
        None => format!("a sample of {n} supports no percentile"),
    };
    format!(
        "n = {n} units of work; latency_tail_ms is p{:.0} with {beyond} samples beyond it; {supported}",
        tail_p * 100.0
    )
}

/// `trace_overhead_pct`: how much slower the median unit of work ran
/// with spans recorded, as a share of the untraced median.
pub fn trace_overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = stats::median(untraced_ms);
    (stats::median(traced_ms) - base) / base * 100.0
}

/// Median over units of work of the share of a `root` span that no
/// child span covers, in percent: the time the benchmark spent
/// between its calls into the layers.
pub fn residual_pct(spans: &[Span], root: &str) -> f64 {
    let selfs = span::self_times_ns(spans);
    let shares: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == root && s.end_ns > s.start_ns)
        .map(|(s, own)| own as f64 / (s.end_ns - s.start_ns) as f64 * 100.0)
        .collect();
    stats::median(&shares)
}

/// Where the trace of `workload` goes.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Writes the trace and says so in the notes.
pub fn write_trace(workload: &str, seed: u64, spans: &[Span], notes: &mut Vec<String>) {
    let path = trace_path(workload);
    span::write_json(&path, workload, seed, spans)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
}

/// The two quarter-length phases of a traced run with one caller:
/// untraced first, then traced. Returns the traced spans and
/// `trace_overhead_pct`.
pub fn traced_phases(
    seconds: f64,
    mut iter: impl FnMut(&mut Tracer, u64) -> f64,
) -> (Vec<Span>, f64) {
    let quarter = seconds / 4.0;
    let mut off = Tracer::off();
    let untraced = closed_loop(quarter, |i| iter(&mut off, i));
    let mut on = Tracer::new(Instant::now(), true, 0);
    let traced = closed_loop(quarter, |i| iter(&mut on, i));
    (on.into_spans(), trace_overhead_pct(&untraced, &traced))
}
