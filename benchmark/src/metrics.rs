//! The metric registry: every name the benchmark prints, with its
//! unit, direction and clock. `BENCHMARK.json` is generated from this
//! table (`--print-benchmark-json`) and a unit test keeps the two in
//! step.

use std::collections::BTreeMap;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (or host memory): subject to the machine's noise.
    Host,
    /// Modeled TPU/pod time or a value derived from it.
    Modeled,
    /// A count of work done.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Repeats bit for bit on the same seed, on every workload that
    /// reports it (`--check` requires it).
    pub exact: bool,
    /// End-to-end only: the share of the parent's median by which a
    /// later change may worsen the metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        exact: false,
        bound: Some(bound),
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Host,
        exact: false,
        bound: None,
    }
}

const fn host_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        better: Better::Higher,
        ..host(name, unit)
    }
}

const fn count(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Lower,
        clock: Clock::Count,
        exact: true,
        bound: None,
    }
}

/// A count that depends on how requests happened to batch.
const fn loose_count(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        better,
        exact: false,
        ..count(name)
    }
}

const fn modeled(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Modeled,
        exact: true,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one;
/// a *unit of work* is an iteration (`eager_chain`, `fused_graph`), a
/// round (`model_sweep`) or a request (`serve_tenants`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Single layers, measured in the traced run. A layer that does no
/// work in a workload reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // whole-run figures that only the traced run can produce
    modeled("sched_speedup_x", "x", Better::Higher),
    modeled("paper_err_median_pct", "%", Better::Lower),
    host("trace_overhead_pct", "%"),
    // math
    host("math.mulmod_barrett32_ns", "ns"),
    host("math.par_dispatch_us", "us"),
    // poly
    host("poly.ntt_fwd_us", "us"),
    host("poly.ntt_inv_us", "us"),
    host("poly.pointwise_mul_us", "us"),
    host("poly.gather_eval_us", "us"),
    host("poly.pack_us", "us"),
    host("poly.unpack_us", "us"),
    count("poly.ntt_butterflies"),
    // core
    host("core.bconv_us", "us"),
    count("core.bconv_macs"),
    // ckks: spans of eager_chain, probes elsewhere
    host("ckks.mult_ms", "ms"),
    host("ckks.rotate_ms", "ms"),
    host("ckks.hoisted_rot8_ms", "ms"),
    host("ckks.eager_rot8_ms", "ms"),
    host("ckks.rescale_ms", "ms"),
    host("ckks.mult_plain_ms", "ms"),
    host("ckks.add_ms", "ms"),
    count("ckks.calls_per_iter"),
    host("ckks.span_residual_pct", "%"),
    host("ckks.key_switch_ms", "ms"),
    host("ckks.mult_batch_ms", "ms"),
    host("ckks.rotate_batch_ms", "ms"),
    host("ckks.rescale_batch_ms", "ms"),
    host("ckks.pack_ms", "ms"),
    host("ckks.unpack_ms", "ms"),
    host("ckks.batch8_over_eager8", "x"),
    host("ckks.keygen_s", "s"),
    host("ckks.encrypt_ms", "ms"),
    host("ckks.decrypt_ms", "ms"),
    MetricDef {
        name: "ckks.max_abs_err",
        unit: "abs",
        better: Better::Lower,
        clock: Clock::Count,
        exact: true,
        bound: None,
    },
    // sched: compile and execute (fused_graph, model_sweep)
    host("sched.record_ms", "ms"),
    host("sched.opt_ms", "ms"),
    host("sched.schedule_ms", "ms"),
    host("sched.exec_ms", "ms"),
    host("sched.replay_ms", "ms"),
    host("sched.fused_over_replay", "x"),
    host("sched.stage_residual_pct", "%"),
    count("sched.ops_in"),
    count("sched.ops_out"),
    count("sched.batches"),
    loose_count("sched.occupancy", Better::Higher),
    host("sched.pass_waterline_ms", "ms"),
    host("sched.pass_dedup_ms", "ms"),
    host("sched.pass_cse_ms", "ms"),
    host("sched.pass_hoist_ms", "ms"),
    host("sched.cost_graph_ms", "ms"),
    count("sched.hoist_groups"),
    // sched: serving loop (serve_tenants)
    host("sched.submit_us", "us"),
    host("sched.wait_ms", "ms"),
    host("sched.take_us", "us"),
    host("sched.burst_p50_ms", "ms"),
    host("sched.interactive_p50_ms", "ms"),
    host("sched.interactive_p99_ms", "ms"),
    host_up("sched.serve_efficiency", "x"),
    loose_count("sched.dispatches", Better::Lower),
    loose_count("sched.fused_ops_share", Better::Higher),
    loose_count("sched.key_hit_rate", Better::Higher),
    loose_count("sched.key_evictions", Better::Lower),
    loose_count("sched.ct_evictions", Better::Lower),
    MetricDef {
        exact: false,
        ..modeled("sched.modeled_wall_s", "s", Better::Lower)
    },
    // tpu: modeled, v6e-8 Set D unless the name says otherwise
    modeled("tpu.modeled_he_mult_us", "us", Better::Lower),
    modeled("tpu.modeled_rotate_us", "us", Better::Lower),
    modeled("tpu.modeled_rescale_us", "us", Better::Lower),
    modeled("tpu.modeled_bootstrap_ms", "ms", Better::Lower),
    modeled("tpu.modeled_helr_ms", "ms", Better::Lower),
    modeled("tpu.modeled_mnist_ms", "ms", Better::Lower),
    modeled("tpu.mxu_share", "share", Better::Higher),
    modeled("tpu.vpu_share", "share", Better::Lower),
    modeled("tpu.permute_share", "share", Better::Lower),
    modeled("tpu.hbm_share", "share", Better::Lower),
    modeled("tpu.ici_share", "share", Better::Lower),
    host_up("tpu.charges_per_host_s", "1/s"),
    // baselines: modeled against published rows
    count("baselines.rows"),
    modeled("baselines.err_tab5_pct", "%", Better::Lower),
    modeled("baselines.err_tab6_pct", "%", Better::Lower),
    modeled("baselines.err_tab7_pct", "%", Better::Lower),
    modeled("baselines.err_tab8_pct", "%", Better::Lower),
    modeled("baselines.err_tab9_pct", "%", Better::Lower),
    modeled("baselines.err_tab10_pct", "%", Better::Lower),
    modeled("baselines.err_workloads_pct", "%", Better::Lower),
    modeled("baselines.err_max_pct", "%", Better::Lower),
];

/// The metrics a run mode reports: per-layer when traced, end-to-end
/// when not.
pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Values a run produced, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The registry entry called `name`.
#[cfg(test)]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Orders `values` by `defs`, filling 0 for a layer the workload left
/// idle.
///
/// # Panics
/// Panics on a value whose name is not in `defs`, and on a missing or
/// non-positive end-to-end value: both are bugs in a workload.
pub fn complete(defs: &'static [MetricDef], values: &Values) -> Vec<(&'static MetricDef, f64)> {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric {name} is not registered for this run mode"
        );
    }
    defs.iter()
        .map(|d| {
            let v = values.get(d.name).copied();
            if d.bound.is_some() {
                let v = v.unwrap_or_else(|| panic!("end-to-end metric {} not measured", d.name));
                assert!(
                    v.is_finite() && v > 0.0,
                    "{} = {v} must be positive",
                    d.name
                );
                (d, v)
            } else {
                let v = v.unwrap_or(0.0);
                assert!(v.is_finite(), "{} is not finite", d.name);
                (d, v)
            }
        })
        .collect()
}

/// The contract's character class for names.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The contract's character class for units.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} registered twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("é"));
        assert!(!valid_unit("") && !valid_unit("m s") && valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn end_to_end_carries_setup_and_bounds() {
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn complete_fills_idle_layers_with_zero() {
        let mut v = Values::new();
        v.insert("ckks.mult_ms", 1.5);
        let all = complete(PER_LAYER, &v);
        assert_eq!(all.len(), PER_LAYER.len());
        for (d, x) in all {
            assert_eq!(x, if d.name == "ckks.mult_ms" { 1.5 } else { 0.0 });
        }
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    /// `BENCHMARK.json` at the repo root says what this table says.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            crate::report::benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&doc, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (e, d) in listed.iter().zip(defs) {
                assert_eq!(e.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(e.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    e.get("better").and_then(Value::as_str),
                    Some(d.better.label())
                );
                assert_eq!(e.get("bound").and_then(Value::as_f64), d.bound);
            }
        }
        let listed = entries(&doc, "workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (e, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(e.get("name").and_then(Value::as_str), Some(w.name));
            assert_eq!(e.get("why").and_then(Value::as_str), Some(w.why));
        }
    }
}
