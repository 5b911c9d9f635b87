//! What the benchmark prints: the metric table for a reader, the
//! result line for the driver, and `BENCHMARK.json` itself.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::oracle::Tally;
use crate::workloads::WORKLOADS;
use std::fmt::Write;

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json` and
/// the default of `--seconds`.
pub const RUN_SECONDS: u32 = 25;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload`, `--seed`, `--seconds` and `--trace`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One line per metric: name, value, unit, clock, direction, bound.
pub fn table(values: &[(&MetricDef, f64)]) -> String {
    let mut out = String::new();
    for (d, v) in values {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let exact = if d.exact { "  exact" } else { "" };
        writeln!(
            out,
            "{:<28} {:>18} {:<6} [{}, {} is better{bound}{exact}]",
            d.name,
            number(*v),
            d.unit,
            d.clock.label(),
            d.better.label(),
        )
        .expect("writing to a String");
    }
    out
}

/// A value with all its digits, as JSON accepts it.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

/// The driver's result line.
pub fn result_json(tally: Tally, values: &[(&MetricDef, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(*v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn metric_entries(defs: &[MetricDef]) -> String {
    let lines: Vec<String> = defs
        .iter()
        .map(|d| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect();
    lines.join(",\n")
}

/// The text of `BENCHMARK.json`, generated from the registry.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        metric_entries(END_TO_END),
        metric_entries(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::metrics::{complete, Values};

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut v = Values::new();
        v.insert("ckks.mult_ms", 31.25);
        let line = result_json(
            Tally {
                attempted: 9,
                failed: 1,
            },
            &complete(PER_LAYER, &v),
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let mult = doc.get("metrics").unwrap().get("ckks.mult_ms").unwrap();
        assert_eq!(mult.get("value").and_then(Value::as_f64), Some(31.25));
        assert_eq!(mult.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn benchmark_json_fits_the_contract_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let command = doc.get("command").and_then(Value::as_arr).unwrap();
        assert!(command.len() <= 32);
        for c in command {
            let c = c.as_str().unwrap();
            assert!(c.len() <= 200 && !c.starts_with('/') && !c.contains(".."));
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds));
    }
}
