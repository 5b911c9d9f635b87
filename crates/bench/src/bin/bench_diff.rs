//! Bench regression gate: diffs `BENCH_results.json` (written by
//! `cargo bench -p cross-bench` via the criterion stub) against the
//! checked-in `BENCH_baseline.json`. Every key is host wall-clock; the
//! modeled numbers are pinned bit for bit in `tests/model_golden.rs`.
//!
//! Two tiers:
//!
//! * **Failing** — a small pinned allowlist of keys
//!   ([`GATED_PREFIXES`]) exits nonzero when a key regresses by more
//!   than [`FAIL_RATIO`], is recorded without a baseline entry, or has
//!   a baseline entry that was not re-measured. The `batched_ntt` and
//!   `ntt_engines/host` entries guard the headline fusion claim and the
//!   default host engine's speed, at the acknowledged cost that a much
//!   slower runner than the baseline machine can trip them — refresh
//!   `BENCH_baseline.json` on the CI runner class if that happens. The
//!   `serve_tenants` p50/p99 latency and `inv_occupancy` keys guard the
//!   multi-tenant serving layer, with the same refresh remedy. The
//!   `ks_path` keys guard the key-switching fast path, with two
//!   failing pairs — `ks_path/fast/*` must beat `ks_path/reference/*`
//!   at every level, and `ks_path/hoisted_8rot` must read below
//!   0.75 × `ks_path/eager_8rot` (one decomposition shared by eight
//!   rotations; it read 0.61 when the pair was tightened). The per-tier
//!   `sgn/sign_latency` and `sgn/exec_*` keys guard the encrypted
//!   comparison toolkit, with the same refresh remedy. The `sim_host/`
//!   keys guard the simulator's own host cost, with one failing pair —
//!   `cost_graph` per op on MNIST must stay within 2× of HELR's, i.e.
//!   costing a graph stays linear in its size (a ratio of two timings
//!   from one run, so it does not depend on the runner's speed).
//! * **Warn-only** — every other key: the stub's fixed-window
//!   measurements on shared CI runners are indicative, not
//!   statistically sound, so those regressions are surfaced for a
//!   human to judge.
//!
//! It also re-checks the batching claim: every `batched_ntt/*_fused/*`
//! entry must beat its `*_sequential/*` counterpart (failing). Pinned
//! pairs guard the host NTT engine (failing): `ntt_engines/host/*` —
//! what the functional dispatch runs — must read within 1.05 × each
//! alternative timed beside it (`radix2_ct`, `mat_3step_ref`), and
//! `batched_ntt/host_fused/*` must beat `batched_ntt/mat3_fused/*` —
//! the "default engine is the fastest engine" claim. The serving-loop claim —
//! `serve_throughput/serve_multi/*` sustaining at least
//! `single_drain/*`'s throughput — is checked **warn-only**: both
//! sides are wall-clock, and on a single-core runner the loop can at
//! best tie the synchronous path (see the bench's module docs).

use criterion::results;
use cross_bench::banner;

/// Slowdown factor beyond which a warning is emitted.
const WARN_RATIO: f64 = 1.5;

/// Slowdown factor beyond which a *gated* key fails the build.
const FAIL_RATIO: f64 = 1.25;

/// Key prefixes held to the failing [`FAIL_RATIO`] gate.
const GATED_PREFIXES: [&str; 6] = [
    "batched_ntt/",
    "ntt_engines/host",
    "serve_tenants/",
    "ks_path/",
    "sgn/",
    "sim_host/",
];

fn gated(label: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| label.starts_with(p))
}

fn main() {
    banner("Bench diff: results vs checked-in baseline");
    let results_path = results::path();
    let results = match std::fs::read_to_string(&results_path) {
        Ok(t) => results::parse(&t),
        Err(e) => {
            println!(
                "WARN: no {} ({e}); run `cargo bench -p cross-bench` first",
                results_path.display()
            );
            return;
        }
    };
    // The baseline lives next to the results artifact (workspace root),
    // so the tool works from any subdirectory.
    let baseline_path = results_path
        .parent()
        .map(|d| d.join("BENCH_baseline.json"))
        .unwrap_or_else(|| "BENCH_baseline.json".into());
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => results::parse(&t),
        Err(e) => {
            println!(
                "WARN: no {} ({e}); every kernel will be reported as new",
                baseline_path.display()
            );
            Default::default()
        }
    };

    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "kernel", "ns/iter", "baseline", "ratio"
    );
    let mut warnings = 0usize;
    let mut failures = 0usize;
    for (label, &ns) in &results {
        match baseline.get(label) {
            Some(&base) if base > 0.0 => {
                let ratio = ns / base;
                let flag = if gated(label) && ratio > FAIL_RATIO {
                    failures += 1;
                    "  << FAIL (gated)"
                } else if ratio > WARN_RATIO {
                    warnings += 1;
                    "  << WARN"
                } else {
                    ""
                };
                println!("{label:<44} {ns:>12.1} {base:>12.1} {ratio:>7.2}x{flag}");
            }
            // A gated key without a baseline would never be gated:
            // fail until the baseline names it.
            _ if gated(label) => {
                failures += 1;
                println!(
                    "{label:<44} {ns:>12.1} {:>12} (gated key has no baseline)  << FAIL",
                    "-"
                );
            }
            _ => println!("{label:<44} {ns:>12.1} {:>12} {:>8}", "-", "new"),
        }
    }
    for label in baseline.keys() {
        if !results.contains_key(label) {
            // A gated key vanishing (bench deleted/renamed, recording
            // silently broken) is exactly the regression class the
            // gate exists for — fail, don't shrug.
            if gated(label) {
                failures += 1;
                println!(
                    "{label:<44} {:>12} (gated baseline entry not re-measured)  << FAIL",
                    "-"
                );
            } else {
                println!("{label:<44} {:>12} (baseline entry not re-measured)", "-");
            }
        }
    }

    // The batching claim: fused beats sequential for every pair
    // (failing). The serving claim — the multi-worker loop sustains
    // the single-thread drain's throughput — is warn-only wall-clock.
    // Each pair is (key, counterpart, failing, slack): the key must
    // read below `slack ×` its counterpart.
    let pairs = [
        ("_fused/", "_sequential/", true, 1.0),
        // The host dispatch runs the fastest engine at every degree
        // timed: within 5 % of each alternative (it reads 2–7x ahead).
        ("/host/", "/radix2_ct/", true, 1.05),
        ("/host/", "/mat_3step_ref/", true, 1.05),
        ("/host_fused/", "/mat3_fused/", true, 1.0),
        ("/serve_multi/", "/single_drain/", false, 1.0),
        // Key-switching fast path (ISSUE 9): the cached-plan path must
        // beat the pre-plan reference at every level, and one hoisted
        // decomposition feeding 8 rotations must read below 0.75x of
        // 8 eager rotates, each of which decomposes again.
        // Both sides are asserted bit-identical inside the bench
        // before timing, so a win can never come from divergence.
        ("ks_path/fast/", "ks_path/reference/", true, 1.0),
        ("ks_path/hoisted_8rot", "ks_path/eager_8rot", true, 0.75),
        // Warn-only: host wall-clock of the fused batched executor vs
        // the eager loop (bit-identity asserted inside the bench). On
        // the host the batched path's gather/scatter overhead can
        // outweigh the fused-kernel win the model attributes to the
        // accelerator, so a loss here is informative, not failing.
        ("sgn/exec_fused/", "sgn/exec_eager/", false, 1.0),
        // Simulator accounting (ISSUE 14): MNIST has 7.2x HELR's ops,
        // so a per-op costing time within 2x of HELR's means
        // `cost_graph` is linear in the graph (it reads 0.3x: HELR's
        // ops are the larger kernels); re-summing the trace at kernel
        // boundaries, the pre-ISSUE-14 accounting, read 2.3x.
        (
            "sim_host/cost_graph_per_op/mnist",
            "sim_host/cost_graph_per_op/helr",
            true,
            2.0,
        ),
    ];
    for (label, &ns) in &results {
        for (fused_tag, other_tag, gating, slack) in pairs {
            let Some(i) = label.find(fused_tag) else {
                continue;
            };
            let other_label = format!(
                "{}{}{}",
                &label[..i],
                other_tag,
                &label[i + fused_tag.len()..]
            );
            if let Some(&other_ns) = results.get(&other_label) {
                let bar = format!("{slack}x {other_label} ({other_ns:.0} ns)");
                if ns < slack * other_ns {
                    println!(
                        "OK: {label} ({ns:.0} ns) beats {bar}, {:.2}x",
                        slack * other_ns / ns
                    );
                } else if gating {
                    failures += 1;
                    println!("FAIL: {label} ({ns:.0} ns) did NOT beat {bar}");
                } else {
                    warnings += 1;
                    println!("WARN: {label} ({ns:.0} ns) did not beat {bar}");
                }
            }
        }
    }

    if warnings > 0 {
        println!("\n{warnings} warning(s) — indicative only, not failing the build");
    }
    if failures > 0 {
        println!(
            "{failures} FAILURE(S): gated keys regressed >{FAIL_RATIO}x, lack a baseline, \
             or a fused kernel lost"
        );
        std::process::exit(1);
    }
    if warnings == 0 {
        println!("\nno regressions vs baseline");
    }
}
