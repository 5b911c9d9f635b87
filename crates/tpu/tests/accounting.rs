//! Accounting ≡ re-summation, bit for bit.
//!
//! `Trace` keeps running sums so that `total_seconds`, `seconds_of`,
//! `TpuSim::compute_seconds` and `PodSim::comm_seconds` cost a field
//! read. The oracles below are the definitions those reads replaced —
//! left-to-right folds over `entries()` and a `BTreeMap` roll-up — and
//! every comparison is on `f64::to_bits`, because kernel reports are
//! differences of these sums and the reproduction's tables are pinned
//! to the bit (`tests/model_golden.rs`).

use cross_tpu::trace::TraceEntry;
use cross_tpu::{Category, ChipSpec, KernelReport, PodSim, TpuGeneration, TpuSim, Trace};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fold(entries: &[TraceEntry], keep: impl Fn(Category) -> bool) -> f64 {
    entries
        .iter()
        .filter(|e| keep(e.category))
        .fold(0.0, |acc, e| acc + e.seconds)
}

fn compute_fold(entries: &[TraceEntry]) -> f64 {
    fold(entries, |_| true) - fold(entries, |c| c == Category::DmaHbm)
}

/// The roll-up `Trace::breakdown` used before it shared code with
/// `end_kernel`: ordered map, then a stable descending sort.
fn breakdown_oracle(entries: &[TraceEntry]) -> Vec<(Category, f64)> {
    let mut map: BTreeMap<Category, f64> = BTreeMap::new();
    for e in entries {
        *map.entry(e.category).or_insert(0.0) += e.seconds;
    }
    let mut v: Vec<_> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    v
}

fn bits(v: &[(Category, f64)]) -> Vec<(Category, u64)> {
    v.iter().map(|&(c, s)| (c, s.to_bits())).collect()
}

fn assert_trace_matches_fold(trace: &Trace) {
    let entries = trace.entries();
    assert_eq!(
        trace.total_seconds().to_bits(),
        fold(entries, |_| true).to_bits()
    );
    for cat in Category::ALL {
        assert_eq!(
            trace.seconds_of(cat).to_bits(),
            fold(entries, |c| c == cat).to_bits(),
            "{cat:?}"
        );
    }
    assert_eq!(bits(&trace.breakdown()), bits(&breakdown_oracle(entries)));
}

fn assert_core_matches_fold(sim: &TpuSim) {
    assert_trace_matches_fold(sim.trace());
    assert_eq!(
        sim.compute_seconds().to_bits(),
        compute_fold(sim.trace().entries()).to_bits()
    );
}

/// A kernel report against the window `entries[mark..]` it closed.
fn assert_report_matches_window(sim: &TpuSim, rep: &KernelReport, mark: usize) {
    let entries = sim.trace().entries();
    let compute = compute_fold(entries) - compute_fold(&entries[..mark]);
    assert_eq!(rep.compute_s.to_bits(), compute.to_bits());
    assert_eq!(
        rep.latency_s.to_bits(),
        (sim.spec().dispatch_s + compute.max(rep.hbm_s)).to_bits()
    );
    let mut rebuilt = Trace::new();
    for e in &entries[mark..] {
        rebuilt.record(e.category, e.seconds, e.label);
    }
    assert_eq!(bits(&rep.breakdown), bits(&rebuilt.breakdown()));
    assert_eq!(
        bits(&rep.breakdown),
        bits(&breakdown_oracle(&entries[mark..]))
    );
}

/// One step of a random charge sequence: `(op, size, category)`.
type Step = (u8, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec((0u8..20, 1usize..(1 << 15), 0..Category::ALL.len()), 0..96)
}

/// Applies one charge; ops 0..=7.
fn charge(sim: &mut TpuSim, op: u8, size: usize, cat: Category) {
    let bytes = size as f64 * 4096.0;
    match op {
        0 => sim.charge_vpu(size, 1 + (size % 29) as u32, cat, "vpu"),
        1 => sim.charge_matmul_u8(size % 700 + 1, size % 300 + 1, size % 513 + 1, cat),
        2 => sim.charge_shuffle(size, 1 + size % 256, cat),
        3 => sim.charge_transpose(size % 128 + 1, size % 97 + 1, cat),
        4 => sim.charge_reshape(bytes, cat),
        5 => sim.charge_materialize(bytes, cat),
        6 => sim.dma_in(bytes, "operands"),
        _ => sim.spill_check(bytes * 64.0, 1 + (size % 3) as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random charges, kernel boundaries and resets on one core: after
    /// every step the running sums equal the folds, and every closed
    /// kernel reports its own window.
    #[test]
    fn prop_core_accounting_is_resummation(seq in steps()) {
        let mut sim = TpuSim::new(TpuGeneration::V6e);
        let mut open: Option<usize> = None;
        assert_core_matches_fold(&sim);
        for (op, size, cat) in seq {
            match op {
                0..=13 => charge(&mut sim, op % 8, size, Category::ALL[cat]),
                14..=18 => match open.take() {
                    None => {
                        open = Some(sim.trace().entries().len());
                        sim.begin_kernel("k");
                    }
                    Some(mark) => {
                        let rep = sim.end_kernel();
                        assert_report_matches_window(&sim, &rep, mark);
                    }
                },
                // Reset, possibly with a kernel open: everything reads
                // zero and the next `begin_kernel` must be accepted.
                _ => {
                    sim.reset();
                    open = None;
                    prop_assert!(sim.trace().entries().is_empty());
                    prop_assert_eq!(sim.compute_seconds().to_bits(), 0f64.to_bits());
                    prop_assert_eq!(sim.hbm_seconds().to_bits(), 0f64.to_bits());
                }
            }
            assert_core_matches_fold(&sim);
        }
    }

    /// Random collectives, per-core kernels and resets on pods that
    /// stay on ICI (4, 8 cores), cross hosts (32) or are a single core
    /// (every collective a no-op).
    #[test]
    fn prop_pod_accounting_is_resummation(seq in steps(), shape in 0usize..4) {
        let mut pod = PodSim::new(TpuGeneration::V6e, [1, 4, 8, 32][shape]);
        let mut comm_mark = 0;
        for (op, size, cat) in seq {
            let bytes = size as f64 * 4096.0;
            match op {
                0 => { pod.broadcast(bytes, "b"); }
                1 => { pod.scatter(bytes, "s"); }
                2 => { pod.all_gather(bytes, "g"); }
                3 => { pod.all_reduce(bytes, "r"); }
                4 => { pod.ici_transfer(bytes, 1 + (size % 4) as u32, "p2p"); }
                5 => { pod.dcn_transfer(bytes, "host hop"); }
                6..=12 => {
                    // One kernel on every core, then the pod report
                    // over the collectives charged since the last one.
                    let reports: Vec<KernelReport> = (0..pod.num_cores())
                        .map(|i| {
                            let core = pod.core_mut(i);
                            let mark = core.trace().entries().len();
                            core.begin_kernel("shard");
                            charge(core, op % 8, size + i, Category::ALL[cat]);
                            let rep = core.end_kernel();
                            assert_report_matches_window(core, &rep, mark);
                            rep
                        })
                        .collect();
                    let rep = pod.assemble_report("k", &reports, comm_mark);
                    let window = &pod.comm_trace().entries()[comm_mark..];
                    prop_assert_eq!(rep.comm_s.to_bits(), fold(window, |_| true).to_bits());
                    comm_mark = pod.comm_trace().entries().len();
                }
                13..=18 => charge(pod.core_mut(size % pod.num_cores()), op % 8, size, Category::ALL[cat]),
                _ => {
                    pod.reset();
                    comm_mark = 0;
                    prop_assert!(pod.comm_trace().entries().is_empty());
                }
            }
            assert_trace_matches_fold(pod.comm_trace());
            prop_assert_eq!(
                pod.comm_seconds().to_bits(),
                fold(pod.comm_trace().entries(), |_| true).to_bits()
            );
            for i in 0..pod.num_cores() {
                assert_core_matches_fold(pod.core(i));
            }
        }
    }
}

#[test]
fn empty_trace_and_empty_kernel_read_zero() {
    let mut sim = TpuSim::new(TpuGeneration::V5e);
    assert_core_matches_fold(&sim);
    assert_eq!(sim.trace().total_seconds().to_bits(), 0f64.to_bits());
    assert!(sim.trace().breakdown().is_empty());
    sim.begin_kernel("nothing");
    let rep = sim.end_kernel();
    assert_report_matches_window(&sim, &rep, 0);
    assert!(rep.breakdown.is_empty());
    assert_eq!(rep.compute_s.to_bits(), 0f64.to_bits());
    assert_eq!(rep.latency_s.to_bits(), sim.spec().dispatch_s.to_bits());
}

#[test]
fn reset_mid_kernel_forgets_the_kernel() {
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    sim.begin_kernel("abandoned");
    sim.dma_in(1e6, "params");
    sim.charge_vpu(4096, 8, Category::VecModOps, "w");
    sim.reset();
    assert_core_matches_fold(&sim);
    sim.begin_kernel("fresh");
    sim.charge_vpu(4096, 8, Category::VecModOps, "w");
    let rep = sim.end_kernel();
    assert_eq!(rep.name, "fresh");
    assert_report_matches_window(&sim, &rep, 0);
    assert_eq!(rep.hbm_s, 0.0);
}

#[test]
fn a_zero_second_charge_still_shows_in_the_breakdown() {
    // The roll-up lists every category that has an entry, as the
    // ordered-map roll-up did; `cost_graph`'s merged breakdowns rely
    // on the category set, not only on the sums.
    let mut t = Trace::new();
    t.record(Category::Permutation, 0.0, "free");
    t.record(Category::VecModOps, 1.0, "w");
    assert_eq!(
        t.breakdown(),
        vec![(Category::VecModOps, 1.0), (Category::Permutation, 0.0)]
    );
}

#[test]
#[should_panic(expected = "charge must be finite and non-negative")]
fn zero_bandwidth_spec_dies_at_the_charge() {
    // bytes / 0 GiB/s = inf: without the check it would surface later
    // as `inf - inf` = NaN in some kernel's compute delta.
    let spec = ChipSpec {
        hbm_gibs: 0.0,
        ..TpuGeneration::V6e.spec()
    };
    let mut sim = TpuSim::with_spec(spec);
    sim.begin_kernel("k");
    sim.dma_in(1e6, "params");
}
