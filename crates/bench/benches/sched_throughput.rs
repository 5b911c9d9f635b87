//! Scheduler throughput at several queue depths (ISSUE 4: the op-graph
//! IR and batch-forming scheduler under baseline tracking).
//!
//! Two kinds of entries in `BENCH_results.json`:
//! * `sched_throughput/*` — real wall-clock ns/iter of draining and
//!   scheduling a queue of mixed HE ops at each depth (the serving
//!   loop's own overhead — this must stay cheap relative to the
//!   multi-ms HE kernels it schedules);
//! * `sched_model/*` — the *modeled* per-op nanoseconds of the fused
//!   schedule and of naive per-op dispatch at each depth, recorded via
//!   `criterion::results` so drift in the batch-formation policy shows
//!   up in the baseline diff (fused must stay below naive).

use criterion::{criterion_group, criterion_main, results, Criterion};
use cross_ckks::params::ParamSet;
use cross_sched::{HeOpKind, RequestQueue, Scheduler};
use cross_tpu::TpuGeneration;

const DEPTHS: [usize; 3] = [4, 16, 64];

fn fill(queue: &mut RequestQueue, depth: usize, level: usize) {
    // A serving-shaped mix: mostly rotations (two distinct steps, so
    // same-step pairs exist at every depth), some mults and adds.
    for i in 0..depth {
        match i % 4 {
            0 | 1 => queue.submit_default(
                HeOpKind::Rotate {
                    steps: 1 << ((i % 8) / 4),
                },
                level,
            ),
            2 => queue.submit_default(HeOpKind::Mult, level),
            _ => queue.submit_default(HeOpKind::Add, level),
        }
        .expect("unbounded queue");
    }
}

fn sched_throughput(c: &mut Criterion) {
    let params = ParamSet::C.params();
    // Optimization on, as in serving: drain-formed graphs are flat
    // (fresh inputs per request), so the pipeline is a structural
    // no-op here and the modeled figures below are unchanged — this
    // measures the optimizer's overhead on the drain path.
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8).with_optimize(true);

    let mut g = c.benchmark_group("sched_throughput");
    for depth in DEPTHS {
        g.bench_function(format!("drain/{depth}"), |b| {
            b.iter(|| {
                let mut queue = RequestQueue::new();
                fill(&mut queue, depth, params.limbs);
                criterion::black_box(queue.drain(&scheduler, &params, depth))
            })
        });
    }
    g.finish();

    // Modeled per-op latency of the formed schedule vs naive dispatch,
    // plus ops/sec the schedule sustains, at each depth.
    for depth in DEPTHS {
        let mut queue = RequestQueue::new();
        fill(&mut queue, depth, params.limbs);
        let dispatch = queue.drain(&scheduler, &params, depth);
        let fused_ns = dispatch.schedule.per_op_s() * 1e9;
        let naive_ns = scheduler.naive_wall_s(&dispatch.graph, &params) / depth as f64 * 1e9;
        results::record(&format!("sched_model/fused_per_op/{depth}"), fused_ns);
        results::record(&format!("sched_model/naive_per_op/{depth}"), naive_ns);
        println!(
            "  sched_model/{depth}: fused {:.0} ns/op vs naive {:.0} ns/op \
             ({:.2}x, {:.0} ops/s scheduled)",
            fused_ns,
            naive_ns,
            naive_ns / fused_ns,
            1e9 / fused_ns
        );
        assert!(
            fused_ns < naive_ns,
            "fused batches must beat naive per-op scheduling"
        );
    }
}

criterion_group!(benches, sched_throughput);
criterion_main!(benches);
