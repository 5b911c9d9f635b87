//! Scheduler throughput at several queue depths: `sched_throughput/*`
//! is the host wall-clock of draining and scheduling a queue of mixed
//! HE ops at each depth (the serving loop's own overhead — this must
//! stay cheap relative to the multi-ms HE kernels it schedules). The
//! modeled per-op seconds of the same drains are pinned bit for bit in
//! `tests/model_golden.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use cross_bench::workloads::drain_mix;
use cross_ckks::params::ParamSet;
use cross_sched::{RequestQueue, Scheduler};
use cross_tpu::TpuGeneration;

const DEPTHS: [usize; 3] = [4, 16, 64];

fn sched_throughput(c: &mut Criterion) {
    let params = ParamSet::C.params();
    // Optimization on, as in serving: drain-formed graphs are flat
    // (fresh inputs per request), so the pipeline is a structural
    // no-op here — this measures the optimizer's overhead on the drain
    // path.
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8).with_optimize(true);

    let mut g = c.benchmark_group("sched_throughput");
    for depth in DEPTHS {
        g.bench_function(format!("drain/{depth}"), |b| {
            b.iter(|| {
                let mut queue = RequestQueue::new();
                for i in 0..depth {
                    queue
                        .submit_default(drain_mix(i), params.limbs)
                        .expect("unbounded queue");
                }
                criterion::black_box(queue.drain(&scheduler, &params, depth))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, sched_throughput);
criterion_main!(benches);
