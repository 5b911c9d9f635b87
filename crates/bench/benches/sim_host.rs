//! Host cost of the simulator's own bookkeeping, under baseline
//! tracking (`sim_host/*`, gated in `bench_diff`).
//!
//! Charging an op on `cross_tpu` is the compiler's inner loop — every
//! optimizer probe, schedule and table row goes through it — so its
//! host time must not depend on how much has been charged before.
//!
//! * `sim_host/cost_graph_per_op/{helr,mnist}` — median host ns of one
//!   [`cross_sched::cost_graph`] walk (FusedBatch, v6e-8) divided by
//!   the graph's op count. MNIST has 7.2× HELR's ops, each a smaller
//!   kernel: with constant-time accounting it reads ≈0.3 × HELR's
//!   figure, while re-summing the trace at every kernel boundary made
//!   the per-op figure grow with the graph (2.3 × HELR's before
//!   ISSUE 14). `bench_diff` fails when `mnist` exceeds 2 × `helr`.
//! * `sim_host/charge_op_pod/v6e8_setD_mult` — one limb-parallel
//!   HE-Mult charge at Set D on a freshly reset v6e-8 pod (8 kernels,
//!   ~100 trace entries, three collectives and the report assembly).
//! * `pod_model_eval/backbone_v6e8` — one full Tab. VIII backbone row
//!   (four sharded ops, critical and amortized) at Set D on v6e-8.

use criterion::{black_box, criterion_group, criterion_main, results, Criterion};
use cross_bench::pod_for;
use cross_bench::workloads::{helr_iteration, helr_params, mnist_network, mnist_params};
use cross_ckks::costs::{self, ExecMode};
use cross_ckks::params::{CkksParams, ParamSet};
use cross_sched::{cost_graph, OpGraph};
use cross_tpu::{PodSim, TpuGeneration};
use std::time::{Duration, Instant};

/// Median host nanoseconds per op of one `cost_graph` walk, over as
/// many walks as fit the stub's 50 ms window (at least five).
fn cost_graph_per_op_ns(params: &CkksParams, graph: &OpGraph) -> f64 {
    let mut pod = PodSim::new(TpuGeneration::V6e, 8);
    let mut walk = || {
        let t0 = Instant::now();
        black_box(cost_graph(&mut pod, params, graph, ExecMode::FusedBatch));
        t0.elapsed().as_nanos() as f64
    };
    walk(); // warm-up: sizes the pod's trace buffers
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < Duration::from_millis(50) {
        samples.push(walk());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] / graph.op_count() as f64
}

fn sim_host(c: &mut Criterion) {
    println!("\ngroup: sim_host/cost_graph_per_op");
    let helr = helr_params();
    let mnist = mnist_params();
    for (name, params, graph) in [
        ("helr", &helr, helr_iteration(helr.limbs)),
        ("mnist", &mnist, mnist_network(mnist.limbs)),
    ] {
        let ns = cost_graph_per_op_ns(params, &graph);
        println!("  {name}: {ns:.1} ns/op ({} ops)", graph.op_count());
        results::record(&format!("sim_host/cost_graph_per_op/{name}"), ns);
    }

    let params = ParamSet::D.params();
    let bundle = costs::HE_MULT.bundle("HE-Mult", &params, params.limbs, 1);
    let mut pod = PodSim::new(TpuGeneration::V6e, 8);
    let mut g = c.benchmark_group("sim_host/charge_op_pod");
    g.bench_function("v6e8_setD_mult", |b| {
        b.iter(|| {
            pod.reset();
            costs::charge_op_pod(&mut pod, &params, &bundle, ExecMode::Unfused)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("pod_model_eval");
    g.bench_function("backbone_v6e8", |b| {
        b.iter(|| {
            let mut pod = pod_for(TpuGeneration::V6e, 8);
            black_box(costs::backbone_latencies_pod(
                &mut pod,
                &params,
                ExecMode::Unfused,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, sim_host);
criterion_main!(benches);
