//! §V-D: encrypted MNIST CNN inference estimate.
//!
//! The WISE \[67\] network — 2 × {Conv5x5 → square act → AvgPool} → FC
//! → act → FC, batch 64 images, N = 2^13, L = 18, dnum = 3 — is
//! *recorded* as a [`cross_sched::OpGraph`] (convs as
//! rotation+diagonal im2col, FCs as BSGS matvecs, square activations
//! as ct-ct mults; see [`cross_bench::workloads::mnist_network`]), run
//! through the optimizer pipeline (the conv tap rotations of each
//! input ciphertext hoist onto shared digit decompositions) and then
//! through the batch-forming [`cross_sched::Scheduler`]. Same-wave
//! diagonal multiplies and same-step rotations across channel
//! ciphertexts merge into fused batches; each group picks limb- vs
//! batch-parallel sharding against the pod cost model.

//! `--serve` runs the serving smoke instead of the estimate: N client
//! threads drive an inference-shaped request mix through the
//! `cross_sched::serve` loop with real (toy-parameter) ciphertexts
//! (DESIGN.md §8).

use cross_baselines::devices::PAPER_MNIST_MS_PER_IMAGE;
use cross_bench::workloads::{mnist_network, mnist_params};
use cross_bench::{banner, print_serve_smoke, serve_smoke};
use cross_ckks::costs::ExecMode;
use cross_sched::{cost_graph, PassManager, Scheduler};
use cross_tpu::{PodSim, TpuGeneration};

fn main() {
    if std::env::args().any(|a| a == "--serve") {
        banner("MNIST serving smoke: multi-threaded loop, real ciphertexts");
        let (workers, clients, per_client) = (4, 8, 6);
        let smoke = serve_smoke(TpuGeneration::V6e, 8, workers, clients, per_client);
        print_serve_smoke("mnist --serve", workers, clients, &smoke);
        assert!(smoke.occupancy >= 1.0);
        return;
    }
    banner("Sec. V-D: encrypted MNIST CNN inference (batch 64, v6e-8)");
    let params = mnist_params();
    let graph = mnist_network(params.limbs);
    let waves = graph.waves().iter().max().copied().unwrap_or(0);
    println!(
        "recorded graph: {} nodes, {} HE ops, {} dependency waves",
        graph.len(),
        graph.op_count(),
        waves
    );

    // Optimizer pipeline: conv1 rotates one input 74 times and conv2
    // each channel 24 times — prime hoisting fodder.
    let pm = PassManager::standard(TpuGeneration::V6e, 8, ExecMode::FusedBatch);
    let optimized = pm.run(&graph, &params);
    let mut pod = PodSim::new(TpuGeneration::V6e, 8);
    let before = cost_graph(&mut pod, &params, &graph, ExecMode::FusedBatch);
    let after = cost_graph(&mut pod, &params, &optimized.graph, ExecMode::FusedBatch);
    println!(
        "optimizer ({}): {} -> {} HE ops; graph cost {:.1} -> {:.1} ms critical ({:.2}x), \
         {:.1} -> {:.1} ms amortized",
        pm.pass_names().join(" -> "),
        graph.op_count(),
        optimized.graph.op_count(),
        before.critical_ms(),
        after.critical_ms(),
        before.critical_s / after.critical_s,
        before.amortized_ms(),
        after.amortized_ms(),
    );
    assert!(
        after.critical_s <= before.critical_s && after.amortized_s <= before.amortized_s,
        "passes must never increase modeled cost"
    );

    // Paper-comparable worst case first: one tensor core, XLA-unfused
    // lowering, every op dispatched alone (the §V-D methodology — no
    // pipelining or fusion assumed).
    let single_unfused = Scheduler::new(TpuGeneration::V6e, 1).with_mode(ExecMode::Unfused);
    let paper_style_s = single_unfused.naive_wall_s(&graph, &params);

    // Then the scheduler's estimate on the real pod (fused lowering,
    // batch formation over the optimized graph) at 1 and 8 cores.
    let mut per_image = Vec::new();
    for cores in [1u32, 8] {
        let scheduler = Scheduler::new(TpuGeneration::V6e, cores);
        let schedule = scheduler.schedule(&optimized.graph, &params);
        let naive_s = scheduler.naive_wall_s(&graph, &params);
        let fused = schedule.batches.iter().filter(|b| b.ops > 1).count();
        println!(
            "v6e-{cores}: {} batches ({} fused, largest {} ops): \
             optimized+scheduled {:.0} ms vs naive per-op {:.0} ms ({:.2}x)",
            schedule.batches.len(),
            fused,
            schedule.batches.iter().map(|b| b.ops).max().unwrap_or(0),
            schedule.wall_s() * 1e3,
            naive_s * 1e3,
            naive_s / schedule.wall_s(),
        );
        per_image.push(schedule.wall_s());
    }
    println!(
        "one tensor core, unfused per-op (paper methodology): per image {:.0} ms, batch-64 wall {:.0} ms",
        paper_style_s * 1e3,
        paper_style_s * 64.0 * 1e3
    );
    println!(
        "v6e-1 optimized+scheduled:  per image {:.0} ms, batch-64 wall {:.0} ms",
        per_image[0] * 1e3,
        per_image[0] * 64.0 * 1e3
    );
    println!(
        "v6e-8 optimized+scheduled:  per image {:.0} ms, batch-64 wall {:.0} ms",
        per_image[1] * 1e3,
        per_image[1] * 64.0 * 1e3
    );
    println!("paper: {PAPER_MNIST_MS_PER_IMAGE} ms/image (10x faster than Orion, 98% accuracy)");
    println!("\nTakeaway: sub-second per-image encrypted inference on an AI ASIC;");
    println!("the optimizer hoists each ciphertext's conv tap rotations onto one");
    println!("shared decomposition, the scheduler fuses the diagonal multiplies and");
    println!("same-step rotations across channel ciphertexts, and the estimate still");
    println!("charges ICI communication — never dividing by cores.");
}
