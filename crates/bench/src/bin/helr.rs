//! §V-D: HELR (encrypted logistic regression \[30\]) iteration estimate —
//! one gradient-descent step over a 1024-image batch of 14×14 MNIST.
//!
//! The iteration is *recorded* as a [`cross_sched::OpGraph`] (forward
//! BSGS inner products → degree-3 sigmoid → gradient → update; see
//! [`cross_bench::workloads::helr_iteration`]) and handed to the
//! batch-forming [`cross_sched::Scheduler`] with the optimizer
//! pipeline on: the per-ciphertext rotation fan-outs hoist onto shared
//! digit decompositions ([`cross_sched::PassManager`]), then rotations
//! with the same step across the 8 data ciphertexts merge into fused
//! batches, and every group picks limb- vs batch-parallel sharding
//! against the pod cost model. The same graph is interpreted by
//! [`cross_sched::cost_graph`] — one compiler path instead of a
//! hand-written op-count loop.

//! `--serve` runs the serving smoke instead of the estimate: N client
//! threads drive a HELR-shaped rotate/square/add mix through the
//! `cross_sched::serve` loop with real (toy-parameter) ciphertexts,
//! wait on every completion, and report requests/sec plus batch
//! occupancy (DESIGN.md §8).
//!
//! `--serve-tenants` runs the multi-tenant soak instead: Zipf-skewed
//! tenants with their own key material drive
//! `cross_sched::serve_tenants` under a key-cache budget sized to
//! thrash, reporting p50/p99 latency, occupancy, and key-residency
//! traffic (DESIGN.md §11).

use cross_baselines::devices::PAPER_HELR_MS_PER_ITER;
use cross_bench::serve_tenants_smoke;
use cross_bench::workloads::{helr_iteration, helr_params};
use cross_bench::{banner, print_serve_smoke, print_serve_tenants_smoke, serve_smoke};
use cross_ckks::costs::ExecMode;
use cross_sched::{cost_graph, PassManager, Scheduler};
use cross_tpu::{PodSim, TpuGeneration};

fn main() {
    if std::env::args().any(|a| a == "--serve-tenants") {
        banner("HELR multi-tenant soak: Zipf tenants, thrashing key cache");
        let (workers, tenants, total) = (4, 4, 48);
        let smoke = serve_tenants_smoke(TpuGeneration::V6e, 8, workers, tenants, total);
        print_serve_tenants_smoke("helr --serve-tenants", workers, &smoke);
        assert_eq!(smoke.failed, 0, "a healthy soak fails no ticket");
        assert!(
            smoke.key_misses >= tenants as u64,
            "every tenant's keys admit cold at least once"
        );
        // Each tenant's burst fuses into shared batches: the mean reads
        // 1.58-1.88 ops per batch on a 2-core host, and below 1.32
        // batching under contention has regressed.
        assert!(
            smoke.occupancy >= 1.32,
            "tenant bursts fuse (occupancy {:.2})",
            smoke.occupancy
        );
        return;
    }
    if std::env::args().any(|a| a == "--serve") {
        banner("HELR serving smoke: multi-threaded loop, real ciphertexts");
        let (workers, clients, per_client) = (4, 4, 9);
        let smoke = serve_smoke(TpuGeneration::V6e, 8, workers, clients, per_client);
        print_serve_smoke("helr --serve", workers, clients, &smoke);
        assert!(
            smoke.occupancy >= 1.0,
            "every op rides in a batch of at least itself"
        );
        return;
    }
    banner("Sec. V-D: HELR logistic regression, one iteration");
    // HELR-scale parameters mapped to 28-bit moduli (double rescaling).
    let params = helr_params();
    let graph = helr_iteration(params.limbs);
    let waves = graph.waves().iter().max().copied().unwrap_or(0);
    println!(
        "recorded graph: {} nodes, {} HE ops, {} dependency waves",
        graph.len(),
        graph.op_count(),
        waves
    );

    // Optimizer pipeline: the 8-rotation fan-out per data ciphertext
    // is exactly the hoisting pattern, so the shared decompositions
    // shave modeled cost before the scheduler ever sees the graph.
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

    for cores in [1u32, 8] {
        let scheduler = Scheduler::new(TpuGeneration::V6e, cores);
        let schedule = scheduler.schedule(&optimized.graph, &params);
        let naive_s = scheduler.naive_wall_s(&graph, &params);
        let fused_groups = schedule.batches.iter().filter(|b| b.ops > 1).count();
        let largest = schedule.batches.iter().map(|b| b.ops).max().unwrap_or(0);
        println!(
            "v6e-{cores}: {} batches ({} fused, largest {} ops)",
            schedule.batches.len(),
            fused_groups,
            largest
        );
        println!(
            "v6e-{cores}: one iteration {:.1} ms optimized+scheduled vs {:.1} ms naive per-op \
             ({:.2}x, amortized {:.0} us/op; paper: {PAPER_HELR_MS_PER_ITER} ms)",
            schedule.wall_s() * 1e3,
            naive_s * 1e3,
            naive_s / schedule.wall_s(),
            schedule.per_op_s() * 1e6,
        );
    }
    println!("\nTakeaway: tens-of-ms encrypted training steps; the optimizer hoists");
    println!("each data ciphertext's rotation fan-out onto one shared decomposition,");
    println!("then batch formation merges same-step rotations across the 8 data");
    println!("ciphertexts, so keys and NTT twiddles load once per fused group — the");
    println!("pipeline beats naive per-op dispatch on the same pod, with ICI");
    println!("scatters and all-reduces still charged, never free.");
}
