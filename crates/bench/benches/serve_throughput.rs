//! Serving-loop throughput (ISSUE 5): the multi-threaded
//! `cross_sched::serve` loop vs the single-thread PR-4 path
//! (`RequestQueue::drain` + `execute_schedule` on the caller thread),
//! both functionally executing the same 64-request mix at small
//! (N = 2¹¹, L = 6) parameters. The serving loop is measured at
//! **steady state** — one
//! long-lived server, warmed until every worker thread has executed a
//! dispatch (cold workers pay one-time stack/allocator-arena faults),
//! then the best round of several depth-64 bursts — against the best
//! single-thread pass after its own warm-up discard.
//!
//! Entries in `BENCH_results.json` (warn-only in `bench_diff` — these
//! are wall-clock numbers on shared runners, not model output):
//!
//! * `serve_throughput/single_drain/64` — ns per request through the
//!   synchronous drain path (submit 64, drain, execute, one thread);
//! * `serve_throughput/serve_multi/64` — ns per request through the
//!   serving loop (4 client threads × 16 requests, 4 workers,
//!   whole-depth drain with a 5 ms micro-batching window).
//!
//! Batch occupancy (mean ops per fused batch) is printed but *not*
//! recorded: every `BENCH_results.json` entry is read as ns/iter where
//! larger = worse, which is backwards for a higher-is-better ratio.
//!
//! The acceptance claim is that the multi-worker loop sustains at
//! least the single-thread drain's requests/sec at depth 64: its
//! channel/thread coordination must stay in the noise next to the HE
//! kernels it schedules. On a single-core container that is parity by
//! construction (the loop's work strictly supersets the drain path's);
//! on a multi-core host worker parallelism then pushes it ahead.
//!
//! The **multi-tenant** keys (gated in `bench_diff`; wall-clock, with
//! the same refresh-the-baseline remedy as `batched_ntt`):
//!
//! * `serve_tenants/p50_latency/96` / `serve_tenants/p99_latency/96`
//!   — submit→completion latency percentiles (ns) of a 96-request
//!   Zipf-skewed 4-tenant soak through [`serve_tenants_smoke`], key
//!   cache budgeted below the combined key bytes so switching keys
//!   thrash while results stay exact;
//! * `serve_tenants/inv_occupancy/96` — `1000 / occupancy` for the
//!   same soak, inverted so the recorded number keeps the larger =
//!   worse convention (fused batches never mix tenants, so occupancy
//!   here is earned within each tenant's own burst).
//!
//! Deficit-round-robin fairness is a tier-1 test
//! (`tests/serve_tenants.rs`), not a bench key.

use criterion::{criterion_group, criterion_main, results, Criterion};
use cross_bench::serve_tenants_smoke;
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator};
use cross_sched::serve::{self, ServeConfig, ServeKeys};
use cross_sched::{execute_schedule, HeOpKind, ReplayKeys, RequestQueue, Scheduler};
use cross_tpu::TpuGeneration;
use std::time::Instant;

const DEPTH: usize = 64;
const CLIENTS: usize = 4;
const WORKERS: usize = 4;
const ITERS: usize = 3;

fn mix(i: usize) -> HeOpKind {
    match i % 3 {
        0 => HeOpKind::Rotate { steps: 1 },
        1 => HeOpKind::Mult,
        _ => HeOpKind::Add,
    }
}

/// One pass of the synchronous PR-4 path: submit the whole depth,
/// drain once, execute the schedule on the calling thread.
fn single_drain_pass(
    ctx: &CkksContext,
    ev: &Evaluator,
    scheduler: &Scheduler,
    replay_keys: &ReplayKeys,
    ct: &Ciphertext,
) -> f64 {
    let t0 = Instant::now();
    let mut queue = RequestQueue::new();
    for i in 0..DEPTH {
        queue.submit_default(mix(i), ct.level).unwrap();
    }
    let dispatch = queue.drain(scheduler, ctx.params(), DEPTH);
    let mut inputs = Vec::new();
    for &(_, node) in &dispatch.tickets {
        for _ in 0..dispatch.graph.node(node).kind.arity() {
            inputs.push(ct.clone());
        }
    }
    let results = execute_schedule(
        &dispatch.graph,
        &dispatch.schedule,
        ev,
        replay_keys,
        &inputs,
    );
    assert_eq!(results.iter().flatten().count(), DEPTH + inputs.len());
    t0.elapsed().as_secs_f64()
}

/// Steady-state serving: one long-lived loop (workers spawned once,
/// as a real server runs), ROUNDS rounds of a depth-64 burst — each
/// round CLIENTS client threads keep the whole depth in flight. The
/// first round is warm-up; returns (best round seconds, occupancy).
fn serve_rounds(ctx: &CkksContext, serve_keys: &ServeKeys, ct: &Ciphertext) -> (f64, f64) {
    // Throughput-tuned loop: drain the whole depth per dispatch, with
    // a micro-batching window so occupancy matches the drain path's.
    let config = ServeConfig::new(TpuGeneration::V6e, 8)
        .with_workers(WORKERS)
        .with_drain_max(DEPTH)
        .with_batch_window(std::time::Duration::from_millis(5));
    serve::run(ctx, serve_keys, &config, |session| {
        // Server warm-up: WORKERS concurrent depth-64 dispatches, so
        // every worker thread executes once (faulting in its stack
        // and allocator arena) before a round is measured.
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(move || {
                    let x = session.insert(ct.clone());
                    let pending: Vec<_> = (0..DEPTH)
                        .map(|i| session.submit(mix(i), &vec![x; mix(i).arity()]).unwrap())
                        .collect();
                    for done in pending {
                        session.take(done.wait().expect("completes").id);
                    }
                    session.take(x);
                });
            }
        });
        let mut best = f64::INFINITY;
        for _ in 0..ITERS {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..CLIENTS {
                    s.spawn(move || {
                        // Throughput-style client: keep the whole depth
                        // in flight, then collect responses.
                        let x = session.insert(ct.clone());
                        let pending: Vec<_> = (0..DEPTH / CLIENTS)
                            .map(|i| session.submit(mix(i), &vec![x; mix(i).arity()]).unwrap())
                            .collect();
                        for done in pending {
                            let completed = done.wait().expect("completes");
                            session.take(completed.id).expect("result stored");
                        }
                        session.take(x);
                    });
                }
            });
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let stats = session.stats();
        assert_eq!(
            stats.ops as usize,
            DEPTH * (ITERS + WORKERS),
            "no ticket lost"
        );
        assert_eq!(session.stored(), 0, "every response claimed");
        (best, stats.occupancy())
    })
}

/// Tenants in the Zipf soak and its total request count — the
/// `serve_tenants/*/96` keys.
const SOAK_TENANTS: usize = 4;
const SOAK_TOTAL: usize = 96;
fn serve_throughput(_c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::new(1 << 11, 6, 2, 28), 83);
    let kp = ctx.generate_keys();
    let rk = ctx.generate_rotation_key(&kp.secret, 1);
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.2 + (i as f64 * 0.17).sin() * 0.25)
        .collect();
    let ct = ctx.encrypt(&msg, &kp.public);
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let ev = Evaluator::new(&ctx);
    let replay_keys = ReplayKeys::new()
        .with_relin(&kp.relin)
        .with_rotation(1, &rk);
    let serve_keys = ServeKeys::new()
        .with_relin(kp.relin.clone())
        .with_rotation(1, rk.clone());

    // Best-of-N for both modes; each gets one discarded warm-up pass.
    let mut single_s = f64::INFINITY;
    for round in 0..=ITERS {
        let pass = single_drain_pass(&ctx, &ev, &scheduler, &replay_keys, &ct);
        if round > 0 {
            single_s = single_s.min(pass);
        }
    }
    let (multi_s, occupancy) = serve_rounds(&ctx, &serve_keys, &ct);

    let single_ns = single_s / DEPTH as f64 * 1e9;
    let multi_ns = multi_s / DEPTH as f64 * 1e9;
    results::record(&format!("serve_throughput/single_drain/{DEPTH}"), single_ns);
    results::record(&format!("serve_throughput/serve_multi/{DEPTH}"), multi_ns);
    println!(
        "  serve_throughput/{DEPTH}: serve {:.0} req/s ({WORKERS} workers, occupancy {:.2}) \
         vs single-thread drain {:.0} req/s ({:.2}x)",
        1e9 / multi_ns,
        occupancy,
        1e9 / single_ns,
        single_ns / multi_ns,
    );

    // Multi-tenant soak: Zipf-skewed tenants, thrashing key cache,
    // submit→completion latency percentiles (gated keys).
    let soak = serve_tenants_smoke(TpuGeneration::V6e, 8, WORKERS, SOAK_TENANTS, SOAK_TOTAL);
    assert_eq!(soak.failed, 0, "a healthy soak fails no ticket");
    results::record(
        &format!("serve_tenants/p50_latency/{SOAK_TOTAL}"),
        soak.p50_s * 1e9,
    );
    results::record(
        &format!("serve_tenants/p99_latency/{SOAK_TOTAL}"),
        soak.p99_s * 1e9,
    );
    results::record(
        &format!("serve_tenants/inv_occupancy/{SOAK_TOTAL}"),
        1e3 / soak.occupancy.max(1e-9),
    );
    println!(
        "  serve_tenants/{SOAK_TOTAL}: {} tenants, {:.0} req/s, p50 {:.2} ms / p99 {:.2} ms, \
         occupancy {:.2}, {} key misses ({} evictions)",
        soak.tenants,
        soak.requests_per_sec,
        soak.p50_s * 1e3,
        soak.p99_s * 1e3,
        soak.occupancy,
        soak.key_misses,
        soak.key_evictions,
    );
}

criterion_group!(benches, serve_throughput);
criterion_main!(benches);
