//! Speed ratios measured in one process: claims that are timings by
//! nature, held as the ratio of two sides raced against each other.
//!
//! A ratio of two timings taken in the same process, alternately, does
//! not depend on how fast the machine is, so it can be gated on any
//! host. Every test asserts its two sides bit-identical first (a win
//! can never come from different arithmetic), then runs [`ROUNDS`]
//! rounds of `a` and `b`, alternating which side goes first, each
//! side repeated enough times to fill [`SIDE_TIME`]. It prints the
//! median ratio `a / b` with its quartiles and fails when the median
//! does not read below the bar.
//!
//! Timings mean nothing unoptimised, so every test is `#[ignore]`d;
//! run them as
//! `cargo test -q --release -p cross --test speed_ratios -- --ignored`.
//! Each test holds a shared lock throughout, so none times another.

use cross::ckks::costs::ExecMode;
use cross::ckks::{BatchedCiphertext, Ciphertext, CkksContext, CkksParams, Evaluator, ParamSet};
use cross::core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross::core::modred::ModRed;
use cross::math::{par, primes};
use cross::poly::ring::Domain;
use cross::poly::{host_ntt, ntt, NttTables, PolyBatch, RnsContext};
use cross::sched::{cost_graph, OpGraph};
use cross::tpu::{PodSim, TpuGeneration};
use cross_bench::workloads::{helr_iteration, helr_params, mnist_network, mnist_params};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Rounds per race; odd, so the median is one round's ratio.
const ROUNDS: usize = 21;

/// Least time one side runs per round.
const SIDE_TIME: Duration = Duration::from_millis(10);

/// Held for the whole of every test, so no test's setup or race runs
/// beside another's.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Seconds `f` takes over `reps` calls.
fn time(reps: usize, f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64()
}

/// The sorted ratios `time(a) / time(b)` of [`ROUNDS`] alternating
/// rounds.
fn ratios(mut a: impl FnMut(), mut b: impl FnMut()) -> Vec<f64> {
    // One warm call each, then enough repetitions that the faster side
    // fills SIDE_TIME.
    let once = time(1, &mut a).min(time(1, &mut b)).max(1e-9);
    let reps = ((SIDE_TIME.as_secs_f64() / once).ceil() as usize).max(1);
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let ta = time(reps, &mut a);
                ta / time(reps, &mut b)
            } else {
                let tb = time(reps, &mut b);
                time(reps, &mut a) / tb
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// The first quartile, median and third quartile of sorted `ratios`.
fn quartiles(ratios: &[f64]) -> (f64, f64, f64) {
    let n = ratios.len();
    (ratios[n / 4], ratios[n / 2], ratios[3 * n / 4])
}

/// Prints the median of sorted `ratios` with its quartiles, and fails
/// unless the median reads below `bar`.
fn gate(name: &str, bar: f64, ratios: &[f64]) {
    let (q1, median, q3) = quartiles(ratios);
    println!("{name}: median {median:.3} (quartiles {q1:.3}–{q3:.3}), bar < {bar}");
    assert!(
        median < bar,
        "{name}: median ratio {median:.3} does not read below {bar}"
    );
}

/// Races `a` against `b` and gates `a / b`.
fn race(name: &str, bar: f64, a: impl FnMut(), b: impl FnMut()) {
    gate(name, bar, &ratios(a, b));
}

/// Pseudo-random residues below `q`.
fn residues(len: usize, q: u64, seed: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(2654435761) + seed) % q)
        .collect()
}

/// The 3-step MAT plan at `R = 2^⌊log N / 2⌋`, as the CPU row of
/// Tab. VIII runs it.
fn mat3_plan(tables: &Arc<NttTables>) -> Ntt3Plan {
    let n = tables.n();
    let r = 1usize << (n.trailing_zeros() / 2);
    Ntt3Plan::new(
        tables.clone(),
        Ntt3Config {
            r,
            c: n / r,
            modred: ModRed::Montgomery,
            embed_bitrev: true,
        },
    )
}

/// The host NTT every domain conversion runs
/// (`host_ntt::forward_inplace`) reads within 1.05 × the radix-2
/// butterflies and the MAT 3-step reference, at the toy degree and
/// Set A/B's. Each call transforms a fresh copy, as the reference
/// allocates its output.
#[test]
#[ignore = "timing: run optimised with --ignored"]
fn host_ntt_within_1_05_of_radix2_and_mat3() {
    let _alone = alone();
    for logn in [10u32, 12, 13] {
        let n = 1usize << logn;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let a = residues(n, q, 1);
        let forward = |f: fn(&mut [u64], &NttTables)| {
            let mut x = a.clone();
            f(&mut x, &tables);
            x
        };
        let plan = mat3_plan(&tables);
        let host = forward(host_ntt::forward_inplace);
        assert_eq!(host, forward(ntt::forward_inplace), "host == radix2");
        assert_eq!(host, plan.forward_reference(&a), "host == MAT 3-step");
        race(
            &format!("ntt/{logn}: host / radix2_ct"),
            1.05,
            || drop(black_box(forward(host_ntt::forward_inplace))),
            || drop(black_box(forward(ntt::forward_inplace))),
        );
        race(
            &format!("ntt/{logn}: host / mat_3step_ref"),
            1.05,
            || drop(black_box(forward(host_ntt::forward_inplace))),
            || drop(black_box(plan.forward_reference(&a))),
        );
    }
}

/// A batch of 8 polynomials at `N = 2^12`: the fused MAT 3-step (each
/// matmul once over the `C·batch` streamed dimension) beats the
/// per-polynomial loop, and the host NTT's batch
/// (`PolyBatch::to_evaluation`) beats the fused MAT 3-step — the
/// Fig. 11b mechanism, and the default engine being the fastest.
///
/// Both races run on a thread marked with `par::mark_worker`, so every
/// side runs on that one thread: the fused matmul would otherwise fan
/// out over the pool while the per-polynomial loop runs on one thread,
/// and the ratio would measure the host's core count, not fusion.
#[test]
#[ignore = "timing: run optimised with --ignored"]
fn batched_ntt_fused_beats_sequential_and_host_beats_mat3() {
    let _alone = alone();
    let (n, batch) = (1usize << 12, 8usize);
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    let tables = Arc::new(NttTables::new(n, q));
    let a = residues(batch * n, q, 3);
    let plan = mat3_plan(&tables);
    let sequential = || -> Vec<u64> {
        a.chunks(n)
            .flat_map(|p| plan.forward_reference(p))
            .collect()
    };
    let fused = || plan.forward_batch_reference(&a, batch);
    let ctx = Arc::new(RnsContext::with_tables(n, vec![tables.clone()]));
    let coeffs = PolyBatch::from_limbs(ctx, vec![a.clone()], Domain::Coefficient);
    let host = || {
        let mut pb = coeffs.clone();
        pb.to_evaluation();
        pb
    };
    let want = sequential();
    assert_eq!(fused(), want, "mat3 fused == sequential");
    assert_eq!(host().limbs()[0], want, "host batch == mat3");
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            race(
                "batched_ntt/4096x8: mat3_fused / mat3_sequential",
                1.0,
                || drop(black_box(fused())),
                || drop(black_box(sequential())),
            );
            race(
                "batched_ntt/4096x8: host_fused / mat3_fused",
                1.0,
                || drop(black_box(host())),
                || drop(black_box(fused())),
            );
        });
    });
}

/// The cached-plan key switch (`key_switch`) beats the pre-plan
/// reference dataflow at every level of the toy chain, on a batch of 4.
#[test]
#[ignore = "timing: run optimised with --ignored"]
fn key_switch_fast_beats_reference_at_every_level() {
    let _alone = alone();
    let ctx = CkksContext::new(CkksParams::toy(), 1226);
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);
    let n = ctx.params().n;
    for level in 1..=ctx.params().limbs {
        let level_ctx = ctx.level_ctx(level).clone();
        let limbs = level_ctx
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, &q)| residues(4 * n, q, 0x1226 + 31 * (level + 8 * i) as u64))
            .collect();
        let d = PolyBatch::from_limbs(level_ctx, limbs, Domain::Evaluation);
        let fast = ev.key_switch(&d, &kp.relin);
        let reference = ev.key_switch_reference(&d, &kp.relin);
        assert_eq!(fast.0.limbs(), reference.0.limbs(), "level {level} out0");
        assert_eq!(fast.1.limbs(), reference.1.limbs(), "level {level} out1");
        race(
            &format!("ks_path/{level}: fast / reference"),
            1.0,
            || drop(black_box(ev.key_switch(&d, &kp.relin))),
            || drop(black_box(ev.key_switch_reference(&d, &kp.relin))),
        );
    }
}

/// A batch of 8 is 8 eager calls: `mult_batch` and `rotate_batch` over
/// 8 entries read within 1.05 × 8 eager `mult` / `rotate` calls on the
/// same ciphertexts, at Set B (`N = 2^13`, 8 limbs, dnum 3), at the
/// `serve_tenants` benchmark's shape (`2^12`, 4, 2) and at
/// `fused_graph`'s (`2^10`, 17, 3). The gated races run on a thread
/// marked with `par::mark_worker`, where every kernel runs inline, so
/// the ratio is the cost of the batch's loop over its entries. On a
/// plain thread the batch spreads its entries over the pool while each
/// eager call fans out inside its kernels; those rows only print.
#[test]
#[ignore = "timing: run optimised with --ignored"]
fn batch_of_eight_reads_as_eight_eager_calls() {
    let _alone = alone();
    let shapes = [
        ("Set B", ParamSet::B.params()),
        ("serve_tenants", CkksParams::new(1 << 12, 4, 2, 28)),
        ("fused_graph", CkksParams::new(1 << 10, 17, 3, 28)),
    ];
    for (shape, params) in shapes {
        let ctx = CkksContext::new(params, 0xBA7C);
        let kp = ctx.generate_keys();
        let rot = ctx.generate_rotation_key(&kp.secret, 1);
        let ev = Evaluator::new(&ctx);
        let cts: Vec<Ciphertext> = (0..8)
            .map(|i| ctx.encrypt(&vec![0.05 * i as f64; ctx.slot_count()], &kp.public))
            .collect();
        let packed = BatchedCiphertext::from_ciphertexts(&cts);
        let mult_batch = || ev.mult_batch(&packed, &packed, &kp.relin);
        let mult_eager = || -> Vec<_> { cts.iter().map(|c| ev.mult(c, c, &kp.relin)).collect() };
        let rotate_batch = || ev.rotate_batch(&packed, 1, &rot);
        let rotate_eager = || -> Vec<_> { cts.iter().map(|c| ev.rotate(c, 1, &rot)).collect() };
        for (op, batch, eager) in [
            ("mult", mult_batch().to_ciphertexts(), mult_eager()),
            ("rotate", rotate_batch().to_ciphertexts(), rotate_eager()),
        ] {
            for (b, (got, want)) in batch.iter().zip(&eager).enumerate() {
                let same = got.c0.limbs() == want.c0.limbs()
                    && got.c1.limbs() == want.c1.limbs()
                    && got.level == want.level
                    && got.scale.to_bits() == want.scale.to_bits();
                assert!(same, "{shape} {op}: entry {b} differs from the eager call");
            }
        }
        let races = || {
            [
                (
                    "mult",
                    ratios(
                        || drop(black_box(mult_batch())),
                        || drop(black_box(mult_eager())),
                    ),
                ),
                (
                    "rotate",
                    ratios(
                        || drop(black_box(rotate_batch())),
                        || drop(black_box(rotate_eager())),
                    ),
                ),
            ]
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                par::mark_worker();
                for (op, r) in races() {
                    gate(
                        &format!("batch8/{shape}/{op}/marked: batch / eager"),
                        1.05,
                        &r,
                    );
                }
            });
        });
        for (op, r) in races() {
            let (q1, median, q3) = quartiles(&r);
            println!(
                "batch8/{shape}/{op}/plain: batch / eager: median {median:.3} \
                 (quartiles {q1:.3}–{q3:.3}), printed only"
            );
        }
    }
}

/// Costing a graph stays linear in its size: `cost_graph`'s host time
/// per op on MNIST (7.2 × HELR's ops, each a smaller kernel) reads
/// within 2 × HELR's. Re-summing the trace at every kernel boundary,
/// the accounting before it was incremental, read 2.3 ×.
#[test]
#[ignore = "timing: run optimised with --ignored"]
fn cost_graph_per_op_stays_linear_in_the_graph() {
    let _alone = alone();
    let (helr, mnist) = (helr_params(), mnist_params());
    let (helr_graph, mnist_graph) = (helr_iteration(helr.limbs), mnist_network(mnist.limbs));
    let mut helr_pod = PodSim::new(TpuGeneration::V6e, 8);
    let mut mnist_pod = PodSim::new(TpuGeneration::V6e, 8);
    // A walk is deterministic: two walks cost the graph to the same bits.
    let walk = |pod: &mut PodSim, params: &CkksParams, graph: &OpGraph| {
        cost_graph(pod, params, graph, ExecMode::FusedBatch).critical_s
    };
    for (pod, params, graph) in [
        (&mut helr_pod, &helr, &helr_graph),
        (&mut mnist_pod, &mnist, &mnist_graph),
    ] {
        let first = walk(pod, params, graph);
        assert_eq!(first.to_bits(), walk(pod, params, graph).to_bits());
    }
    // One walk a side; the ratio of walk times, scaled by the op
    // counts, is the ratio of per-op times.
    let per_op = helr_graph.op_count() as f64 / mnist_graph.op_count() as f64;
    let walk_ratios = ratios(
        || {
            black_box(walk(&mut mnist_pod, &mnist, &mnist_graph));
        },
        || {
            black_box(walk(&mut helr_pod, &helr, &helr_graph));
        },
    );
    let per_op_ratios: Vec<f64> = walk_ratios.iter().map(|r| r * per_op).collect();
    gate(
        "sim_host/cost_graph_per_op: mnist / helr",
        2.0,
        &per_op_ratios,
    );
}
