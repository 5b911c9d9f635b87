//! Criterion: key-switching fast path vs the pre-plan reference
//! dataflow (ISSUE 9), plus hoisted rotation fan-out vs eager rotates.
//!
//! Every pair is asserted bit-identical *before* timing starts, so a
//! reported speedup can never come from diverging arithmetic. Gated
//! pairs in `bench_diff` pin fast ≤ reference per level and
//! hoisted_8rot ≤ 0.75 × eager_8rot.

use criterion::{criterion_group, criterion_main, Criterion};
use cross_ckks::{CkksContext, CkksParams, Evaluator, SwitchingKey};
use cross_poly::ring::Domain;
use cross_poly::PolyBatch;

/// Deterministic pseudo-random residues from a seed.
fn residues(len: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect()
}

fn random_batch(ctx: &CkksContext, level: usize, batch: usize, seed: u64) -> PolyBatch {
    let n = ctx.params().n;
    let level_ctx = ctx.level_ctx(level).clone();
    let limbs: Vec<Vec<u64>> = level_ctx
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, &q)| residues(batch * n, q, seed.wrapping_add(i as u64 * 0x9E37)))
        .collect();
    PolyBatch::from_limbs(level_ctx, limbs, Domain::Evaluation)
}

fn bench_ks_path(c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::toy(), 1226);
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);

    let mut g = c.benchmark_group("ks_path");
    g.sample_size(10);

    for level in 1..=ctx.params().limbs {
        let d = random_batch(&ctx, level, 4, 0x1226 + level as u64);
        // bit-identity guard before any timing
        let fast = ev.key_switch_batch(&d, &kp.relin);
        let reference = ev.key_switch_batch_reference(&d, &kp.relin);
        assert_eq!(fast.0.limbs(), reference.0.limbs(), "ks out0 level {level}");
        assert_eq!(fast.1.limbs(), reference.1.limbs(), "ks out1 level {level}");

        g.bench_function(format!("fast/{level}"), |b| {
            b.iter(|| ev.key_switch_batch(&d, &kp.relin))
        });
        g.bench_function(format!("reference/{level}"), |b| {
            b.iter(|| ev.key_switch_batch_reference(&d, &kp.relin))
        });
    }

    // 8-rotation fan-out: one hoisted decomposition vs 8 eager rotates
    // (each its own decomposition).
    let steps: Vec<usize> = (1..=8).collect();
    let keys: Vec<SwitchingKey> = steps
        .iter()
        .map(|&s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.17).sin() * 0.4)
        .collect();
    let ct = ctx.encrypt(&msg, &kp.public);
    let rotations: Vec<(usize, &SwitchingKey)> = steps.iter().copied().zip(keys.iter()).collect();
    let hoisted = ev.hoisted_rotations(&ct, &rotations);
    for ((got, &s), key) in hoisted.iter().zip(&steps).zip(&keys) {
        let want = ev.rotate(&ct, s, key);
        assert_eq!(got.c0.limbs(), want.c0.limbs(), "hoisted c0 step {s}");
        assert_eq!(got.c1.limbs(), want.c1.limbs(), "hoisted c1 step {s}");
    }

    g.bench_function("hoisted_8rot", |b| {
        b.iter(|| ev.hoisted_rotations(&ct, &rotations))
    });
    g.bench_function("eager_8rot", |b| {
        b.iter(|| {
            steps
                .iter()
                .zip(&keys)
                .map(|(&s, key)| ev.rotate(&ct, s, key))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ks_path);
criterion_main!(benches);
