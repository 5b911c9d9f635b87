//! Key-switching fast-path differential suite (ISSUE 9).
//!
//! The cached-plan fast paths (`key_switch_batch`, the fused mod-down,
//! `rescale_batch`) and the functionally real rotation hoisting are
//! pinned **bit-identical** to the pre-plan reference dataflow kept in
//! `Evaluator::{key_switch_batch_reference, rescale_batch_reference}`:
//!
//! * fast vs reference key switch across every level `1..=limbs`,
//!   digit counts `dnum ∈ {1, 2, 4}`, batch widths 1/3/8, and both
//!   input domains — deterministic sweep plus a proptest layer;
//! * fast vs reference rescale across levels and batch widths;
//! * a hoisted k-rotation fan-out vs k independent `rotate` calls
//!   through the eager evaluator;
//! * the serving path (optimizer on, so `HoistDecomp`/`HoistedRotate`
//!   execute through the hoisted engine) vs eager evaluation.

use cross::ckks::{
    BatchedCiphertext, Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey,
};
use cross::poly::ring::Domain;
use cross::poly::PolyBatch;
use cross::sched::serve::{ServeConfig, ServeKeys};
use cross::sched::session::{serve_tenants, TenantSpec};
use cross::tpu::TpuGeneration;
use proptest::prelude::*;
use std::sync::Arc;

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

/// A small test context: `N = 2^6` keeps key generation and the
/// reference path fast while exercising every digit/level shape.
fn small_ctx(dnum: usize, seed: u64) -> (CkksContext, KeyPair) {
    let ctx = CkksContext::new(CkksParams::new(1 << 6, 4, dnum, 28), seed);
    let kp = ctx.generate_keys();
    (ctx, kp)
}

/// Random evaluation-domain batch at `level`.
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

fn assert_pair_eq(got: &(PolyBatch, PolyBatch), want: &(PolyBatch, PolyBatch), what: &str) {
    assert_eq!(got.0.domain(), want.0.domain(), "{what}: out0 domain");
    assert_eq!(got.1.domain(), want.1.domain(), "{what}: out1 domain");
    assert_eq!(got.0.limbs(), want.0.limbs(), "{what}: out0 limbs");
    assert_eq!(got.1.limbs(), want.1.limbs(), "{what}: out1 limbs");
}

fn assert_ct_eq(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert_eq!(got.level, want.level, "{what}: level");
    assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{what}: scale");
    assert_eq!(got.c0.limbs(), want.c0.limbs(), "{what}: c0");
    assert_eq!(got.c1.limbs(), want.c1.limbs(), "{what}: c1");
}

/// Fast key switch ≡ pre-plan reference, across digit counts, levels,
/// batch widths and both input domains.
#[test]
fn key_switch_fast_matches_reference_sweep() {
    for dnum in [1usize, 2, 4] {
        let (ctx, kp) = small_ctx(dnum, 41 + dnum as u64);
        let ev = Evaluator::new(&ctx);
        for level in 1..=ctx.params().limbs {
            for batch in [1usize, 3, 8] {
                let d = random_batch(&ctx, level, batch, 0xD1617 + (level * 31 + batch) as u64);
                let fast = ev.key_switch_batch(&d, &kp.relin);
                let reference = ev.key_switch_batch_reference(&d, &kp.relin);
                assert_pair_eq(
                    &fast,
                    &reference,
                    &format!("dnum {dnum} level {level} batch {batch}"),
                );
                // coefficient-domain input takes the same fast path
                let mut d_coeff = d.clone();
                d_coeff.to_coefficient();
                let fast_c = ev.key_switch_batch(&d_coeff, &kp.relin);
                assert_pair_eq(
                    &fast_c,
                    &reference,
                    &format!("dnum {dnum} level {level} batch {batch} (coeff input)"),
                );
            }
        }
    }
}

/// Fast rescale ≡ pre-plan reference across levels and batch widths,
/// including scale bookkeeping.
#[test]
fn rescale_fast_matches_reference_sweep() {
    let (ctx, _kp) = small_ctx(2, 97);
    let ev = Evaluator::new(&ctx);
    for level in 2..=ctx.params().limbs {
        for batch in [1usize, 3, 8] {
            let ct = BatchedCiphertext {
                c0: random_batch(&ctx, level, batch, 0xC0 + (level * 17 + batch) as u64),
                c1: random_batch(&ctx, level, batch, 0xC1 + (level * 23 + batch) as u64),
                level,
                scales: (0..batch).map(|b| 1e9 + b as f64).collect(),
            };
            let fast = ev.rescale_batch(&ct);
            let reference = ev.rescale_batch_reference(&ct);
            assert_eq!(fast.level, reference.level);
            for (a, b) in fast.scales.iter().zip(&reference.scales) {
                assert_eq!(a.to_bits(), b.to_bits(), "scale bits");
            }
            assert_pair_eq(
                &(fast.c0, fast.c1),
                &(reference.c0, reference.c1),
                &format!("rescale level {level} batch {batch}"),
            );
        }
    }
}

/// The per-level plan is compiled once and cached: repeated lookups
/// return the same `Arc`, so `BconvKernel::compile` is off every
/// per-op path after warmup.
#[test]
fn ks_plan_is_cached_per_level() {
    let (ctx, kp) = small_ctx(2, 7);
    let ev = Evaluator::new(&ctx);
    let l = ctx.params().limbs;
    let first = ctx.ks_plan(l).clone();
    let d = random_batch(&ctx, l, 1, 0xCAFE);
    let _ = ev.key_switch_batch(&d, &kp.relin);
    let _ = ev.key_switch_batch(&d, &kp.relin);
    assert!(
        Arc::ptr_eq(&first, ctx.ks_plan(l)),
        "plan must be compiled once per level"
    );
    assert_eq!(first.digit_count(), ctx.digit_count(l));
    assert!(first.param_bytes() > 0);
}

/// A hoisted k-rotation fan-out is bit-identical to k independent
/// eager rotates (decomposition shared, Galois tail per rotation).
#[test]
fn hoisted_fanout_matches_independent_rotates() {
    let ctx = CkksContext::new(CkksParams::toy(), 0x40157);
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);
    let steps: Vec<usize> = vec![1, 2, 3, 5, 7, 1];
    let keys: Vec<SwitchingKey> = steps
        .iter()
        .map(|&s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.25 + (i as f64 * 0.19).sin() * 0.4)
        .collect();
    let ct = ctx.encrypt(&msg, &kp.public);
    let rotations: Vec<(usize, &SwitchingKey)> = steps.iter().copied().zip(keys.iter()).collect();
    let hoisted = ev.hoisted_rotations(&ct, &rotations);
    for ((got, &s), key) in hoisted.iter().zip(&steps).zip(&keys) {
        let want = ev.rotate(&ct, s, key);
        assert_ct_eq(got, &want, &format!("hoisted rotate by {s}"));
    }
    // the one-rotation hoisted path is the rotate implementation
    let h = ev.hoist_decompose(&ct);
    assert_ct_eq(
        &ev.hoisted_rotate(&h, steps[0], &keys[0]),
        &ev.rotate(&ct, steps[0], &keys[0]),
        "single hoisted rotate",
    );
}

/// The serving path with the optimizer ON (so `HoistDecomp` /
/// `HoistedRotate` nodes execute through the hoisted engine) stays
/// bit-exact with eager evaluation — the engine-swap guard.
#[test]
fn served_rotation_fanout_bit_exact_with_optimizer() {
    let ctx = CkksContext::new(CkksParams::toy(), 0x5E12E);
    let kp = ctx.generate_keys();
    let steps = [1usize, 2, 3, 1];
    let rot_keys: Vec<SwitchingKey> = (0..=3)
        .map(|s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.3 + (i as f64 * 0.13).cos() * 0.35)
        .collect();
    let base = ctx.encrypt(&msg, &kp.public);
    let ev = Evaluator::new(&ctx);
    let want: Vec<Ciphertext> = steps
        .iter()
        .map(|&s| ev.rotate(&base, s, &rot_keys[s]))
        .collect();

    let mut keys = ServeKeys::new().with_relin(kp.relin.clone());
    for (s, key) in rot_keys.iter().enumerate() {
        keys = keys.with_rotation(s, key.clone());
    }
    let specs = vec![TenantSpec::new(1, keys)];
    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(2)
        .with_optimize(true);
    serve_tenants(&ctx, specs, &config, |server| {
        let session = server.session(1);
        let x = session.insert(base.clone());
        // fan-out: every rotation reads the same source, so the
        // optimizer's hoisting pass can fire inside the drain
        let completions: Vec<_> = steps
            .iter()
            .map(|&s| session.rotate(x, s).expect("submit"))
            .collect();
        for (c, want) in completions.into_iter().zip(&want) {
            let done = c.wait().expect("rotation completes");
            session.retain(done.id).expect("result stored");
            let got = session.take(done.id).expect("result retained");
            assert_ct_eq(&got, want, "served rotation");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized layer over the deterministic sweep: random digit
    /// shapes, levels, batch widths and limb contents.
    #[test]
    fn key_switch_fast_matches_reference_random(
        seed in any::<u64>(),
        dnum in 1usize..=4,
        level in 1usize..=4,
        batch in 1usize..=8,
    ) {
        let (ctx, kp) = small_ctx(dnum, seed ^ 0xA5A5);
        let ev = Evaluator::new(&ctx);
        let d = random_batch(&ctx, level, batch, seed);
        let fast = ev.key_switch_batch(&d, &kp.relin);
        let reference = ev.key_switch_batch_reference(&d, &kp.relin);
        prop_assert_eq!(fast.0.limbs(), reference.0.limbs());
        prop_assert_eq!(fast.1.limbs(), reference.1.limbs());
    }

    /// Randomized rescale layer.
    #[test]
    fn rescale_fast_matches_reference_random(
        seed in any::<u64>(),
        level in 2usize..=4,
        batch in 1usize..=8,
    ) {
        let (ctx, _kp) = small_ctx(2, seed ^ 0x5A5A);
        let ev = Evaluator::new(&ctx);
        let ct = BatchedCiphertext {
            c0: random_batch(&ctx, level, batch, seed),
            c1: random_batch(&ctx, level, batch, seed ^ 0xFF),
            level,
            scales: vec![1e9; batch],
        };
        let fast = ev.rescale_batch(&ct);
        let reference = ev.rescale_batch_reference(&ct);
        prop_assert_eq!(fast.c0.limbs(), reference.c0.limbs());
        prop_assert_eq!(fast.c1.limbs(), reference.c1.limbs());
    }
}
