//! Batched-vs-sequential equivalence properties.
//!
//! The batching contract of the whole stack: every batched path —
//! `PolyBatch` domain conversions, the fused `Ntt3Plan` batch kernels
//! (on every `TpuGeneration`), and the `BatchedCiphertext` evaluator
//! operators — must be **bit-exact** with the corresponding loop over
//! the single-item path, for random batches of random sizes. For `PolyBatch` and the evaluator the single-item
//! path is the batch-of-one call of the same code, so what these pin is
//! that batch entries never interact.

use cross::ckks::{BatchedCiphertext, CkksContext, CkksParams, Evaluator};
use cross::core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross::core::modred::ModRed;
use cross::math::primes;
use cross::poly::rns_poly::{RnsContext, RnsPoly};
use cross::poly::{NttTables, PolyBatch};
use cross::tpu::{TpuGeneration, TpuSim};
use proptest::prelude::*;
use std::sync::Arc;

fn tables(logn: u32) -> Arc<NttTables> {
    let n = 1usize << logn;
    Arc::new(NttTables::new(
        n,
        primes::ntt_prime(28, n as u64, 0).unwrap(),
    ))
}

/// Deterministic pseudo-random residues from a seed (keeps the heavy
/// strategy machinery out of the hot path).
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

fn messages(slots: usize, batch: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..batch)
        .map(|b| {
            residues(slots, 1 << 20, seed.wrapping_add(b as u64 * 7919))
                .iter()
                .map(|&r| r as f64 / (1u64 << 21) as f64 - 0.25)
                .collect()
        })
        .collect()
}

fn limbs_eq(a: &cross::ckks::Ciphertext, b: &cross::ckks::Ciphertext) -> bool {
    a.c0.limbs() == b.c0.limbs()
        && a.c1.limbs() == b.c1.limbs()
        && a.level == b.level
        && a.scale == b.scale
}

/// A fresh toy context, one encryption and one top-level plaintext —
/// the fixtures of the batch-of-one boundary tests below.
fn boundary_setup() -> (CkksContext, cross::ckks::Ciphertext, RnsPoly) {
    let ctx = CkksContext::new(CkksParams::toy(), 0xB0DE);
    let kp = ctx.generate_keys();
    let msg = messages(ctx.slot_count(), 1, 5).remove(0);
    let ct = ctx.encrypt(&msg, &kp.public);
    let pt = ctx.encode(&msg);
    (ctx, ct, pt)
}

/// Every `*_batch` entry, on a one-entry `&BatchedCiphertext`, gives
/// the eager form's bits.
#[test]
fn every_batch_entry_gives_the_same_bits_on_any_borrowed_operand() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xF01D);
    let kp = ctx.generate_keys();
    let rk = ctx.generate_rotation_key(&kp.secret, 1);
    let ck = ctx.generate_conjugation_key(&kp.secret);
    let ev = Evaluator::new(&ctx);
    let msg = messages(ctx.slot_count(), 2, 7);
    let x = ctx.encrypt(&msg[0], &kp.public);
    let y = ctx.encrypt(&msg[1], &kp.public);
    let bx = BatchedCiphertext::from_ciphertexts([&x]);
    let by = BatchedCiphertext::from_ciphertexts([&y]);
    let delta = ctx.params().scale();
    let pt = ctx.encode_at(&msg[1], x.level, delta);
    macro_rules! same_bits {
        ($name:literal, $eager:expr; $a:pat_param, $b:pat_param => $batch:expr) => {{
            let want = $eager;
            let spellings = [{
                let ($a, $b) = (&bx, &by);
                $batch
            }];
            for (i, got) in spellings.into_iter().enumerate() {
                let got = got.to_ciphertexts().remove(0);
                assert!(limbs_eq(&got, &want), "{}: spelling {i}", $name);
            }
        }};
    }
    same_bits!("add", ev.add(&x, &y); a, b => ev.add_batch(a, b));
    same_bits!("sub", ev.sub(&x, &y); a, b => ev.sub_batch(a, b));
    same_bits!("mult", ev.mult(&x, &y, &kp.relin); a, b => ev.mult_batch(a, b, &kp.relin));
    same_bits!("mult_plain", ev.mult_plain(&x, &pt, delta); a, _ => ev.mult_plain_batch(a, &pt, delta));
    same_bits!("add_plain", ev.add_plain(&x, &pt, delta); a, _ => ev.add_plain_batch(a, &pt, delta));
    same_bits!("mod_drop", ev.mod_drop(&x, 2); a, _ => ev.mod_drop_batch(a, 2));
    same_bits!("rescale", ev.rescale(&x); a, _ => ev.rescale_batch(a));
    same_bits!("rotate", ev.rotate(&x, 1, &rk); a, _ => ev.rotate_batch(a, 1, &rk));
    same_bits!("conjugate", ev.conjugate(&x, &ck); a, _ => ev.conjugate_batch(a, &ck));
}

/// The eager API takes exactly one polynomial per component: a
/// `Ciphertext` built around two-entry batches is rejected on use.
#[test]
#[should_panic(expected = "batches of one")]
fn ciphertext_with_batched_component_rejected() {
    let (ctx, ct, _) = boundary_setup();
    let wide = cross::ckks::Ciphertext {
        c0: PolyBatch::from_polys([&ct.c0, &ct.c0]),
        c1: PolyBatch::from_polys([&ct.c1, &ct.c1]),
        ..ct
    };
    let _ = Evaluator::new(&ctx).add(&wide, &wide);
}

#[test]
#[should_panic(expected = "batch of one")]
fn mult_plain_rejects_multi_entry_plaintext() {
    let (ctx, ct, pt) = boundary_setup();
    let wide = PolyBatch::from_polys([&pt, &pt]);
    let _ = Evaluator::new(&ctx).mult_plain(&ct, &wide, ctx.params().scale());
}

#[test]
#[should_panic(expected = "batch of one")]
fn add_plain_rejects_multi_entry_plaintext() {
    let (ctx, ct, pt) = boundary_setup();
    let wide = PolyBatch::from_polys([&pt, &pt]);
    let _ = Evaluator::new(&ctx).add_plain(&ct, &wide, ct.scale);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ntt3_batched_forward_inverse_all_generations(
        seed in any::<u64>(),
        batch in 1usize..6,
    ) {
        let t = tables(6);
        let n = t.n();
        let plan = Ntt3Plan::new(
            t.clone(),
            Ntt3Config { r: 8, c: 8, modred: ModRed::Montgomery, embed_bitrev: true },
        );
        let a = residues(batch * n, t.q(), seed);
        for gen in TpuGeneration::ALL {
            let mut s_fused = TpuSim::new(gen);
            let fused = plan.forward_batch_on_tpu(&mut s_fused, &a, batch);
            let mut s_loop = TpuSim::new(gen);
            let looped: Vec<u64> = a
                .chunks(n)
                .flat_map(|p| plan.forward_on_tpu(&mut s_loop, p))
                .collect();
            prop_assert_eq!(&fused, &looped, "forward {gen:?}");
            let mut s_inv = TpuSim::new(gen);
            let back = plan.inverse_batch_on_tpu(&mut s_inv, &fused, batch);
            prop_assert_eq!(&back, &a, "roundtrip {gen:?}");
        }
    }

    #[test]
    fn poly_batch_domain_conversion_equivalence(
        seed in any::<u64>(),
        batch in 1usize..5,
    ) {
        let n = 1usize << 6;
        let moduli = primes::ntt_prime_chain(28, n as u64, 3).unwrap();
        let ctx = Arc::new(RnsContext::new(n, moduli));
        let polys: Vec<RnsPoly> = (0..batch)
            .map(|b| {
                let limbs: Vec<Vec<u64>> = ctx
                    .moduli()
                    .iter()
                    .map(|&q| residues(n, q, seed.wrapping_add(b as u64 * 31)))
                    .collect();
                RnsPoly::from_limbs(ctx.clone(), limbs, cross::poly::ring::Domain::Coefficient)
            })
            .collect();
        let mut pb = PolyBatch::from_polys(&polys);
        pb.to_evaluation();
        for (b, p) in polys.iter().enumerate() {
            let mut want = p.clone();
            want.to_evaluation();
            prop_assert_eq!(pb.poly(b).limbs(), want.limbs(), "poly {b}");
        }
        pb.to_coefficient();
        for (b, p) in polys.iter().enumerate() {
            prop_assert_eq!(pb.poly(b).limbs(), p.limbs(), "roundtrip {b}");
        }
    }

    #[test]
    fn mult_batch_equivalence(seed in any::<u64>(), batch in 1usize..4) {
        let ctx = CkksContext::new(CkksParams::toy(), seed ^ 0xC0FFEE);
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let xs: Vec<_> = messages(ctx.slot_count(), batch, seed)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let ys: Vec<_> = messages(ctx.slot_count(), batch, seed.wrapping_add(1))
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let got = ev
            .mult_batch(
                &BatchedCiphertext::from_ciphertexts(&xs),
                &BatchedCiphertext::from_ciphertexts(&ys),
                &kp.relin,
            )
            .to_ciphertexts();
        for b in 0..batch {
            let want = ev.mult(&xs[b], &ys[b], &kp.relin);
            prop_assert!(limbs_eq(&got[b], &want), "entry {b}");
        }
    }

    #[test]
    fn rotate_batch_equivalence(seed in any::<u64>(), batch in 1usize..4) {
        let ctx = CkksContext::new(CkksParams::toy(), seed ^ 0xBEEF);
        let kp = ctx.generate_keys();
        let rk = ctx.generate_rotation_key(&kp.secret, 1);
        let ev = Evaluator::new(&ctx);
        let cts: Vec<_> = messages(ctx.slot_count(), batch, seed)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let got = ev
            .rotate_batch(&BatchedCiphertext::from_ciphertexts(&cts), 1, &rk)
            .to_ciphertexts();
        for (b, ct) in cts.iter().enumerate() {
            prop_assert!(limbs_eq(&got[b], &ev.rotate(ct, 1, &rk)), "entry {b}");
        }
    }

    #[test]
    fn rescale_batch_equivalence(seed in any::<u64>(), batch in 1usize..4) {
        let ctx = CkksContext::new(CkksParams::toy(), seed ^ 0xABCD);
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let cts: Vec<_> = messages(ctx.slot_count(), batch, seed)
            .iter()
            .map(|m| {
                let ct = ctx.encrypt(m, &kp.public);
                let pt = ctx.encode_at(m, ct.level, ctx.params().scale());
                ev.mult_plain(&ct, &pt, ctx.params().scale())
            })
            .collect();
        let got = ev
            .rescale_batch(&BatchedCiphertext::from_ciphertexts(&cts))
            .to_ciphertexts();
        for (b, ct) in cts.iter().enumerate() {
            prop_assert!(limbs_eq(&got[b], &ev.rescale(ct)), "entry {b}");
        }
    }

    #[test]
    fn linear_plain_and_mod_drop_batch_equivalence(seed in any::<u64>(), batch in 1usize..=4) {
        let ctx = CkksContext::new(CkksParams::toy(), seed ^ 0xADD5);
        let kp = ctx.generate_keys();
        let ev = Evaluator::new(&ctx);
        let top = ctx.params().limbs;
        let xs: Vec<_> = messages(ctx.slot_count(), batch, seed)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        // The right operands sit one level lower, so add/sub must align
        // the left ones down — in the batch exactly as in the loop.
        let ys: Vec<_> = messages(ctx.slot_count(), batch, seed.wrapping_add(1))
            .iter()
            .map(|m| ev.mod_drop(&ctx.encrypt(m, &kp.public), top - 1))
            .collect();
        let bx = BatchedCiphertext::from_ciphertexts(&xs);
        let by = BatchedCiphertext::from_ciphertexts(&ys);
        let delta = ctx.params().scale();
        let w = messages(ctx.slot_count(), 1, seed.wrapping_add(2)).remove(0);
        let pt = ctx.encode_at(&w, top, delta);

        let sum = ev.add_batch(&bx, &by).to_ciphertexts();
        let sum_rev = ev.add_batch(&by, &bx).to_ciphertexts();
        let diff = ev.sub_batch(&bx, &by).to_ciphertexts();
        let scaled = ev.mult_plain_batch(&bx, &pt, delta).to_ciphertexts();
        let shifted = ev.add_plain_batch(&bx, &pt, delta).to_ciphertexts();
        let dropped = ev.mod_drop_batch(&bx, 2).to_ciphertexts();
        let kept = ev.mod_drop_batch(&bx, top).to_ciphertexts();
        for b in 0..batch {
            prop_assert!(limbs_eq(&sum[b], &ev.add(&xs[b], &ys[b])), "add {b}");
            prop_assert!(limbs_eq(&sum_rev[b], &ev.add(&ys[b], &xs[b])), "add reversed {b}");
            prop_assert!(limbs_eq(&diff[b], &ev.sub(&xs[b], &ys[b])), "sub {b}");
            prop_assert!(limbs_eq(&scaled[b], &ev.mult_plain(&xs[b], &pt, delta)), "mult_plain {b}");
            prop_assert!(limbs_eq(&shifted[b], &ev.add_plain(&xs[b], &pt, delta)), "add_plain {b}");
            prop_assert!(limbs_eq(&dropped[b], &ev.mod_drop(&xs[b], 2)), "mod_drop {b}");
            prop_assert!(limbs_eq(&kept[b], &xs[b]), "mod_drop to own level {b}");
        }
    }

    #[test]
    fn conjugate_batch_equivalence(seed in any::<u64>(), batch in 1usize..=4) {
        let ctx = CkksContext::new(CkksParams::toy(), seed ^ 0xC0213);
        let kp = ctx.generate_keys();
        let ck = ctx.generate_conjugation_key(&kp.secret);
        let ev = Evaluator::new(&ctx);
        let cts: Vec<_> = messages(ctx.slot_count(), batch, seed)
            .iter()
            .map(|m| ctx.encrypt(m, &kp.public))
            .collect();
        let got = ev
            .conjugate_batch(&BatchedCiphertext::from_ciphertexts(&cts), &ck)
            .to_ciphertexts();
        for (b, ct) in cts.iter().enumerate() {
            prop_assert!(limbs_eq(&got[b], &ev.conjugate(ct, &ck)), "entry {b}");
        }
    }
}
