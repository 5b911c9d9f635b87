//! Kernel counts per operator: how many host transforms each eager
//! operator runs, read from the per-thread counters of
//! `cross::poly::host_ntt`.
//!
//! Counts need no clock and repeat exactly, so they pin the dataflow
//! where a timing could only bound it: a change that makes a transform
//! cheaper leaves these numbers alone, and one that saves or adds a
//! transform must restate them here. The operators run on a thread
//! marked with `par::mark_worker`, so every kernel runs inline and the
//! thread's counters see exactly its own operator.

use cross::ckks::{CkksContext, Evaluator, ParamSet};
use cross::math::par;
use cross::poly::host_ntt;

/// `(forward, inverse)` host transforms `op` runs on this thread.
fn transforms(op: impl FnOnce()) -> (u64, u64) {
    let (f0, i0) = host_ntt::transforms();
    op();
    let (f1, i1) = host_ntt::transforms();
    (f1 - f0, i1 - i0)
}

/// Set B (`N = 2^13`, 8 limbs, `dnum = 3`, 3 extension primes) at
/// level 7, one limb below the top — the eager benchmark chain's
/// shape. A key switch INTTs its input's 7 limbs, NTTs each digit's
/// converted limbs (7 + 7 + 9 for digits of 3, 3 and 1 limbs), then
/// per half INTTs the 3 extension limbs and NTTs the 7 corrections
/// back: 37 forward, 13 inverse. `rotate` is one key switch plus a
/// gather in the evaluation domain; a rescale INTTs the dropped limb
/// and NTTs it into the 6 survivors, per component; `mult` is the
/// tensor product, a relinearising key switch and a rescale.
#[test]
fn set_b_level_7_transform_counts() {
    let ctx = CkksContext::new(ParamSet::B.params(), 0xC0_7A1);
    let kp = ctx.generate_keys();
    let rk = ctx.generate_rotation_key(&kp.secret, 1);
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.25 + (i as f64 * 0.03).sin() * 0.2)
        .collect();
    let ev = Evaluator::new(&ctx);
    let ct = ev.mod_drop(&ctx.encrypt(&msg, &kp.public), 7);
    assert_eq!(ct.level, 7);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let counts = || {
                (
                    transforms(|| drop(ev.rotate(&ct, 1, &rk))),
                    transforms(|| drop(ev.mult(&ct, &ct, &kp.relin))),
                    transforms(|| drop(ev.rescale(&ct))),
                    transforms(|| drop(ev.key_switch(&ct.c1, &kp.relin))),
                )
            };
            let cold = counts();
            let (rotate, mult, rescale, key_switch) = counts();
            // The first rotation by a Galois element also builds its
            // permutation tables: one forward transform of the
            // monomial `x` per chain limb, 8 + 3. No other first use
            // (the level's key-switch plan) runs a transform.
            let first_rotate = (rotate.0 + 11, rotate.1);
            assert_eq!(cold, (first_rotate, mult, rescale, key_switch));
            assert_eq!(rotate, (37, 13), "rotate: 50 transforms");
            assert_eq!(mult, (49, 15), "mult: 64 transforms");
            assert_eq!(rescale, (12, 2), "rescale: 14 transforms");
            assert_eq!(key_switch, (37, 13), "key_switch: 50 transforms");
        })
        .join()
        .expect("the counting thread panicked");
    });
}

/// An 8-rotation fan-out at the same shape. `hoisted_rotations`
/// decomposes `c1` once — 7 inverse transforms, then 7 + 7 + 9 forward
/// transforms of the extended digits — and each of its 8 Galois tails
/// runs only the two mod-downs (3 inverse, 7 forward each). Eight
/// `rotate`s decompose eight times, so the fan-out runs 7 fewer
/// decomposition sets: `(23, 7) + 8 × (14, 6) = (135, 55)` against
/// `8 × (37, 13) = (296, 104)`, 190 transforms against 400.
#[test]
fn set_b_level_7_hoisted_fan_out_counts() {
    let ctx = CkksContext::new(ParamSet::B.params(), 0xC0_7A2);
    let kp = ctx.generate_keys();
    let keys: Vec<_> = (1..=8)
        .map(|s| (s, ctx.generate_rotation_key(&kp.secret, s)))
        .collect();
    let rotations: Vec<_> = keys.iter().map(|(s, k)| (*s, k)).collect();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.25 + (i as f64 * 0.05).cos() * 0.2)
        .collect();
    let ev = Evaluator::new(&ctx);
    let ct = ev.mod_drop(&ctx.encrypt(&msg, &kp.public), 7);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let counts = || {
                (
                    transforms(|| drop(ev.hoisted_rotations(&ct, &rotations))),
                    transforms(|| {
                        for &(steps, key) in &rotations {
                            drop(ev.rotate(&ct, steps, key));
                        }
                    }),
                )
            };
            // The fan-out goes first, so it builds the 8 Galois
            // elements' permutation tables (11 forward transforms each).
            let (cold_hoisted, warm_eager) = counts();
            let (hoisted, eager) = counts();
            assert_eq!(cold_hoisted, (hoisted.0 + 8 * 11, hoisted.1));
            assert_eq!(warm_eager, eager);
            assert_eq!(hoisted, (135, 55), "hoisted fan-out: one decomposition");
            assert_eq!(eager, (296, 104), "eight rotates: eight decompositions");
        })
        .join()
        .expect("the counting thread panicked");
    });
}

/// One eager `sign_chain` per precision tier, on the chain the
/// comparison toolkit's latency was timed on (`N = 2^8`, 24 limbs,
/// `dnum = 2`); a transform count does not depend on `N`. Every tier is
/// a run of degree-7 odd steps (3, 4 and 5 of them), each 5 `mult`s, 4
/// plaintext encodes and 4 rescales, starting at the top level and
/// ending 4 levels lower, so a deeper tier adds steps at lower levels,
/// each cheaper than the one before: Mid's fourth step runs (318, 155)
/// transforms and High's fifth (206, 139).
#[test]
fn sign_chain_transform_counts_per_tier() {
    use cross::ckks::ext::sgn::{sign_chain, EagerSgnBackend, SgnTier};
    use cross::ckks::CkksParams;

    let ctx = CkksContext::new(
        CkksParams::new(1 << 8, SgnTier::High.min_sign_level() + 2, 2, 28),
        0x56E1,
    );
    let kp = ctx.generate_keys();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 * 0.37).sin() * 0.8).clamp(-0.9, 0.9))
        .collect();
    let ct = ctx.encrypt(&msg, &kp.public);
    let ev = Evaluator::new(&ctx);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let counts = || {
                SgnTier::ALL.map(|tier| {
                    transforms(|| {
                        let mut bk = EagerSgnBackend::new(&ev, &kp.relin);
                        drop(sign_chain(&mut bk, &ct, tier));
                    })
                })
            };
            let cold = counts();
            let [low, mid, high] = counts();
            assert_eq!(cold, [low, mid, high], "a sign chain builds no tables");
            assert_eq!(low, (1995, 561), "low: 3 steps");
            assert_eq!(mid, (2313, 716), "mid: 4 steps");
            assert_eq!(high, (2519, 855), "high: 5 steps");
        })
        .join()
        .expect("the counting thread panicked");
    });
}

/// The same fan-out as a graph, `x → Rotate{1..8}`, each rotation its
/// own fused group, through `execute_schedule` and `replay`: a run
/// decomposes a source that several Galois nodes read once, so it runs
/// `hoisted_rotations`' (135, 55), not eight rotates' (296, 104). And
/// eight `PlainMultConst` nodes of one `(value, pt_scale)` at level 7
/// under distinct `cid`s: a run encodes one plaintext for all of them
/// (7 forward transforms; the multiplies run none), not eight.
#[test]
fn set_b_level_7_graph_run_counts() {
    use cross::sched::{execute_schedule, replay, HeOpKind, OpGraph, ReplayKeys, Scheduler};
    use cross::tpu::TpuGeneration;

    let ctx = CkksContext::new(ParamSet::B.params(), 0xC0_7A3);
    let kp = ctx.generate_keys();
    let rot_keys: Vec<_> = (1..=8)
        .map(|s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.25 + (i as f64 * 0.07).sin() * 0.2)
        .collect();
    let ev = Evaluator::new(&ctx);
    let ct = ev.mod_drop(&ctx.encrypt(&msg, &kp.public), 7);
    let params = *ctx.params();
    let delta = params.scale();
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);

    let mut fan_out = OpGraph::new();
    let x = fan_out.input(7);
    for steps in 1..=8 {
        fan_out.add_op(HeOpKind::Rotate { steps }, 7, 1, &[x]);
    }
    let mut consts = OpGraph::new();
    let x = consts.input(7);
    for cid in 0..8 {
        consts.add_op(HeOpKind::PlainMultConst { cid }, 7, 1, &[x]);
    }
    let mut keys = ReplayKeys::new();
    for (i, key) in rot_keys.iter().enumerate() {
        keys = keys.with_rotation(i + 1, key);
    }
    for cid in 0..8 {
        keys = keys.with_mult_const(cid, 0.5, delta);
    }
    let fan_out_schedule = scheduler.schedule(&fan_out, &params);
    let consts_schedule = scheduler.schedule(&consts, &params);
    assert_eq!(fan_out_schedule.batches.len(), 8, "one group per rotation");
    assert_eq!(consts_schedule.batches.len(), 8, "one group per cid");
    let inputs = std::slice::from_ref(&ct);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let counts = || {
                (
                    transforms(|| {
                        drop(execute_schedule(
                            &fan_out,
                            &fan_out_schedule,
                            &ev,
                            &keys,
                            inputs,
                        ))
                    }),
                    transforms(|| drop(replay(&fan_out, &ev, &keys, inputs))),
                    transforms(|| {
                        drop(execute_schedule(
                            &consts,
                            &consts_schedule,
                            &ev,
                            &keys,
                            inputs,
                        ))
                    }),
                    transforms(|| drop(replay(&consts, &ev, &keys, inputs))),
                    transforms(|| drop(ctx.encode_at(&vec![0.5; ctx.slot_count()], 7, delta))),
                )
            };
            // The first run builds the 8 Galois elements' permutation
            // tables (11 forward transforms each).
            let cold = counts();
            let (executed, replayed, executed_consts, replayed_consts, encode) = counts();
            let first_executed = (executed.0 + 8 * 11, executed.1);
            assert_eq!(
                cold,
                (
                    first_executed,
                    replayed,
                    executed_consts,
                    replayed_consts,
                    encode
                )
            );
            assert_eq!(encode, (7, 0), "one encode at level 7");
            assert_eq!(executed, (135, 55), "executed fan-out: one decomposition");
            assert_eq!(replayed, executed, "replayed fan-out");
            assert_eq!(executed_consts, encode, "one encode");
            assert_eq!(replayed_consts, executed_consts, "replayed constants");
        })
        .join()
        .expect("the counting thread panicked");
    });
}
