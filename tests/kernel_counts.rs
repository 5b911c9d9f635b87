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
