//! `eager_chain`: one thread calling the eager `Evaluator` at paper
//! Set B (`N = 2^13`, 8 limbs, dnum 3) — a HELR-shaped mini-iteration.
//!
//! ```text
//! p   = rescale(x ⊙ w)                          mult_plain      level 8 → 7
//! z_e = p + Σ_s rotate(p, 2^s)      s = 0..8    8 eager rotates
//! z_h = p + Σ_s hoisted(p, 2^s)                 one hoisted fan-out
//! z   = rescale((z_e + z_h) ⊙ m)                mult_plain      level 7 → 6
//! out = c1·z + c3·z³                            2 ct×ct mults, 2 mult_plain
//! ```
//!
//! The eager and the hoisted fan-out rotate the same ciphertext by the
//! same steps, so their times compare directly (ROADMAP loss #2) and
//! their sums must agree limb for limb. `out` is decrypted and checked
//! against the same program in `f64`.

use super::{Outcome, RunCfg};
use crate::gen::{self, stream};
use crate::metrics::Values;
use crate::oracle::{self, Tally};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats;
use cross_ckks::{Ciphertext, CkksContext, Evaluator, KeyPair, ParamSet, SwitchingKey};
use cross_poly::RnsPoly;
use std::time::Instant;

/// Tail percentile: a 20 s run makes about 75 iterations, which puts
/// 18 samples beyond p75 and too few beyond p90.
const TAIL_P: f64 = 0.75;

/// Rotation steps of both fan-outs.
const STEPS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Distinct encrypted inputs the iterations cycle through.
const POOL: usize = 2;

/// Sigmoid-shaped cubic `c1·z + c3·z³` on `|z| ≤ 1`.
const C1: f64 = 0.6;
const C3: f64 = -0.1;

/// Largest slot error a correct run may show against `f64`. Measured
/// errors sit near 2e-5 (README, "Oracles"); a dropped rotation or a
/// wrong mask moves a slot by more than 1e-2.
pub const ERR_BOUND: f64 = 5e-3;

struct State {
    ctx: CkksContext,
    kp: KeyPair,
    rot_keys: Vec<SwitchingKey>,
    inputs: Vec<Ciphertext>,
    expected: Vec<Vec<f64>>,
    w_pt: RnsPoly,
    m_pt: RnsPoly,
    c1_pt: RnsPoly,
    c3_pt: RnsPoly,
    /// Scale `c3_pt` is encoded at (the others use Δ).
    c3_scale: f64,
    keygen_s: f64,
    encrypt_ms: f64,
    /// Largest slot error of the warm-up, which visits the whole pool:
    /// the run's maximum is then the same whatever its length.
    warm_worst: f64,
}

/// The program in `f64`.
fn reference(x: &[f64], w: &[f64], m: &[f64]) -> Vec<f64> {
    let p: Vec<f64> = x.iter().zip(w).map(|(a, b)| a * b).collect();
    let mut r = p.clone();
    for &s in &STEPS {
        for (acc, v) in r.iter_mut().zip(oracle::rotate_left(&p, s)) {
            *acc += v;
        }
    }
    r.iter()
        .zip(m)
        .map(|(&r, &m)| {
            let z = 2.0 * r * m;
            C1 * z + C3 * z * z * z
        })
        .collect()
}

fn setup(seed: u64) -> State {
    let params = ParamSet::B.params();
    let ctx = CkksContext::new(params, gen::context_seed(seed));
    let slots = ctx.slot_count();
    let delta = params.scale();

    let t0 = Instant::now();
    let kp = ctx.generate_keys();
    let rot_keys: Vec<SwitchingKey> = STEPS
        .iter()
        .map(|&s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let keygen_s = t0.elapsed().as_secs_f64();

    // |p| < 1 and 2·(1 + 8) terms, so m ≤ 1/18 keeps |z| ≤ 1.
    let w = gen::message(seed, stream::MASK, slots, -1.0, 1.0);
    let m = gen::message(seed, stream::MASK + 1, slots, 0.5 / 18.0, 1.0 / 18.0);
    let messages: Vec<Vec<f64>> = (0..POOL)
        .map(|k| gen::message(seed, stream::MESSAGE + k as u64, slots, -1.0, 1.0))
        .collect();
    let t0 = Instant::now();
    let inputs: Vec<Ciphertext> = messages
        .iter()
        .map(|x| ctx.encrypt(x, &kp.public))
        .collect();
    let encrypt_ms = t0.elapsed().as_secs_f64() * 1e3 / POOL as f64;
    let expected = messages.iter().map(|x| reference(x, &w, &m)).collect();

    // The chain's primes differ by up to a percent, so the scales of
    // the two sigmoid terms drift apart over their different depths.
    // Track them as the evaluator will (rescaling from level k divides
    // by q[k-1]) and encode c3 at the scale that lands its term
    // exactly on the linear term's.
    let l = params.limbs;
    let q: Vec<f64> = ctx.q_moduli().iter().map(|&q| q as f64).collect();
    let p_scale = delta * delta / q[l - 1];
    let z_scale = p_scale * delta / q[l - 2];
    let cube_scale = (z_scale * z_scale / q[l - 3]) * z_scale / q[l - 4];
    let lin_scale = z_scale * delta / q[l - 3];
    let c3_scale = lin_scale * q[l - 5] / cube_scale;
    let mut state = State {
        w_pt: ctx.encode_at(&w, l, delta),
        m_pt: ctx.encode_at(&m, l - 1, delta),
        c1_pt: ctx.encode_at(&vec![C1; slots], l - 2, delta),
        c3_pt: ctx.encode_at(&vec![C3; slots], l - 4, c3_scale),
        c3_scale,
        ctx,
        kp,
        rot_keys,
        inputs,
        expected,
        keygen_s,
        encrypt_ms,
        warm_worst: 0.0,
    };
    // Warm-up: builds the per-level key-switching plans and Galois
    // tables that the first calls would otherwise pay for.
    let (mut warm, mut worst) = (Tally::default(), 0.0);
    for i in 0..POOL as u64 {
        iteration(&state, &mut Tracer::off(), i, &mut warm, &mut worst);
    }
    assert_eq!(warm.failed, 0, "warm-up iteration failed its oracle");
    state.warm_worst = worst;
    state
}

/// One iteration: returns the time of the work in milliseconds, then
/// checks the outputs (untimed).
fn iteration(st: &State, tr: &mut Tracer, id: u64, tally: &mut Tally, worst: &mut f64) -> f64 {
    let ev = Evaluator::new(&st.ctx);
    let delta = st.ctx.params().scale();
    let k = id as usize % POOL;
    let x = &st.inputs[k];
    let rotations: Vec<(usize, &SwitchingKey)> = STEPS.iter().copied().zip(&st.rot_keys).collect();

    let t0 = Instant::now();
    let (z_e, z_h, dec) = tr.span("iter", id, |tr| {
        let p = tr.leaf("ckks.mult_plain", id, || ev.mult_plain(x, &st.w_pt, delta));
        let p = tr.leaf("ckks.rescale", id, || ev.rescale(&p));

        let rots = tr.span("ckks.eager_rot8", id, |tr| {
            rotations
                .iter()
                .map(|&(s, key)| tr.leaf("ckks.rotate", id, || ev.rotate(&p, s, key)))
                .collect::<Vec<_>>()
        });
        let z_e = rots.iter().fold(p.clone(), |acc, r| {
            tr.leaf("ckks.add", id, || ev.add(&acc, r))
        });

        let rots = tr.leaf("ckks.hoisted_rot8", id, || {
            ev.hoisted_rotations(&p, &rotations)
        });
        let z_h = rots.iter().fold(p.clone(), |acc, r| {
            tr.leaf("ckks.add", id, || ev.add(&acc, r))
        });

        let z = tr.leaf("ckks.add", id, || ev.add(&z_e, &z_h));
        let z = tr.leaf("ckks.mult_plain", id, || ev.mult_plain(&z, &st.m_pt, delta));
        let z = tr.leaf("ckks.rescale", id, || ev.rescale(&z));

        let sq = tr.leaf("ckks.mult", id, || ev.mult(&z, &z, &st.kp.relin));
        let cube = tr.leaf("ckks.mult", id, || ev.mult(&sq, &z, &st.kp.relin));
        let lin = tr.leaf("ckks.mult_plain", id, || {
            ev.mult_plain(&z, &st.c1_pt, delta)
        });
        let lin = tr.leaf("ckks.rescale", id, || ev.rescale(&lin));
        let cub = tr.leaf("ckks.mult_plain", id, || {
            ev.mult_plain(&cube, &st.c3_pt, st.c3_scale)
        });
        let cub = tr.leaf("ckks.rescale", id, || ev.rescale(&cub));
        let out = tr.leaf("ckks.add", id, || ev.add(&lin, &cub));
        let dec = tr.leaf("ckks.decrypt", id, || st.ctx.decrypt(&out, &st.kp.secret));
        (z_e, z_h, dec)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let err = oracle::max_abs_err(&dec, &st.expected[k]);
    *worst = worst.max(err);
    tally.record(err <= ERR_BOUND);
    tally.record(oracle::same_ciphertext(&z_e, &z_h));
    ms
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (st, setup_s) = super::timed_setup(cfg.quick, || setup(cfg.seed));
    let mut tally = Tally::default();
    let mut worst = st.warm_worst;
    let mut values = Values::new();
    let mut notes = Vec::new();

    if !cfg.trace {
        let iter_ms = super::closed_loop(cfg.seconds, |i| {
            iteration(&st, &mut Tracer::off(), i, &mut tally, &mut worst)
        });
        super::single_caller_values(&mut values, &mut notes, setup_s, &iter_ms, TAIL_P);
        notes.push(format!(
            "max |error| against f64: {worst:.3e} (bound {ERR_BOUND:e})"
        ));
        return Outcome {
            tally,
            values,
            notes,
        };
    }

    let (spans, overhead) = super::traced_phases(cfg.seconds, |tr, i| {
        iteration(&st, tr, i, &mut tally, &mut worst)
    });
    values.insert("trace_overhead_pct", overhead);

    let cts: Vec<Ciphertext> = st
        .inputs
        .iter()
        .cycle()
        .take(probes::BATCH_PROBE)
        .cloned()
        .collect();
    probes::run(
        &probes::Shape {
            ctx: &st.ctx,
            relin: &st.kp.relin,
            rot: &st.rot_keys[0],
            step: STEPS[0],
            cts: &cts,
            batch: 1,
        },
        &mut values,
    );

    // Spans of the iterations replace the probe's top-level figures.
    for (metric, name) in [
        ("ckks.mult_ms", "ckks.mult"),
        ("ckks.rotate_ms", "ckks.rotate"),
        ("ckks.hoisted_rot8_ms", "ckks.hoisted_rot8"),
        ("ckks.eager_rot8_ms", "ckks.eager_rot8"),
        ("ckks.rescale_ms", "ckks.rescale"),
        ("ckks.mult_plain_ms", "ckks.mult_plain"),
        ("ckks.add_ms", "ckks.add"),
        ("ckks.decrypt_ms", "ckks.decrypt"),
    ] {
        values.insert(metric, stats::median(&span::durations_ms(&spans, name)));
    }
    let iters = spans.iter().filter(|s| s.name == "iter").count();
    let is_parent: std::collections::BTreeSet<usize> =
        spans.iter().filter_map(|s| s.parent).collect();
    let leaves = (0..spans.len()).filter(|i| !is_parent.contains(i)).count();
    values.insert("ckks.calls_per_iter", (leaves / iters) as f64);
    values.insert(
        "ckks.span_residual_pct",
        super::residual_pct(&spans, "iter"),
    );
    values.insert("ckks.keygen_s", st.keygen_s);
    values.insert("ckks.encrypt_ms", st.encrypt_ms);
    values.insert("ckks.max_abs_err", worst);

    notes.push(format!(
        "{iters} traced iterations, {leaves} calls into ckks"
    ));
    super::write_trace("eager_chain", cfg.seed, &spans, &mut notes);
    Outcome {
        tally,
        values,
        notes,
    }
}
