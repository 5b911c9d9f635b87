//! The probe stage of a traced run: timed calls into the kernel-level
//! public functions of `math`, `poly`, `core` and `ckks` at the
//! calling workload's own `(N, limbs, batch)`. Spans inside the
//! library are a later change; until then this is where an HE
//! operator's time is split into its kernels.

use crate::metrics::Values;
use cross_ckks::{BatchedCiphertext, Ciphertext, CkksContext, Evaluator, SwitchingKey};
use cross_core::bconv::BconvKernel;
use cross_core::modred::ModRed;
use cross_math::rns::RnsBasis;
use cross_math::{modops, par};
use cross_poly::{PolyBatch, RnsPoly};
use std::hint::black_box;
use std::time::Instant;

/// Batch size of the batched-evaluator probes.
pub const BATCH_PROBE: usize = 8;

/// Seconds one probe may spend repeating its call.
const PROBE_BUDGET_S: f64 = 0.25;

/// Median seconds of `f(prep())`, `prep` untimed: 3 to 60 calls,
/// stopping once the budget is spent.
fn time_with<S, R>(mut prep: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (times.len() < 60 && started.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let input = prep();
        let t0 = Instant::now();
        black_box(f(black_box(input)));
        times.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}

/// Median seconds of `f()`.
fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    time_with(|| (), |()| f())
}

/// What the probes run on.
pub struct Shape<'a> {
    pub ctx: &'a CkksContext,
    pub relin: &'a SwitchingKey,
    /// Rotation key for `step`.
    pub rot: &'a SwitchingKey,
    pub step: usize,
    /// At least [`BATCH_PROBE`] top-level ciphertexts.
    pub cts: &'a [Ciphertext],
    /// Batch the workload's transforms run at (1 = eager).
    pub batch: usize,
}

/// Runs every kernel probe and files the results under their metric
/// names.
pub fn run(s: &Shape, v: &mut Values) {
    assert!(
        s.cts.len() >= BATCH_PROBE.max(s.batch),
        "not enough probe inputs"
    );
    math(s, v);
    poly(s, v);
    core(s, v);
    ckks(s, v);
}

fn math(s: &Shape, v: &mut Values) {
    // The tensor-product inner loop: variable × variable, so Barrett.
    let q = s.ctx.q_moduli()[0];
    let mu = modops::barrett_mu(q);
    let a = &s.cts[0].c0.limbs()[0];
    let b = &s.cts[0].c1.limbs()[0];
    let per_call = time(|| {
        a.iter().zip(b).fold(0u64, |acc, (&x, &y)| {
            acc ^ modops::mul_mod_barrett32(x, y, q, mu)
        })
    });
    v.insert("math.mulmod_barrett32_ns", per_call * 1e9 / a.len() as f64);

    // One scoped thread per worker is spawned per call today.
    let mut items = vec![0u8; par::parallelism()];
    let dispatch = time(|| par::par_for_each_mut(&mut items, |_, x| *x = x.wrapping_add(1)));
    v.insert("math.par_dispatch_us", dispatch * 1e6);
}

fn poly(s: &Shape, v: &mut Values) {
    let n = s.ctx.params().n;
    let limbs = s.ctx.params().limbs;
    let perms = s.ctx.galois_eval_perm(s.ctx.galois_element(s.step));
    let polys: Vec<RnsPoly> = s.cts[..s.batch].iter().map(|c| c.c0.clone()).collect();
    let (fwd, inv, mul, gather);
    if s.batch == 1 {
        let eval = polys[0].clone();
        let mut coeff = eval.clone();
        coeff.to_coefficient();
        inv = time_with(|| eval.clone(), |mut p| p.to_coefficient());
        fwd = time_with(|| coeff.clone(), |mut p| p.to_evaluation());
        mul = time(|| eval.mul_pointwise(&s.cts[0].c1));
        gather = time(|| eval.gather_eval(&perms));
    } else {
        let eval = PolyBatch::from_polys(&polys);
        let other: Vec<RnsPoly> = s.cts[..s.batch].iter().map(|c| c.c1.clone()).collect();
        let other = PolyBatch::from_polys(&other);
        let mut coeff = eval.clone();
        coeff.to_coefficient();
        inv = time_with(|| eval.clone(), |mut p| p.to_coefficient());
        fwd = time_with(|| coeff.clone(), |mut p| p.to_evaluation());
        mul = time(|| eval.mul_pointwise(&other));
        gather = time(|| eval.gather_eval(&perms));
    }
    v.insert("poly.ntt_fwd_us", fwd * 1e6);
    v.insert("poly.ntt_inv_us", inv * 1e6);
    v.insert("poly.pointwise_mul_us", mul * 1e6);
    v.insert("poly.gather_eval_us", gather * 1e6);
    // Computed, not measured: (N/2)·log2 N butterflies per limb.
    let butterflies = s.batch * limbs * (n / 2) * n.trailing_zeros() as usize;
    v.insert("poly.ntt_butterflies", butterflies as f64);

    let batch = PolyBatch::from_polys(&polys);
    v.insert("poly.pack_us", time(|| PolyBatch::from_polys(&polys)) * 1e6);
    v.insert("poly.unpack_us", time(|| batch.to_polys()) * 1e6);
}

fn core(s: &Shape, v: &mut Values) {
    // The key switch's digit → complement conversion at top level:
    // the first digit's limbs to every other level limb plus P.
    let ctx = s.ctx;
    let l = ctx.params().limbs;
    let digit = ctx.digit_range(0, l);
    let mut target: Vec<u64> = ctx.q_moduli()[digit.end..].to_vec();
    target.extend_from_slice(ctx.p_moduli());
    let table = RnsBasis::new(ctx.q_moduli()[digit.clone()].to_vec()).bconv_table(&target);
    let kernel = BconvKernel::compile(&table, ctx.params().n, ModRed::Montgomery);

    let polys: Vec<RnsPoly> = s.cts[..s.batch].iter().map(|c| c.c1.clone()).collect();
    let mut coeff = PolyBatch::from_polys(&polys);
    coeff.to_coefficient();
    let views: Vec<&[u64]> = coeff.limbs()[digit].iter().map(Vec::as_slice).collect();
    v.insert(
        "core.bconv_us",
        time(|| kernel.convert_slices(&views)) * 1e6,
    );
    let macs = s.batch * ctx.params().n * kernel.limbs_in() * kernel.limbs_out();
    v.insert("core.bconv_macs", macs as f64);
}

fn ckks(s: &Shape, v: &mut Values) {
    let ev = Evaluator::new(s.ctx);
    let (a, b) = (&s.cts[0], &s.cts[1]);
    let scale = s.ctx.params().scale();
    let pt = s.ctx.encode(&vec![0.5; s.ctx.slot_count()]);

    // Eager operators at top level (eager_chain replaces these five
    // with the spans of its own iterations).
    let mult = time(|| ev.mult(a, b, s.relin));
    v.insert("ckks.mult_ms", mult * 1e3);
    v.insert("ckks.rotate_ms", time(|| ev.rotate(a, s.step, s.rot)) * 1e3);
    v.insert("ckks.rescale_ms", time(|| ev.rescale(a)) * 1e3);
    v.insert(
        "ckks.mult_plain_ms",
        time(|| ev.mult_plain(a, &pt, scale)) * 1e3,
    );
    v.insert("ckks.add_ms", time(|| ev.add(a, b)) * 1e3);

    let d2 = a.c1.mul_pointwise(&b.c1);
    v.insert(
        "ckks.key_switch_ms",
        time(|| ev.key_switch(&d2, s.relin)) * 1e3,
    );

    let cts = &s.cts[..BATCH_PROBE];
    let packed = BatchedCiphertext::from_ciphertexts(cts);
    let mult_batch = time(|| ev.mult_batch(&packed, &packed, s.relin));
    v.insert("ckks.mult_batch_ms", mult_batch * 1e3);
    v.insert(
        "ckks.rotate_batch_ms",
        time(|| ev.rotate_batch(&packed, s.step, s.rot)) * 1e3,
    );
    v.insert(
        "ckks.rescale_batch_ms",
        time(|| ev.rescale_batch(&packed)) * 1e3,
    );
    v.insert(
        "ckks.pack_ms",
        time(|| BatchedCiphertext::from_ciphertexts(cts)) * 1e3,
    );
    v.insert("ckks.unpack_ms", time(|| packed.to_ciphertexts()) * 1e3);
    // Base: BATCH_PROBE eager mults at the same level.
    v.insert(
        "ckks.batch8_over_eager8",
        mult_batch / (BATCH_PROBE as f64 * mult),
    );
}
