//! Cross-crate integration tests: the full pipeline from encrypted data
//! through CROSS-compiled kernels on the simulated TPU.

use cross::ckks::{CkksContext, CkksParams, Evaluator};
use cross::core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross::core::modred::ModRed;
use cross::math::primes;
use cross::poly::{ntt, NttTables};
use cross::tpu::{Category, TpuGeneration, TpuSim};
use std::sync::Arc;

/// The compiled TPU NTT must interoperate with the CKKS stack: a limb
/// transformed by the MAT plan (bit-reverse embedded) is exactly what
/// the radix-2 evaluation domain holds, so ciphertext limbs can move
/// between CPU reference and TPU-compiled kernels freely.
#[test]
fn tpu_ntt_interoperates_with_ckks_limbs() {
    let params = CkksParams::new(1 << 8, 3, 2, 28);
    let ctx = CkksContext::new(params, 5);
    let keys = ctx.generate_keys();
    let msg: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.01).cos())
        .collect();
    let ct = ctx.encrypt(&msg, &keys.public);

    // Take limb 0 of c0, convert back to coefficients with the CPU
    // reference, then forward through the TPU-compiled plan; the result
    // must equal the original evaluation-domain limb.
    let q = ctx.q_moduli()[0];
    let tables = Arc::new(NttTables::new(params.n, q));
    let plan = Ntt3Plan::new(
        tables.clone(),
        Ntt3Config {
            r: 16,
            c: 16,
            modred: ModRed::Montgomery,
            embed_bitrev: true,
        },
    );
    let eval_limb = ct.c0.limbs()[0].clone();
    let mut coeff = eval_limb.clone();
    ntt::inverse_inplace(&mut coeff, &tables);
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    let recompiled = plan.forward_on_tpu(&mut sim, &coeff);
    assert_eq!(recompiled, eval_limb);
}

/// A depth-3 encrypted computation across add/mult/rotate, checked
/// against the cleartext oracle.
#[test]
fn depth_three_mixed_circuit() {
    let ctx = CkksContext::new(CkksParams::new(1 << 10, 5, 2, 28), 17);
    let keys = ctx.generate_keys();
    let rk = ctx.generate_rotation_key(&keys.secret, 1);
    let ev = Evaluator::new(&ctx);
    let s = ctx.slot_count();
    let a: Vec<f64> = (0..s)
        .map(|i| 0.4 + 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let b: Vec<f64> = (0..s)
        .map(|i| 0.2 + 0.2 * (i as f64 * 0.03).cos())
        .collect();

    let ca = ctx.encrypt(&a, &keys.public);
    let cb = ctx.encrypt(&b, &keys.public);
    // ((a*b) rotated by 1) * a + b
    let prod = ev.mult(&ca, &cb, &keys.relin);
    let rot = ev.rotate(&prod, 1, &rk);
    let a_dropped = ev.mod_drop(&ca, rot.level);
    let prod2 = ev.mult(&rot, &a_dropped, &keys.relin);
    let b_dropped = ev.mod_drop(&cb, prod2.level);
    // align scales by multiplying b with a unit plaintext and rescaling
    let unit = ctx.encode_at(&vec![1.0; s], b_dropped.level, ctx.params().scale());
    let mut b_scaled = ev.rescale(&ev.mult_plain(&b_dropped, &unit, ctx.params().scale()));
    b_scaled.scale = prod2.scale; // sub-percent drift absorbed
    let out_ct = ev.add(&prod2, &b_scaled);
    let got = ctx.decrypt(&out_ct, &keys.secret);

    for i in 0..s {
        let want = a[(i + 1) % s] * b[(i + 1) % s] * a[i] + b[i];
        assert!(
            (got[i] - want).abs() < 0.1,
            "slot {i}: {} vs {want}",
            got[i]
        );
    }
}

/// The simulator's latency accounting is consistent: running the same
/// compiled kernel twice charges exactly twice the cost, and a bigger
/// problem costs strictly more.
#[test]
fn simulator_cost_determinism_and_monotonicity() {
    let n = 1usize << 10;
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    let tables = Arc::new(NttTables::new(n, q));
    let plan = Ntt3Plan::new(
        tables.clone(),
        Ntt3Config {
            r: 32,
            c: 32,
            modred: ModRed::Montgomery,
            embed_bitrev: false,
        },
    );
    let a: Vec<u64> = (0..n as u64).map(|i| i % q).collect();
    let mut s1 = TpuSim::new(TpuGeneration::V6e);
    let _ = plan.forward_on_tpu(&mut s1, &a);
    let one = s1.compute_seconds();
    let _ = plan.forward_on_tpu(&mut s1, &a);
    assert!((s1.compute_seconds() - 2.0 * one).abs() < 1e-15);

    // Larger degree costs more.
    let n2 = 1usize << 12;
    let q2 = primes::ntt_prime(28, n2 as u64, 0).unwrap();
    let t2 = Arc::new(NttTables::new(n2, q2));
    let plan2 = Ntt3Plan::new(
        t2,
        Ntt3Config {
            r: 64,
            c: 64,
            modred: ModRed::Montgomery,
            embed_bitrev: false,
        },
    );
    let a2: Vec<u64> = (0..n2 as u64).map(|i| i % q2).collect();
    let mut s2 = TpuSim::new(TpuGeneration::V6e);
    let _ = plan2.forward_on_tpu(&mut s2, &a2);
    assert!(s2.compute_seconds() > one);
}

/// Every modular-reduction strategy yields the same ciphertext-level
/// results through the compiled NTT (functional equivalence of the
/// Fig. 13 ablation arms).
#[test]
fn modred_strategies_functionally_equivalent() {
    let n = 1usize << 8;
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    let tables = Arc::new(NttTables::new(n, q));
    let a: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 13) % q).collect();
    let mut outputs = Vec::new();
    for modred in [
        ModRed::Montgomery,
        ModRed::Barrett,
        ModRed::Shoup,
        ModRed::BatLazy,
    ] {
        let plan = Ntt3Plan::new(
            tables.clone(),
            Ntt3Config {
                r: 16,
                c: 16,
                modred,
                embed_bitrev: true,
            },
        );
        let mut sim = TpuSim::new(TpuGeneration::V4);
        outputs.push(plan.forward_on_tpu(&mut sim, &a));
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

/// Energy-efficiency comparison machinery is self-consistent: the same
/// device compared against itself gives a ratio of 1.
#[test]
fn efficiency_ratio_identity() {
    use cross::tpu::power::{efficiency_ratio, EfficiencyPoint};
    let p = EfficiencyPoint::from_latency(100.0, 1e-3, 4);
    assert!((efficiency_ratio(&p, &p) - 1.0).abs() < 1e-12);
}

/// The trace categories of a full HE-Mult cover both MXU and VPU work
/// (the Fig. 12 decomposition exists and is complete).
#[test]
fn he_mult_trace_covers_units() {
    use cross::ckks::costs;
    let params = CkksParams::new(1 << 13, 12, 3, 28);
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    let bundle = costs::HE_MULT.bundle("he-mult", &params, params.limbs, 1);
    let rep = costs::charge_op_mode(&mut sim, &params, &bundle, costs::ExecMode::Unfused);
    let has = |c: Category| rep.breakdown.iter().any(|(cat, s)| *cat == c && *s > 0.0);
    assert!(has(Category::VecModOps));
    assert!(has(Category::NttMatMul));
    assert!(has(Category::InttMatMul));
    assert!(has(Category::BconvMatMul));
    assert!(has(Category::TypeConversion));
    let total: f64 = rep.breakdown.iter().map(|(_, s)| s).sum();
    assert!(total > 0.0 && rep.latency_s >= rep.compute_s.max(rep.hbm_s));
}
