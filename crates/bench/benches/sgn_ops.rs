//! Criterion: the encrypted comparison toolkit, all host wall-clock.
//!
//! * `sgn/sign_latency/{low,mid,high}` — latency of one eager sign
//!   evaluation per precision tier.
//! * `sgn/exec_fused/sign_x8` vs `sgn/exec_eager/sign_x8` — eight sign
//!   chains executed as one fused batched schedule vs the same chains
//!   run eagerly. The two paths are asserted bit-identical before
//!   timing. **Warn-only** as a pair (like `serve_multi` vs
//!   `single_drain`): on the host the batched executor exists to prove
//!   bit-exactness, and its gather/scatter overhead can outweigh the
//!   fused-kernel win the cost model attributes to the accelerator's
//!   batch dimension.
//!
//! The modeled wall seconds of the recorded argmax/top-k/ReLU-MLP
//! heads, scheduled and naive, are pinned in `tests/model_golden.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use cross_ckks::ext::sgn::{sign_chain, EagerSgnBackend, SgnTier};
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, PublicKey};
use cross_sched::{execute_schedule, RecordingSgnBackend, ReplayKeys, Scheduler};
use cross_tpu::TpuGeneration;

fn encrypt_signals(ctx: &CkksContext, pk: &PublicKey, n: usize) -> Vec<Ciphertext> {
    (0..n)
        .map(|b| {
            let msg: Vec<f64> = (0..ctx.slot_count())
                .map(|i| (((i + 5 * b) as f64 * 0.37).sin() * 0.8).clamp(-0.9, 0.9))
                .collect();
            ctx.encrypt(&msg, pk)
        })
        .collect()
}

fn bench_sgn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sgn");
    g.sample_size(10);

    // --- fused schedule vs eager loop (wall-clock, warn-only pair) ---
    let tier = SgnTier::Low;
    let ctx = CkksContext::new(
        CkksParams::new(1 << 8, tier.min_derived_level() + 1, 2, 28),
        0x56E0,
    );
    let kp = ctx.generate_keys();
    let ev = Evaluator::new(&ctx);
    let cts = encrypt_signals(&ctx, &kp.public, 8);

    let mut bk = RecordingSgnBackend::new(ctx.q_moduli());
    let sinks: Vec<usize> = cts
        .iter()
        .map(|ct| {
            let x = bk.input(ct.level, ct.scale);
            sign_chain(&mut bk, &x, tier).vct.node
        })
        .collect();
    let rec = bk.finish();
    let keys = rec.register_consts(ReplayKeys::new().with_relin(&kp.relin));
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let schedule = scheduler.schedule(&rec.graph, ctx.params());

    // bit-identity guard before any timing
    let got = execute_schedule(&rec.graph, &schedule, &ev, &keys, &cts);
    for (i, (&sink, ct)) in sinks.iter().zip(&cts).enumerate() {
        let mut ebk = EagerSgnBackend::new(&ev, &kp.relin);
        let want = sign_chain(&mut ebk, ct, tier);
        let have = got[sink].as_ref().unwrap();
        assert_eq!(want.level, have.level, "copy {i} level");
        assert_eq!(want.scale.to_bits(), have.scale.to_bits(), "copy {i} scale");
        assert_eq!(want.c0.limbs(), have.c0.limbs(), "copy {i} c0");
        assert_eq!(want.c1.limbs(), have.c1.limbs(), "copy {i} c1");
    }

    g.bench_function("exec_fused/sign_x8", |b| {
        b.iter(|| execute_schedule(&rec.graph, &schedule, &ev, &keys, &cts))
    });
    g.bench_function("exec_eager/sign_x8", |b| {
        b.iter(|| {
            cts.iter()
                .map(|ct| {
                    let mut bk = EagerSgnBackend::new(&ev, &kp.relin);
                    sign_chain(&mut bk, ct, tier)
                })
                .collect::<Vec<_>>()
        })
    });

    // --- per-tier sign latency on a chain deep enough for High ---
    let deep = CkksContext::new(
        CkksParams::new(1 << 8, SgnTier::High.min_sign_level() + 2, 2, 28),
        0x56E1,
    );
    let dkp = deep.generate_keys();
    let dev = Evaluator::new(&deep);
    let dct = &encrypt_signals(&deep, &dkp.public, 1)[0];
    for t in SgnTier::ALL {
        g.bench_function(format!("sign_latency/{}", t.label()), |b| {
            b.iter(|| {
                let mut bk = EagerSgnBackend::new(&dev, &dkp.relin);
                sign_chain(&mut bk, dct, t)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sgn);
criterion_main!(benches);
