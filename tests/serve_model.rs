//! Serving-loop contracts (ISSUE 5).
//!
//! Four properties keep `cross_sched::serve` honest:
//!
//! 1. **Exactly-once completion** — every submitted ticket resolves
//!    exactly once (double fulfillment panics inside the loop; here we
//!    check that each completion resolves and stays resolved), for any
//!    client/worker count.
//! 2. **Bit-exactness** — ciphertexts produced through the serving
//!    loop are bit-identical to eager [`Evaluator`] calls, regardless
//!    of how requests were batched or which worker executed them.
//! 3. **Determinism** — with a single client thread and a single
//!    worker, two identical runs produce identical store ids and
//!    bit-identical results.
//! 4. **Backpressure** — the bounded intake blocks
//!    ([`Backpressure::Block`]: lossless, everything completes) or
//!    rejects ([`Backpressure::Reject`] / [`RequestQueue::submit`]:
//!    the producer observes queue-full) at capacity.

use cross::ckks::{CkksContext, CkksParams, Evaluator, KeyPair};
use cross::sched::cost::node_bundles;
use cross::sched::serve::{self, ServeConfig, ServeKeys};
use cross::sched::{
    replay, Backpressure, Completion, HeOpKind, KeyRef, OpGraph, QueueFull, ReplayKeys,
    RequestQueue, Scheduler, ServeError,
};
use cross::tpu::TpuGeneration;

fn setup(seed: u64) -> (CkksContext, KeyPair) {
    let ctx = CkksContext::new(CkksParams::toy(), seed);
    let kp = ctx.generate_keys();
    (ctx, kp)
}

fn keys_for(ctx: &CkksContext, kp: &KeyPair, steps: &[usize]) -> ServeKeys {
    let mut keys = ServeKeys::new().with_relin(kp.relin.clone());
    for &s in steps {
        keys = keys.with_rotation(s, ctx.generate_rotation_key(&kp.secret, s));
    }
    keys
}

fn messages(ctx: &CkksContext, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|b| {
            (0..ctx.slot_count())
                .map(|i| 0.15 + ((i * (b + 2)) as f64 * 0.11).sin() * 0.3)
                .collect()
        })
        .collect()
}

fn assert_bits_eq(got: &cross::ckks::Ciphertext, want: &cross::ckks::Ciphertext, what: &str) {
    assert_eq!(got.c0.limbs(), want.c0.limbs(), "{what}: c0 drifted");
    assert_eq!(got.c1.limbs(), want.c1.limbs(), "{what}: c1 drifted");
    assert_eq!(got.level, want.level, "{what}: level drifted");
    assert_eq!(got.scale, want.scale, "{what}: scale drifted");
}

#[test]
fn every_ticket_completes_once_bit_exact_with_eager_calls() {
    let (ctx, kp) = setup(101);
    // Key generation is randomized, so the eager reference must use
    // the *same* key objects the server holds.
    let rk1 = ctx.generate_rotation_key(&kp.secret, 1);
    let rk3 = ctx.generate_rotation_key(&kp.secret, 3);
    let keys = ServeKeys::new()
        .with_relin(kp.relin.clone())
        .with_rotation(1, rk1.clone())
        .with_rotation(3, rk3.clone());
    let ev = Evaluator::new(&ctx);
    let msgs = messages(&ctx, 3);
    let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();

    // Eager reference: one of every servable op kind.
    let want = [
        ev.add(&cts[0], &cts[1]),
        ev.sub(&cts[0], &cts[1]),
        ev.mult(&cts[0], &cts[2], &kp.relin),
        ev.rotate(&cts[1], 1, &rk1),
        ev.rotate(&cts[2], 3, &rk3),
        // A hoisted rotation outside a fan-out is a plain rotation.
        ev.rotate(&cts[0], 3, &rk3),
        ev.rescale(&cts[0]),
        ev.mod_drop(&cts[1], cts[1].level - 1),
    ];

    for workers in [1usize, 4] {
        let config = ServeConfig::new(TpuGeneration::V6e, 8)
            .with_workers(workers)
            .with_drain_max(8);
        let got = serve::run(&ctx, &keys, &config, |session| {
            let xs: Vec<_> = cts.iter().map(|ct| session.insert(ct.clone())).collect();
            let pending = [
                session.add(xs[0], xs[1]).unwrap(),
                session.submit(HeOpKind::Sub, &[xs[0], xs[1]]).unwrap(),
                session.mult(xs[0], xs[2]).unwrap(),
                session.rotate(xs[1], 1).unwrap(),
                session.rotate(xs[2], 3).unwrap(),
                session
                    .submit(HeOpKind::HoistedRotate { steps: 3 }, &[xs[0]])
                    .unwrap(),
                session.rescale(xs[0]).unwrap(),
                session.mod_drop(xs[1], cts[1].level - 1).unwrap(),
            ];
            let results: Vec<_> = pending
                .iter()
                .map(|c| {
                    let done = c.wait().expect("ticket completes");
                    // Resolved tickets stay resolved with the same
                    // outcome (exactly-once semantics observed from
                    // the client side).
                    assert_eq!(c.try_wait(), Some(Ok(done)));
                    assert!(done.batch.ops >= 1);
                    session.take(done.id).expect("result stored once")
                })
                .collect();
            assert!(session.stats().ops >= pending.len() as u64);
            results
        });
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_bits_eq(g, w, &format!("op {i} with {workers} worker(s)"));
        }
    }
}

#[test]
fn chained_requests_match_the_eager_chain() {
    let (ctx, kp) = setup(59);
    let rk = ctx.generate_rotation_key(&kp.secret, 2);
    let keys = ServeKeys::new()
        .with_relin(kp.relin.clone())
        .with_rotation(2, rk.clone());
    let ev = Evaluator::new(&ctx);
    let msg = &messages(&ctx, 1)[0];
    let ct = ctx.encrypt(msg, &kp.public);

    let erot = ev.rotate(&ct, 2, &rk);
    let want = ev.mult(&erot, &erot, &kp.relin);

    let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(2);
    let got = serve::run(&ctx, &keys, &config, |session| {
        let x = session.insert(ct.clone());
        // Chain: wait on the rotation before consuming its result id.
        let rot = session.rotate(x, 2).unwrap().wait().unwrap();
        let sq = session.mult(rot.id, rot.id).unwrap().wait().unwrap();
        session.take(sq.id).unwrap()
    });
    assert_bits_eq(&got, &want, "rotate→square chain");
}

#[test]
fn multi_client_fanout_matches_eager_and_fuses() {
    // 4 client threads, each squaring its own ciphertext repeatedly:
    // concurrent same-kind submissions fuse into batches, and every
    // result stays bit-exact with the eager loop.
    let (ctx, kp) = setup(77);
    let keys = keys_for(&ctx, &kp, &[]);
    let ev = Evaluator::new(&ctx);
    let msgs = messages(&ctx, 4);
    let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();
    let per_client = 6usize;

    let config = ServeConfig::new(TpuGeneration::V6e, 8)
        .with_workers(2)
        .with_drain_max(16);
    let relin = &kp.relin;
    let stats = serve::run(&ctx, &keys, &config, |session| {
        std::thread::scope(|s| {
            for ct in &cts {
                s.spawn(move || {
                    let x = session.insert(ct.clone());
                    for _ in 0..per_client {
                        let done = session.mult(x, x).unwrap().wait().unwrap();
                        let got = session.take(done.id).unwrap();
                        let want = ev.mult(ct, ct, relin);
                        assert_bits_eq(&got, &want, "fanned-out square");
                    }
                });
            }
        });
        session.stats()
    });
    assert_eq!(stats.ops, (4 * per_client) as u64, "no ticket lost");
    assert_eq!(stats.failed, 0);
    assert!(stats.occupancy() >= 1.0);
}

#[test]
fn deterministic_under_a_single_worker() {
    let (ctx, kp) = setup(31);
    let keys = keys_for(&ctx, &kp, &[1]);
    let msgs = messages(&ctx, 2);
    let cts: Vec<_> = msgs.iter().map(|m| ctx.encrypt(m, &kp.public)).collect();

    let one_run = || {
        let config = ServeConfig::new(TpuGeneration::V6e, 4)
            .with_workers(1)
            .with_drain_max(4);
        serve::run(&ctx, &keys, &config, |session| {
            let xs: Vec<_> = cts.iter().map(|ct| session.insert(ct.clone())).collect();
            let pending = vec![
                session.rotate(xs[0], 1).unwrap(),
                session.mult(xs[0], xs[1]).unwrap(),
                session.add(xs[0], xs[1]).unwrap(),
            ];
            pending
                .into_iter()
                .map(|c| {
                    let done = c.wait().unwrap();
                    (done.id, session.take(done.id).unwrap())
                })
                .collect::<Vec<_>>()
        })
    };
    let (a, b) = (one_run(), one_run());
    assert_eq!(a.len(), b.len());
    for ((ida, cta), (idb, ctb)) in a.iter().zip(&b) {
        assert_eq!(ida, idb, "store ids must not drift across runs");
        assert_bits_eq(cta, ctb, "single-worker determinism");
    }
}

#[test]
fn blocking_backpressure_loses_nothing_at_capacity_one() {
    // Intake capacity 1 with a blocking producer: every submission
    // waits for its slot, nothing is dropped, everything completes.
    let (ctx, kp) = setup(13);
    let keys = keys_for(&ctx, &kp, &[]);
    let msg = &messages(&ctx, 1)[0];
    let ct = ctx.encrypt(msg, &kp.public);
    let total = 12usize;

    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(2)
        .with_capacity(1)
        .with_policy(Backpressure::Block);
    let stats = serve::run(&ctx, &keys, &config, |session| {
        let x = session.insert(ct.clone());
        let pending: Vec<Completion> = (0..total).map(|_| session.add(x, x).unwrap()).collect();
        for c in &pending {
            assert!(c.wait().is_ok());
        }
        session.stats()
    });
    assert_eq!(stats.ops, total as u64);
    assert_eq!(stats.failed, 0);
}

#[test]
fn bounded_queue_rejects_at_capacity() {
    // The Reject policy's primitive, deterministic at the queue layer:
    // a bounded RequestQueue refuses the (capacity+1)-th submission
    // and frees a slot per drained op.
    let params = cross::ckks::params::ParamSet::B.params();
    let mut q = RequestQueue::bounded(3);
    for _ in 0..3 {
        assert!(q.submit_default(HeOpKind::Add, params.limbs).is_ok());
    }
    assert_eq!(
        q.submit_default(HeOpKind::Add, params.limbs),
        Err(QueueFull)
    );
    let scheduler = Scheduler::new(TpuGeneration::V6e, 4);
    let d = q.drain(&scheduler, &params, 2);
    assert_eq!(d.tickets.len(), 2);
    assert!(q.submit_default(HeOpKind::Add, params.limbs).is_ok());
    assert!(q.submit_default(HeOpKind::Add, params.limbs).is_ok());
    assert_eq!(
        q.submit_default(HeOpKind::Add, params.limbs),
        Err(QueueFull)
    );
}

#[test]
fn reject_policy_surfaces_queue_full_or_completes() {
    // Under Reject the producer never blocks: each submission either
    // lands (and must then complete) or comes back as QueueFull
    // immediately. With a capacity-1 intake and a burst far faster
    // than the loop drains, both outcomes are exercised without any
    // timing assumption making the test flaky.
    let (ctx, kp) = setup(7);
    let keys = keys_for(&ctx, &kp, &[]);
    let msg = &messages(&ctx, 1)[0];
    let ct = ctx.encrypt(msg, &kp.public);

    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(1)
        .with_capacity(1)
        .with_policy(Backpressure::Reject);
    let (accepted, rejected) = serve::run(&ctx, &keys, &config, |session| {
        let x = session.insert(ct.clone());
        let mut accepted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..64 {
            match session.add(x, x) {
                Ok(completion) => accepted.push(completion),
                Err(serve::SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        for c in &accepted {
            assert!(c.wait().is_ok(), "accepted tickets always complete");
        }
        (accepted.len(), rejected)
    });
    assert_eq!(accepted + rejected, 64, "every submission got an answer");
    assert!(accepted >= 1, "an empty intake accepts");
}

/// Position of a kind's variant in the enum. Written without a
/// wildcard so a new variant fails to compile here until
/// [`kind_rows_agree_with_behaviour`] has a row for it.
fn variant_index(kind: HeOpKind) -> usize {
    match kind {
        HeOpKind::Input => 0,
        HeOpKind::Add => 1,
        HeOpKind::Sub => 2,
        HeOpKind::PlainMult => 3,
        HeOpKind::PlainMultConst { .. } => 4,
        HeOpKind::PlainAddConst { .. } => 5,
        HeOpKind::Mult => 6,
        HeOpKind::Rotate { .. } => 7,
        HeOpKind::Rescale => 8,
        HeOpKind::ModDrop { .. } => 9,
        HeOpKind::KeySwitch => 10,
        HeOpKind::Bootstrap => 11,
        HeOpKind::HoistDecomp => 12,
        HeOpKind::HoistedRotate { .. } => 13,
    }
}

#[test]
fn kind_rows_agree_with_behaviour() {
    // The one per-kind table (`HeOpKind::row`) against what the IR,
    // the key cache, the cost interpreter, the executor and a serving
    // session actually do — every variant, parameterised kinds at two
    // parameter values.
    let (ctx, kp) = setup(131);
    let params = *ctx.params();
    let top = params.limbs;
    let relin = Some(KeyRef::Relin);
    let rot = |steps| Some(KeyRef::Rotation(steps));
    let pmult_const = |cid| HeOpKind::PlainMultConst { cid };
    let padd_const = |cid| HeOpKind::PlainAddConst { cid };
    let rotate = |steps| HeOpKind::Rotate { steps };
    let mod_drop = |to_level| HeOpKind::ModDrop { to_level };
    let hoisted = |steps| HeOpKind::HoistedRotate { steps };
    // (kind, arity, result level at `top`, key, free, executable, served)
    let table = [
        (HeOpKind::Input, 0, top, None, true, false, false),
        (HeOpKind::Add, 2, top, None, false, true, true),
        (HeOpKind::Sub, 2, top, None, false, true, true),
        (HeOpKind::PlainMult, 1, top, None, false, false, false),
        (pmult_const(0), 1, top, None, false, true, false),
        (pmult_const(3), 1, top, None, false, true, false),
        (padd_const(0), 1, top, None, false, true, false),
        (padd_const(3), 1, top, None, false, true, false),
        (HeOpKind::Mult, 2, top - 1, relin, false, true, true),
        (rotate(1), 1, top, rot(1), false, true, true),
        (rotate(5), 1, top, rot(5), false, true, true),
        (HeOpKind::Rescale, 1, top - 1, None, false, true, true),
        (mod_drop(1), 1, 1, None, true, true, true),
        (mod_drop(2), 1, 2, None, true, true, true),
        (HeOpKind::KeySwitch, 1, top, relin, false, false, false),
        (HeOpKind::Bootstrap, 1, top, relin, false, false, false),
        (HeOpKind::HoistDecomp, 1, top, None, false, true, false),
        (hoisted(1), 1, top, rot(1), false, true, true),
        (hoisted(5), 1, top, rot(5), false, true, true),
    ];
    let mut covered: Vec<usize> = table.iter().map(|row| variant_index(row.0)).collect();
    covered.dedup();
    assert_eq!(covered, (0..14).collect::<Vec<_>>(), "a variant has no row");

    let ev = Evaluator::new(&ctx);
    let rk1 = ctx.generate_rotation_key(&kp.secret, 1);
    let rk5 = ctx.generate_rotation_key(&kp.secret, 5);
    let replay_keys = ReplayKeys::new()
        .with_relin(&kp.relin)
        .with_rotation(1, &rk1)
        .with_rotation(5, &rk5)
        .with_mult_const(0, 0.5, params.scale())
        .with_mult_const(3, 0.25, params.scale())
        .with_add_const(0, 0.5)
        .with_add_const(3, 0.25);
    let ct = ctx.encrypt(&messages(&ctx, 1)[0], &kp.public);

    let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(1);
    let served: Vec<usize> = serve::run(&ctx, &keys_for(&ctx, &kp, &[1, 5]), &config, |session| {
        let x = session.insert(ct.clone());
        let mut served = Vec::new();
        for (kind, arity, result_level, key, free, executable, servable) in table {
            let row = kind.row();
            let graph = OpGraph::single_op(kind, top);
            let node = graph.nodes().last().unwrap();
            assert_eq!(graph.len(), arity + 1, "{kind:?} arity");
            assert_eq!((row.arity, kind.arity()), (arity, arity), "{kind:?}");
            assert_eq!(node.result_level(), result_level, "{kind:?} level");
            assert_eq!(row.level.result_level(top), Some(result_level), "{kind:?}");
            assert_eq!(row.key, key, "{kind:?} key");
            assert_eq!(row.label, kind.label());
            let bundles = node_bundles(&params, kind, top, 1);
            assert_eq!(bundles.is_empty(), free, "{kind:?} bundles");
            assert_eq!(bundles.iter().any(|b| b.key_bytes > 0.0), key.is_some());

            assert_eq!(row.exec.is_some(), executable, "{kind:?} exec");
            if kind != HeOpKind::Input {
                let inputs = vec![ct.clone(); arity];
                let value = replay(&graph, &ev, &replay_keys, &inputs).pop().unwrap();
                assert_eq!(value.is_some(), executable, "{kind:?} replay");
            }

            let outcome = session.submit(kind, &vec![x; arity]).unwrap().wait();
            match outcome {
                Ok(_) => served.push(variant_index(kind)),
                Err(e) => assert_eq!(e, ServeError::Unservable(row.label), "{kind:?}"),
            }
            assert_eq!(outcome.is_ok(), servable, "{kind:?} served");
        }
        served.dedup();
        served
    });
    // Add, Sub, Mult, Rotate, Rescale, ModDrop, HoistedRotate.
    assert_eq!(served, [1, 2, 6, 7, 8, 9, 13]);
}
