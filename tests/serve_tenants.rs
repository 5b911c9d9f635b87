//! Multi-tenant serving contracts (ISSUE 8).
//!
//! Five properties keep `cross_sched::session` honest, all driven by
//! the deterministic traffic generator in `cross_sched::testutil`:
//!
//! 1. **Interleaved bit-exactness** — per-tenant result chains served
//!    concurrently (any worker count, any tenant interleaving) are
//!    bit-identical to eager sequential [`Evaluator`] evaluation of
//!    the same chain under that tenant's own keys.
//! 2. **Isolation** — a request naming another tenant's ciphertext
//!    fails only its own ticket ([`ServeError::CrossTenant`]), key
//!    checks are per-tenant (tenant B cannot ride tenant A's rotation
//!    key), and no cross-tenant fetch/take ever succeeds.
//! 3. **Pressure never corrupts** — with the switching-key cache too
//!    small for the tenant mix, every dispatch re-admits keys (misses
//!    and evictions pile up, modeled wall seconds grow) yet results
//!    stay bit-exact and every ticket completes exactly once. Same
//!    for ciphertext-store pressure: a bounded store under churn
//!    completes everything, and a reference to an evicted ciphertext
//!    is a per-ticket [`ServeError::Evicted`] — never a wrong result.
//! 4. **Fault isolation** — an injected worker panic mid-dispatch
//!    with multiple tenants in flight fails only the tickets of the
//!    affected dispatch; other tenants' results stay bit-exact and
//!    every ticket still resolves (no hangs), while the panic itself
//!    propagates at scope join.
//! 5. **Fairness** — under a 10:1 skewed load, deficit-round-robin
//!    draining completes the light tenant's tickets within a pinned
//!    early bound instead of behind the heavy tenant's backlog (the
//!    FIFO counterfactual), and weights shift the split.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cross::ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey};
use cross::sched::serve::{ServeConfig, ServeKeys};
use cross::sched::session::{serve_tenants, TenantSpec};
use cross::sched::testutil::{tenant_trace, zipf_shares, ChainOp, TrafficConfig};
use cross::sched::{HeOpKind, ServeError, Session, TenantId};
use cross::tpu::TpuGeneration;

/// Trace rotations draw steps from `0..=MAX_STEPS`; every tenant gets
/// one rotation key per step.
const MAX_STEPS: usize = 3;

/// One tenant's universe: its own keypair (so its results decrypt
/// under its own secret key), serving keys, and a distinct base
/// message.
struct Tenant {
    id: TenantId,
    kp: KeyPair,
    rotation: Vec<SwitchingKey>,
    base: Ciphertext,
}

impl Tenant {
    fn serve_keys(&self) -> ServeKeys {
        let mut keys = ServeKeys::new().with_relin(self.kp.relin.clone());
        for (steps, key) in self.rotation.iter().enumerate() {
            keys = keys.with_rotation(steps, key.clone());
        }
        keys
    }
}

fn setup(ctx: &CkksContext, ids: &[TenantId]) -> Vec<Tenant> {
    ids.iter()
        .map(|&id| {
            let kp = ctx.generate_keys();
            let rotation = (0..=MAX_STEPS)
                .map(|s| ctx.generate_rotation_key(&kp.secret, s))
                .collect();
            let msg: Vec<f64> = (0..ctx.slot_count())
                .map(|i| 0.2 + ((i as f64 + id as f64 * 7.0) * 0.11).sin() * 0.3)
                .collect();
            let base = ctx.encrypt(&msg, &kp.public);
            Tenant {
                id,
                kp,
                rotation,
                base,
            }
        })
        .collect()
}

fn traffic_cfg(ctx: &CkksContext, base: &Ciphertext) -> TrafficConfig {
    let mut cfg = TrafficConfig::new(
        base.level,
        ctx.q_moduli().iter().map(|&q| q as f64).collect(),
        base.scale,
    );
    cfg.max_steps = MAX_STEPS;
    cfg
}

/// The eager ground truth: apply the chain sequentially with the
/// tenant's own keys.
fn eager_chain(ev: &Evaluator, tenant: &Tenant, ops: &[ChainOp]) -> Ciphertext {
    let mut prev = tenant.base.clone();
    for op in ops {
        prev = match *op {
            ChainOp::Add => ev.add(&prev, &prev),
            ChainOp::Mult => ev.mult(&prev, &prev, &tenant.kp.relin),
            ChainOp::Rotate { steps } => ev.rotate(&prev, steps, &tenant.rotation[steps]),
            ChainOp::Rescale => ev.rescale(&prev),
        };
    }
    prev
}

/// Serves the chain through a session: each step consumes the
/// previous result, pinning it ([`Session::retain`]) the moment it
/// completes and dropping the superseded ciphertext.
fn served_chain(session: &Session, base: &Ciphertext, ops: &[ChainOp]) -> Ciphertext {
    let mut prev = session.insert(base.clone());
    for op in ops {
        let completion = match *op {
            ChainOp::Add => session.add(prev, prev),
            ChainOp::Mult => session.mult(prev, prev),
            ChainOp::Rotate { steps } => session.rotate(prev, steps),
            ChainOp::Rescale => session.rescale(prev),
        }
        .expect("submit");
        let done = completion.wait().expect("chain step completes");
        session.retain(done.id).expect("result still stored");
        session.take(prev);
        prev = done.id;
    }
    session.take(prev).expect("final chain result stored")
}

fn assert_bit_exact(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert_eq!(got.level, want.level, "{what}: level");
    assert_eq!(got.c0.limbs(), want.c0.limbs(), "{what}: c0");
    assert_eq!(got.c1.limbs(), want.c1.limbs(), "{what}: c1");
}

/// Property 1: any interleaving of tenants across any worker count is
/// bit-exact with per-tenant sequential eager evaluation.
#[test]
fn interleaved_tenants_are_bit_exact_with_eager_chains() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xBEEF);
    let tenants = setup(&ctx, &[1, 2, 3]);
    let cfg = traffic_cfg(&ctx, &tenants[0].base);
    let shares = zipf_shares(&[1, 2, 3], 24);
    let trace = tenant_trace(0xA11CE, &shares, &cfg);
    let chains: BTreeMap<TenantId, Vec<ChainOp>> = tenants
        .iter()
        .map(|t| {
            let ops: Vec<ChainOp> = trace
                .iter()
                .filter(|&&(id, _)| id == t.id)
                .map(|&(_, op)| op)
                .collect();
            (t.id, ops)
        })
        .collect();
    let ev = Evaluator::new(&ctx);
    let want: BTreeMap<TenantId, Ciphertext> = tenants
        .iter()
        .map(|t| (t.id, eager_chain(&ev, t, &chains[&t.id])))
        .collect();

    for workers in [1, 4] {
        let specs: Vec<TenantSpec> = tenants
            .iter()
            .map(|t| TenantSpec::new(t.id, t.serve_keys()))
            .collect();
        let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(workers);
        serve_tenants(&ctx, specs, &config, |server| {
            std::thread::scope(|s| {
                for t in &tenants {
                    let session = server.session(t.id);
                    let ops = &chains[&t.id];
                    let want = &want[&t.id];
                    s.spawn(move || {
                        let got = served_chain(&session, &t.base, ops);
                        assert_bit_exact(
                            &got,
                            want,
                            &format!("tenant {} chain, {workers} workers", t.id),
                        );
                    });
                }
            });
            let stats = server.stats();
            assert_eq!(stats.ops, trace.len() as u64);
            assert_eq!(stats.failed, 0);
        });
    }
}

/// Property 2: tenants cannot see or spend each other's state.
#[test]
fn tenants_are_isolated_from_each_other() {
    let ctx = CkksContext::new(CkksParams::toy(), 0x150);
    let tenants = setup(&ctx, &[1, 2]);
    // Tenant 2 gets NO keys: its key checks must be its own, not
    // tenant 1's fully-stocked set.
    let specs = vec![
        TenantSpec::new(1, tenants[0].serve_keys()),
        TenantSpec::new(2, ServeKeys::new()),
    ];
    let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(2);
    serve_tenants(&ctx, specs, &config, |server| {
        let a = server.session(1);
        let b = server.session(2);
        let xa = a.insert(tenants[0].base.clone());
        let xb = b.insert(tenants[1].base.clone());

        // B referencing A's ciphertext fails only B's ticket.
        let leak = b.add(xa, xb).unwrap().wait();
        assert_eq!(leak, Err(ServeError::CrossTenant(xa)));
        let leak = b.add(xa, xa).unwrap().wait();
        assert_eq!(leak, Err(ServeError::CrossTenant(xa)));

        // B cannot ride A's keys.
        let rot = b.rotate(xb, 1).unwrap().wait();
        assert_eq!(rot, Err(ServeError::MissingKey("Rotate")));

        // No cross-tenant fetch/take/retain.
        assert_eq!(b.fetch(xa).err(), Some(ServeError::CrossTenant(xa)));
        assert!(b.take(xa).is_none());
        assert_eq!(b.release(xa).err(), Some(ServeError::CrossTenant(xa)));

        // A is entirely unaffected: its chain still serves bit-exactly.
        let done = a.rotate(xa, 1).unwrap().wait().expect("A unaffected");
        let got = a.take(done.id).unwrap();
        let ev = Evaluator::new(&ctx);
        let want = ev.rotate(&tenants[0].base, 1, &tenants[0].rotation[1]);
        assert_bit_exact(&got, &want, "tenant 1 beside a hostile tenant 2");
        assert_eq!(a.stats().failed, 3, "exactly the three hostile tickets");
    });
}

/// Property 2b: a request the evaluator would assert on fails its own
/// ticket at validation — never a worker, whose panic would take every
/// tenant's loop down. `Sub` obeys the same scale rule as `Add`.
#[test]
fn scale_mismatched_sub_fails_the_ticket_not_the_loop() {
    let ctx = CkksContext::new(CkksParams::toy(), 0x5CA1E);
    let tenants = setup(&ctx, &[1, 2]);
    let ev = Evaluator::new(&ctx);
    let specs: Vec<TenantSpec> = tenants
        .iter()
        .map(|t| TenantSpec::new(t.id, t.serve_keys()))
        .collect();
    let config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(2);
    serve_tenants(&ctx, specs, &config, |server| {
        let a = server.session(1);
        let b = server.session(2);
        let xa = a.insert(tenants[0].base.clone());
        let xb = b.insert(tenants[1].base.clone());
        // The rescaled copy sits at scale Δ/q: far outside the 1e-2
        // tolerance against the fresh ciphertext.
        let rescaled = a.rescale(xa).unwrap().wait().expect("rescale serves");
        a.retain(rescaled.id).unwrap();

        // Tenant 2 has tickets in flight while tenant 1's bad requests
        // arrive.
        let pending_b: Vec<_> = (0..8).map(|_| b.add(xb, xb).expect("submit")).collect();
        for kind in [HeOpKind::Sub, HeOpKind::Add] {
            let bad = a.submit(kind, &[xa, rescaled.id]).unwrap().wait();
            assert_eq!(bad, Err(ServeError::ScaleMismatch), "{kind:?}");
        }
        let want_b = ev.add(&tenants[1].base, &tenants[1].base);
        for c in pending_b {
            let done = c.wait().expect("tenant 2 is unaffected");
            assert_bit_exact(&b.take(done.id).unwrap(), &want_b, "tenant 2 add");
        }

        // The loop keeps serving, and a well-scaled Sub is bit-exact.
        let done = a.submit(HeOpKind::Sub, &[xa, xa]).unwrap().wait();
        let got = a.take(done.expect("sub serves").id).unwrap();
        let want = ev.sub(&tenants[0].base, &tenants[0].base);
        assert_bit_exact(&got, &want, "tenant 1 sub after the refusals");
        assert_eq!(a.stats().failed, 2, "exactly the two mismatched tickets");
    });
}

/// Property 3a: a key cache too small for the tenant mix thrashes —
/// and changes nothing about the results.
#[test]
fn key_cache_thrash_is_billed_but_never_corrupts() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xCAFE);
    let tenants = setup(&ctx, &[1, 2, 3, 4]);
    let cfg = traffic_cfg(&ctx, &tenants[0].base);
    let shares: Vec<(TenantId, usize)> = tenants.iter().map(|t| (t.id, 8)).collect();
    let trace = tenant_trace(0xF00D, &shares, &cfg);
    let chains: BTreeMap<TenantId, Vec<ChainOp>> = tenants
        .iter()
        .map(|t| {
            let ops: Vec<ChainOp> = trace
                .iter()
                .filter(|&&(id, _)| id == t.id)
                .map(|&(_, op)| op)
                .collect();
            (t.id, ops)
        })
        .collect();
    let ev = Evaluator::new(&ctx);

    // Budget = one relin key: any second resident key evicts the
    // first, so four tenants' keyed traffic must thrash.
    let one_key = tenants[0].kp.relin.bytes() as f64;
    let specs: Vec<TenantSpec> = tenants
        .iter()
        .map(|t| TenantSpec::new(t.id, t.serve_keys()))
        .collect();
    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(2)
        .with_key_cache_bytes(one_key * 1.5);
    serve_tenants(&ctx, specs, &config, |server| {
        let ev = &ev;
        std::thread::scope(|s| {
            for t in &tenants {
                let session = server.session(t.id);
                let ops = &chains[&t.id];
                s.spawn(move || {
                    let got = served_chain(&session, &t.base, ops);
                    let want = eager_chain(ev, t, ops);
                    assert_bit_exact(&got, &want, &format!("tenant {} under thrash", t.id));
                });
            }
        });
        let stats = server.stats();
        // Every op completed exactly once (the chains waited on all of
        // them), and the pressure was real and billed.
        assert_eq!(stats.ops, trace.len() as u64);
        assert_eq!(stats.failed, 0);
        assert!(stats.key_misses > 0, "undersized cache must miss");
        assert!(stats.key_evictions > 0, "four tenants must thrash one slot");
        assert!(stats.key_admit_s > 0.0, "misses are billed");
        assert!(
            stats.modeled_wall_s > stats.key_admit_s,
            "re-admission rides on top of compute, not instead of it"
        );
        assert!(stats.key_occupancy <= 1.0);
    });
}

/// Property 3b: ciphertext-store pressure completes everything
/// exactly once, and evicted references fail per-ticket.
#[test]
fn store_pressure_completes_every_ticket_exactly_once() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xD00D);
    let tenants = setup(&ctx, &[1, 2]);
    let specs: Vec<TenantSpec> = tenants
        .iter()
        .map(|t| TenantSpec::new(t.id, t.serve_keys()))
        .collect();
    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(2)
        .with_store_capacity(4);
    serve_tenants(&ctx, specs, &config, |server| {
        std::thread::scope(|s| {
            for t in &tenants {
                let session = server.session(t.id);
                s.spawn(move || {
                    // Independent ops against the pinned base: results
                    // go unclaimed on purpose, churning the tiny store.
                    let x = session.insert(t.base.clone());
                    let pending: Vec<_> = (0..24)
                        .map(|_| session.add(x, x).expect("submit"))
                        .collect();
                    for c in pending {
                        c.wait().expect("every ticket completes despite churn");
                    }
                    // The pinned input survived the whole soak.
                    assert!(session.fetch(x).is_ok());
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.ops, 48);
        assert_eq!(stats.failed, 0);
        assert!(stats.ct_evictions >= 40, "unclaimed results were reclaimed");
        let any = server.session(1);
        assert!(any.stored() <= 4 + 2, "population stays near the cap");
    });
}

/// Property 4: an injected worker panic mid-dispatch fails only the
/// affected dispatch's tickets; everything else completes bit-exactly
/// and the panic surfaces at join.
#[test]
fn worker_panic_fails_only_the_affected_dispatch() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xFA17);
    let tenants = setup(&ctx, &[1, 2]);
    let ev = Evaluator::new(&ctx);
    // One worker fans its kernels out over the pool; two run them
    // inline. Either way the fault stays inside its dispatch.
    for workers in [1, 2] {
        let specs: Vec<TenantSpec> = tenants
            .iter()
            .map(|t| TenantSpec::new(t.id, t.serve_keys()))
            .collect();
        let mut config = ServeConfig::new(TpuGeneration::V6e, 4).with_workers(workers);
        // Dispatch 0 (tenant 1's first wave — its submissions enter the
        // intake first, and dispatches form in ascending tenant order)
        // panics mid-execution.
        config.inject_worker_panic = Some(0);

        type Outcome = (TenantId, Result<Option<Ciphertext>, ServeError>);
        let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_tenants(&ctx, specs, &config, |server| {
                let a = server.session(1);
                let b = server.session(2);
                let xa = a.insert(tenants[0].base.clone());
                let xb = b.insert(tenants[1].base.clone());
                let pending_a: Vec<_> = (0..8).map(|_| a.add(xa, xa).expect("submit")).collect();
                let pending_b: Vec<_> = (0..8).map(|_| b.add(xb, xb).expect("submit")).collect();
                let mut out = outcomes.lock().unwrap();
                for c in pending_a {
                    out.push((1, c.wait().map(|done| a.take(done.id))));
                }
                for c in pending_b {
                    out.push((2, c.wait().map(|done| b.take(done.id))));
                }
            });
        }));
        assert!(run.is_err(), "the injected panic propagates at scope join");

        let outcomes = outcomes.into_inner().unwrap();
        assert_eq!(outcomes.len(), 16, "every ticket resolved — no hangs");
        let failed_a = outcomes
            .iter()
            .filter(|(t, r)| *t == 1 && matches!(r, Err(ServeError::ExecutionFailed)))
            .count();
        assert!(failed_a >= 1, "the poisoned dispatch carried tenant 1 work");
        // Tenant 2 rode other dispatches: all its tickets succeeded, with
        // bit-exact results.
        let want_b = ev.add(&tenants[1].base, &tenants[1].base);
        for (tenant, outcome) in &outcomes {
            match (tenant, outcome) {
                (2, Ok(Some(ct))) => assert_bit_exact(ct, &want_b, "tenant 2 beside the fault"),
                (2, other) => panic!("tenant 2 ticket must succeed, got {other:?}"),
                (1, Ok(_) | Err(ServeError::ExecutionFailed)) => {}
                (1, other) => panic!("tenant 1 fails only with ExecutionFailed, got {other:?}"),
                _ => unreachable!(),
            }
        }
    }
}

/// Property 5: deficit round robin keeps a light tenant's completions
/// near the front under a 10:1 flood, and weights steer the split.
#[test]
fn fair_draining_bounds_the_light_tenants_completion_tail() {
    let ctx = CkksContext::new(CkksParams::toy(), 0xFA1);
    let tenants = setup(&ctx, &[1, 2]);
    const HEAVY: usize = 40;
    const LIGHT: usize = 4;

    // Deterministic shape: one client thread submits the whole skewed
    // load (heavy tenant first — the worst case for the light tenant),
    // a generous batch window lets the dispatcher gather all of it
    // into one backlog, and a single worker makes completion sequence
    // numbers follow dispatch order exactly.
    let run = |weights: (u64, u64)| -> Vec<(TenantId, u64)> {
        let specs = vec![
            TenantSpec::new(1, tenants[0].serve_keys()).with_weight(weights.0),
            TenantSpec::new(2, tenants[1].serve_keys()).with_weight(weights.1),
        ];
        let config = ServeConfig::new(TpuGeneration::V6e, 4)
            .with_workers(1)
            .with_drain_max(4)
            .with_batch_window(std::time::Duration::from_millis(400));
        serve_tenants(&ctx, specs, &config, |server| {
            let heavy = server.session(1);
            let light = server.session(2);
            let xh = heavy.insert(tenants[0].base.clone());
            let xl = light.insert(tenants[1].base.clone());
            let pending: Vec<(TenantId, _)> = (0..HEAVY)
                .map(|_| (1, heavy.add(xh, xh).expect("submit")))
                .chain((0..LIGHT).map(|_| (2, light.add(xl, xl).expect("submit"))))
                .collect();
            pending
                .into_iter()
                .map(|(t, c)| (t, c.wait().expect("completes").seq))
                .collect()
        })
    };

    let seqs = run((1, 1));
    // Exactly-once, globally: every completion seq is distinct.
    let distinct: std::collections::BTreeSet<u64> = seqs.iter().map(|&(_, s)| s).collect();
    assert_eq!(distinct.len(), HEAVY + LIGHT);
    let light_last = seqs
        .iter()
        .filter(|&&(t, _)| t == 2)
        .map(|&(_, s)| s)
        .max()
        .unwrap();
    // Equal weights, drain windows of 4: the light tenant's 4 tickets
    // ride the first two windows (completion seqs ≤ 7). FIFO draining
    // would put them behind the flood at seq ≥ 40; pin a generous
    // bound well under that counterfactual.
    assert!(
        light_last < 16,
        "light tenant finished at seq {light_last}, expected < 16 under DRR \
         (FIFO would be ≥ {HEAVY})"
    );

    // Tilt the weights 3:1 toward the heavy tenant: the light tenant
    // still never starves, but its tail moves back proportionally.
    let seqs = run((3, 1));
    let light_last_weighted = seqs
        .iter()
        .filter(|&&(t, _)| t == 2)
        .map(|&(_, s)| s)
        .max()
        .unwrap();
    assert!(
        light_last_weighted < 24,
        "weight-1 tenant against weight-3 flood finishes by seq 24, got {light_last_weighted}"
    );
    assert!(
        light_last_weighted > light_last,
        "a 3:1 weight tilt must push the light tenant's tail back \
         ({light_last} -> {light_last_weighted})"
    );
}

/// Backpressure + admission control compose: a session at quota is
/// refused locally without consuming shared intake capacity.
#[test]
fn quota_refusals_do_not_consume_shared_capacity() {
    let ctx = CkksContext::new(CkksParams::toy(), 0x0A0A);
    let tenants = setup(&ctx, &[1, 2]);
    let specs = vec![
        TenantSpec::new(1, tenants[0].serve_keys()).with_quota(1),
        TenantSpec::new(2, tenants[1].serve_keys()),
    ];
    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(1)
        .with_drain_max(1);
    serve_tenants(&ctx, specs, &config, |server| {
        let a = server.session(1);
        let b = server.session(2);
        let xa = a.insert(tenants[0].base.clone());
        let xb = b.insert(tenants[1].base.clone());
        let refusals = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Bursts of 4 against a quota of 1: at most one ticket
                // per burst is accepted, the rest refused locally.
                for _ in 0..16 {
                    let mut accepted = Vec::new();
                    for _ in 0..4 {
                        match a.add(xa, xa) {
                            Ok(c) => accepted.push(c),
                            Err(cross::sched::SubmitError::TenantOverQuota) => {
                                refusals.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                    for c in accepted {
                        c.wait().expect("accepted tickets complete");
                    }
                }
            });
            s.spawn(|| {
                // Tenant 2 is never impeded by tenant 1's quota dance.
                for _ in 0..64 {
                    b.add(xb, xb).expect("submit").wait().expect("completes");
                }
            });
        });
        assert!(
            refusals.load(Ordering::Relaxed) >= 1,
            "burst submissions past the quota are refused"
        );
        assert_eq!(a.in_flight(), 0);
        assert_eq!(b.in_flight(), 0);
    });
}
