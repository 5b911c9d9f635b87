//! `serve_tenants`: four tenants on `cross_sched::serve_tenants` at
//! `N = 2^12`, 4 limbs, dnum 2, two workers, drain-time optimisation
//! on, and a key cache of four relin-key equivalents for ten keys, so
//! keys thrash in and out of modeled residency.
//!
//! A closed loop with two client threads. Thread A drives the *burst*
//! tenant and keeps 16 `rotate(x, 1)` tickets in flight — homogeneous,
//! so they can fuse. Thread B drives three *interactive* tenants round
//! robin, each with 2 tickets in flight drawn from a seeded
//! rotate/mult/add order. Every result is taken; one in fifty is
//! compared limb for limb with the eager `Evaluator` and decrypted
//! against `f64`. A refused, failed or lost ticket is a failed
//! operation and has no latency.

use super::{Outcome, RunCfg};
use crate::gen::{self, stream, ServeOp};
use crate::metrics::Values;
use crate::oracle::{self, Tally};
use crate::probes;
use crate::span::{self, Span, Tracer};
use crate::stats;
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey};
use cross_sched::serve::{ServeConfig, ServeKeys, ServeStats};
use cross_sched::{serve_tenants, Completion, CtId, KeyRef, Server, Session, TenantId, TenantSpec};
use cross_tpu::TpuGeneration;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tail percentile. A 25 s run completes about ten thousand requests,
/// which supports p99 — but between runs of one binary p90, p95 and
/// p99 all move half as much again as the median, and past their bound
/// when the host is noisy, while p75 moves with the median (README,
/// "Spread"). The run prints the higher percentiles beside it.
const TAIL_P: f64 = 0.75;
/// `req_per_s` is the median completion rate of windows this long.
const RATE_WINDOW_S: f64 = 1.0;

const WORKERS: usize = 2;
const BURST_IN_FLIGHT: usize = 16;
const INTERACTIVE_IN_FLIGHT: usize = 2;
const INTERACTIVE_TENANTS: usize = 3;
/// One result in this many is checked against both oracles.
const CHECK_EVERY: u64 = 50;
/// Length of an interactive tenant's cyclic request order.
const ORDER_LEN: usize = 240;
/// Key-cache budget in relin-key equivalents (ten keys compete).
const KEY_BUDGET_KEYS: f64 = 4.0;
/// Seconds of serving done in set-up to build lazy plans.
const WARMUP_S: f64 = 0.25;

/// A served result decrypts within this of `f64` (README, "Oracles").
pub const ERR_BOUND: f64 = 2e-2;

struct Tenant {
    id: TenantId,
    kp: KeyPair,
    rot1: SwitchingKey,
    keys: ServeKeys,
    input: Ciphertext,
    /// Eager result and `f64` expectation per op kind, indexed like
    /// [`gen::serve_op_kinds`].
    eager: Vec<Ciphertext>,
    expected: Vec<Vec<f64>>,
}

struct State {
    ctx: CkksContext,
    tenants: Vec<Tenant>,
    /// Request order per interactive tenant.
    orders: Vec<Vec<ServeOp>>,
    kinds: Vec<ServeOp>,
    /// Eager single-thread milliseconds per op kind.
    eager_ms: Vec<f64>,
    key_budget_bytes: f64,
    /// Largest slot error of any eager reference against `f64`; served
    /// results equal the references limb for limb.
    eager_worst: f64,
    keygen_s: f64,
    encrypt_ms: f64,
    decrypt_ms: f64,
}

fn eager_op(ev: &Evaluator, t: &Tenant, keys2: Option<&SwitchingKey>, op: ServeOp) -> Ciphertext {
    match op {
        ServeOp::Rotate(1) => ev.rotate(&t.input, 1, &t.rot1),
        ServeOp::Rotate(s) => ev.rotate(&t.input, s, keys2.expect("interactive tenants hold it")),
        ServeOp::Mult => ev.mult(&t.input, &t.input, &t.kp.relin),
        ServeOp::Add => ev.add(&t.input, &t.input),
    }
}

fn expected_of(msg: &[f64], op: ServeOp) -> Vec<f64> {
    match op {
        ServeOp::Rotate(s) => oracle::rotate_left(msg, s),
        ServeOp::Mult => msg.iter().map(|v| v * v).collect(),
        ServeOp::Add => msg.iter().map(|v| v + v).collect(),
    }
}

fn setup(seed: u64) -> State {
    let params = CkksParams::new(1 << 12, 4, 2, 28);
    let ctx = CkksContext::new(params, gen::context_seed(seed));
    let slots = ctx.slot_count();
    let kinds = gen::serve_op_kinds();
    let ev = Evaluator::new(&ctx);

    let mut keygen_s = 0.0;
    let mut encrypt_ms = 0.0;
    let mut eager_worst = 0.0f64;
    let mut tenants = Vec::new();
    for id in 1..=(1 + INTERACTIVE_TENANTS) as TenantId {
        let burst = id == 1;
        let t0 = Instant::now();
        let kp = ctx.generate_keys();
        let rot1 = ctx.generate_rotation_key(&kp.secret, 1);
        // The burst tenant only rotates by one; it registers no other key.
        let rot2 = (!burst).then(|| ctx.generate_rotation_key(&kp.secret, 2));
        keygen_s += t0.elapsed().as_secs_f64();
        let mut keys = ServeKeys::new().with_rotation(1, rot1.clone());
        if let Some(rot2) = &rot2 {
            keys = keys
                .with_relin(kp.relin.clone())
                .with_rotation(2, rot2.clone());
        }
        let msg = gen::message(seed, stream::MESSAGE + id, slots, -0.5, 0.5);
        let t0 = Instant::now();
        let input = ctx.encrypt(&msg, &kp.public);
        encrypt_ms += t0.elapsed().as_secs_f64() * 1e3;
        let mut t = Tenant {
            id,
            kp,
            rot1,
            keys,
            input,
            eager: Vec::new(),
            expected: Vec::new(),
        };
        let my_kinds = if burst { &kinds[..1] } else { &kinds[..] };
        t.eager = my_kinds
            .iter()
            .map(|&op| eager_op(&ev, &t, rot2.as_ref(), op))
            .collect();
        t.expected = my_kinds.iter().map(|&op| expected_of(&msg, op)).collect();
        for (ct, want) in t.eager.iter().zip(&t.expected) {
            let err = oracle::max_abs_err(&ctx.decrypt(ct, &t.kp.secret), want);
            assert!(err <= ERR_BOUND, "eager reference is {err:e} from f64");
            eager_worst = eager_worst.max(err);
        }
        tenants.push(t);
    }

    // The eager cost of each op kind, for `sched.serve_efficiency`.
    let probe = &tenants[1];
    let rot2 = ctx.generate_rotation_key(&probe.kp.secret, 2);
    let eager_ms = kinds
        .iter()
        .map(|&op| {
            let ms: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(eager_op(&ev, probe, Some(&rot2), op));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            stats::median(&ms)
        })
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(ctx.decrypt(&tenants[0].input, &tenants[0].kp.secret));
    let decrypt_ms = t0.elapsed().as_secs_f64() * 1e3;

    let relin_bytes = tenants[1]
        .keys
        .key_bytes(KeyRef::Relin)
        .expect("relin registered");
    let state = State {
        orders: (0..INTERACTIVE_TENANTS)
            .map(|k| gen::interactive_ops(seed, 2 + k as u64, ORDER_LEN))
            .collect(),
        ctx,
        tenants,
        kinds,
        eager_ms,
        key_budget_bytes: KEY_BUDGET_KEYS * relin_bytes,
        eager_worst,
        keygen_s,
        encrypt_ms: encrypt_ms / (1 + INTERACTIVE_TENANTS) as f64,
        decrypt_ms,
    };
    let warm = serve(&state, WARMUP_S, false);
    assert_eq!(warm.tally.failed, 0, "warm-up request failed");
    state
}

/// One completed request as its client saw it.
#[derive(Clone, Copy)]
struct Sample {
    burst: bool,
    kind: usize,
    latency_ms: f64,
    /// When `wait` returned, in seconds since the clients started.
    done_s: f64,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    tally: Tally,
    worst: f64,
    spans: Vec<Span>,
}

/// One tenant as a client thread drives it.
struct Lane<'a> {
    tenant: &'a Tenant,
    session: Session,
    input: CtId,
    in_flight: usize,
    /// Cyclic op order as indices into the op kinds.
    order: Vec<usize>,
    cursor: usize,
    pending: VecDeque<(u64, usize, Instant, Completion)>,
}

impl<'a> Lane<'a> {
    /// Opens the tenant's session and stores its input.
    fn open(server: &Server, tenant: &'a Tenant, in_flight: usize, order: Vec<usize>) -> Self {
        let session = server.session(tenant.id);
        Lane {
            input: session.insert(tenant.input.clone()),
            tenant,
            session,
            in_flight,
            order,
            cursor: 0,
            pending: VecDeque::new(),
        }
    }
}

/// A client thread's closed loop over its lanes, round robin: top the
/// lane up to its in-flight count (until `deadline`), then collect the
/// lane's oldest ticket. Ends once every lane has drained.
fn client(
    mut lanes: Vec<Lane>,
    st: &State,
    (start, deadline): (Instant, Instant),
    mut tr: Tracer,
    thread: u64,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut issued = 0u64;
    let mut lane_idx = 0;
    while lanes.iter().any(|l| !l.pending.is_empty()) || Instant::now() < deadline {
        let n_lanes = lanes.len();
        let lane = &mut lanes[lane_idx % n_lanes];
        lane_idx += 1;
        let burst = lane.in_flight == BURST_IN_FLIGHT;
        let turn_id = thread << 32 | issued;
        tr.span("turn", turn_id, |tr| {
            while lane.pending.len() < lane.in_flight && Instant::now() < deadline {
                let kind = lane.order[lane.cursor % lane.order.len()];
                lane.cursor += 1;
                let id = thread << 32 | issued;
                issued += 1;
                let t0 = Instant::now();
                let ticket = tr.leaf("sched.submit", id, || match st.kinds[kind] {
                    ServeOp::Rotate(s) => lane.session.rotate(lane.input, s),
                    ServeOp::Mult => lane.session.mult(lane.input, lane.input),
                    ServeOp::Add => lane.session.add(lane.input, lane.input),
                });
                match ticket {
                    Ok(completion) => lane.pending.push_back((id, kind, t0, completion)),
                    Err(_) => out.tally.record(false),
                }
            }
            let Some((id, kind, t0, completion)) = lane.pending.pop_front() else {
                return;
            };
            let done = tr.leaf("sched.wait", id, || completion.wait());
            let t1 = Instant::now();
            let result = done
                .ok()
                .and_then(|d| tr.leaf("sched.take", id, || lane.session.take(d.id)));
            let Some(ct) = result else {
                out.tally.record(false);
                return;
            };
            tr.record("request", id, t0, t1);
            out.samples.push(Sample {
                burst,
                kind,
                latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                done_s: (t1 - start).as_secs_f64(),
            });
            let mut ok = true;
            if (out.samples.len() as u64).is_multiple_of(CHECK_EVERY) {
                let t = lane.tenant;
                let err =
                    oracle::max_abs_err(&st.ctx.decrypt(&ct, &t.kp.secret), &t.expected[kind]);
                out.worst = out.worst.max(err);
                ok = oracle::same_ciphertext(&ct, &t.eager[kind]) && err <= ERR_BOUND;
            }
            out.tally.record(ok);
        });
    }
    for lane in &lanes {
        lane.session.take(lane.input);
    }
    out.spans = tr.into_spans();
    out
}

/// One serving session: what the clients saw and what the loop counted.
struct Served {
    samples: Vec<Sample>,
    tally: Tally,
    worst: f64,
    spans: Vec<Span>,
    elapsed_s: f64,
    stats: ServeStats,
}

fn serve(st: &State, seconds: f64, trace: bool) -> Served {
    let specs: Vec<TenantSpec> = st
        .tenants
        .iter()
        .map(|t| TenantSpec::new(t.id, t.keys.clone()))
        .collect();
    let config = ServeConfig::new(TpuGeneration::V6e, 8)
        .with_workers(WORKERS)
        .with_optimize(true)
        .with_key_cache_bytes(st.key_budget_bytes);
    let kind_index = |op: ServeOp| st.kinds.iter().position(|&k| k == op).expect("known op");

    serve_tenants(&st.ctx, specs, &config, |server| {
        let burst = vec![Lane::open(
            server,
            &st.tenants[0],
            BURST_IN_FLIGHT,
            vec![kind_index(ServeOp::Rotate(1))],
        )];
        let interactive: Vec<Lane> = st.tenants[1..]
            .iter()
            .zip(&st.orders)
            .map(|(t, order)| {
                let order = order.iter().map(|&op| kind_index(op)).collect();
                Lane::open(server, t, INTERACTIVE_IN_FLIGHT, order)
            })
            .collect();

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let (a, b) = std::thread::scope(|s| {
            let span = (start, deadline);
            let a = s.spawn(move || client(burst, st, span, Tracer::new(start, trace, 1), 1));
            let b = s.spawn(move || client(interactive, st, span, Tracer::new(start, trace, 2), 2));
            (
                a.join().expect("burst client panicked"),
                b.join().expect("interactive client panicked"),
            )
        });
        let elapsed_s = start.elapsed().as_secs_f64();

        let mut tally = a.tally;
        tally.merge(b.tally);
        let stats = server.stats();
        Served {
            samples: [a.samples, b.samples].concat(),
            tally,
            worst: a.worst.max(b.worst),
            spans: span::merge(vec![a.spans, b.spans]),
            elapsed_s,
            stats,
        }
    })
}

/// Completions per second in each window of about [`RATE_WINDOW_S`]
/// of the `seconds` during which clients submitted, ascending.
/// Requests that completed later, while the lanes drained, are in no
/// window.
fn window_rates(samples: &[Sample], seconds: f64) -> Vec<f64> {
    let n = (seconds / RATE_WINDOW_S).round().max(1.0) as usize;
    let mut counts = vec![0u32; n];
    for s in samples {
        if let Some(count) = counts.get_mut((s.done_s / seconds * n as f64) as usize) {
            *count += 1;
        }
    }
    stats::sorted(
        counts
            .iter()
            .map(|&c| f64::from(c) * n as f64 / seconds)
            .collect(),
    )
}

fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    stats::sorted(
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_ms)
            .collect(),
    )
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (st, setup_s) = super::timed_setup(cfg.quick, || setup(cfg.seed));
    let mut values = Values::new();
    let mut notes = Vec::new();

    if !cfg.trace {
        let served = serve(&st, cfg.seconds, false);
        let all = latencies(&served.samples, |_| true);
        values.insert("setup_s", setup_s);
        let rates = window_rates(&served.samples, cfg.seconds);
        values.insert("req_per_s", stats::percentile(&rates, 0.5));
        values.insert("latency_p50_ms", stats::percentile(&all, 0.5));
        values.insert("latency_tail_ms", stats::percentile(&all, TAIL_P));
        values.insert("peak_rss_mb", crate::sysinfo::peak_rss_mb());
        notes.push(format!(
            "n = {} requests in {:.2} s ({:.1}/s overall); req_per_s is the median of {} windows \
             (slowest {:.0}, quartiles {:.0} and {:.0}, fastest {:.0})",
            all.len(),
            served.elapsed_s,
            all.len() as f64 / served.elapsed_s,
            rates.len(),
            rates[0],
            stats::percentile(&rates, 0.25),
            stats::percentile(&rates, 0.75),
            rates[rates.len() - 1],
        ));
        notes.push(super::tail_note(all.len(), TAIL_P));
        notes.push(format!(
            "latency in ms: p50 {:.1}, p75 {:.1}, p90 {:.1}, p95 {:.1}, p99 {:.1}",
            stats::percentile(&all, 0.50),
            stats::percentile(&all, 0.75),
            stats::percentile(&all, 0.90),
            stats::percentile(&all, 0.95),
            stats::percentile(&all, 0.99),
        ));
        notes.push(format!(
            "{} of {} requests failed; max |error| of checked results {:.3e} (bound {ERR_BOUND:e})",
            served.tally.failed, served.tally.attempted, served.worst
        ));
        return Outcome {
            tally: served.tally,
            values,
            notes,
        };
    }

    let quarter = cfg.seconds / 4.0;
    let untraced = serve(&st, quarter, false);
    let served = serve(&st, quarter, true);
    let mut tally = untraced.tally;
    tally.merge(served.tally);
    values.insert(
        "trace_overhead_pct",
        super::trace_overhead_pct(
            &latencies(&untraced.samples, |_| true),
            &latencies(&served.samples, |_| true),
        ),
    );

    let cts: Vec<Ciphertext> = st
        .tenants
        .iter()
        .map(|t| t.input.clone())
        .cycle()
        .take(probes::BATCH_PROBE)
        .collect();
    probes::run(
        &probes::Shape {
            ctx: &st.ctx,
            relin: &st.tenants[1].kp.relin,
            rot: &st.tenants[1].rot1,
            step: 1,
            cts: &cts,
            batch: probes::BATCH_PROBE,
        },
        &mut values,
    );

    let spans = &served.spans;
    values.insert(
        "sched.submit_us",
        stats::median(&span::durations_ms(spans, "sched.submit")) * 1e3,
    );
    values.insert(
        "sched.wait_ms",
        stats::median(&span::durations_ms(spans, "sched.wait")),
    );
    values.insert(
        "sched.take_us",
        stats::median(&span::durations_ms(spans, "sched.take")) * 1e3,
    );
    let burst = latencies(&served.samples, |s| s.burst);
    let interactive = latencies(&served.samples, |s| !s.burst);
    values.insert("sched.burst_p50_ms", stats::percentile(&burst, 0.5));
    values.insert(
        "sched.interactive_p50_ms",
        stats::percentile(&interactive, 0.5),
    );
    values.insert(
        "sched.interactive_p99_ms",
        stats::percentile(&interactive, 0.99),
    );
    // The same requests run eagerly on one thread, over workers × the
    // time the loop took: 1 would be perfect scaling of eager speed.
    let eager_s: f64 = served
        .samples
        .iter()
        .map(|s| st.eager_ms[s.kind])
        .sum::<f64>()
        / 1e3;
    values.insert(
        "sched.serve_efficiency",
        eager_s / (WORKERS as f64 * served.elapsed_s),
    );

    let s = served.stats;
    values.insert("sched.dispatches", s.dispatches as f64);
    values.insert("sched.occupancy", s.occupancy());
    values.insert(
        "sched.fused_ops_share",
        s.fused_ops as f64 / s.ops.max(1) as f64,
    );
    values.insert(
        "sched.key_hit_rate",
        s.key_hits as f64 / (s.key_hits + s.key_misses).max(1) as f64,
    );
    values.insert("sched.key_evictions", s.key_evictions as f64);
    values.insert("sched.ct_evictions", s.ct_evictions as f64);
    values.insert("sched.modeled_wall_s", s.modeled_wall_s);
    values.insert("ckks.keygen_s", st.keygen_s);
    values.insert("ckks.encrypt_ms", st.encrypt_ms);
    values.insert("ckks.decrypt_ms", st.decrypt_ms);
    values.insert("ckks.max_abs_err", st.eager_worst);

    notes.push(format!(
        "traced phase: {} burst + {} interactive requests in {:.2} s; interactive p99 has {} samples beyond it",
        burst.len(),
        interactive.len(),
        served.elapsed_s,
        stats::samples_beyond(interactive.len().max(1), 0.99)
    ));
    super::write_trace("serve_tenants", cfg.seed, spans, &mut notes);
    Outcome {
        tally,
        values,
        notes,
    }
}
