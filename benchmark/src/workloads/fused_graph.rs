//! `fused_graph`: record → optimise → schedule → execute through the
//! batched `Evaluator` at `N = 2^10`, 17 limbs, dnum 3.
//!
//! Eight inputs, each fed to a Low-tier `sign_chain` and to a fan-out
//! of eight rotations (432+ recorded ops). The compile stages — record,
//! `PassManager::standard`, `Scheduler::schedule` — are redone and
//! timed in every iteration, so one iteration is what a caller pays to
//! go from a program to its results. Every output is compared limb for
//! limb with the eager `Evaluator` run once in set-up, and decrypted
//! and compared with `f64` (`sign_ref`, slot rotation).

use super::{Outcome, RunCfg};
use crate::gen::{self, stream};
use crate::metrics::Values;
use crate::oracle::{self, Tally};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats;
use cross_ckks::costs::ExecMode;
use cross_ckks::ext::sgn::{self, EagerSgnBackend, SgnTier};
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey};
use cross_sched::{
    execute_schedule, replay, HeOpKind, NodeId, OpGraph, PassManager, RecordingSgnBackend,
    ReplayKeys, Schedule, Scheduler, SgnRecording,
};
use cross_tpu::TpuGeneration;
use std::time::Instant;

/// Tail percentile: a 20 s run makes about 35 iterations, which
/// supports nothing above the median.
const TAIL_P: f64 = 0.50;

const TIER: SgnTier = SgnTier::Low;
const INPUTS: usize = 8;
const FAN_OUT: usize = 8;

/// The modeled pod the graph is compiled for.
const GEN: TpuGeneration = TpuGeneration::V6e;
const CORES: u32 = 8;

/// A sign output may differ from `sign_ref` by scheme noise only; the
/// tier's own approximation error is in `sign_ref` too. Measured
/// errors sit near 1e-4 (README, "Oracles").
pub const SIGN_ERR_BOUND: f64 = 5e-3;
/// A rotated input against the rotated message.
pub const ROTATE_ERR_BOUND: f64 = 5e-3;

struct State {
    ctx: CkksContext,
    kp: KeyPair,
    rot_keys: Vec<SwitchingKey>,
    inputs: Vec<Ciphertext>,
    /// Per input: the eager sign, then the eager rotations.
    eager: Vec<Vec<Ciphertext>>,
    /// Per input: `sign_ref` of the message, then its rotations.
    expected: Vec<Vec<Vec<f64>>>,
    keygen_s: f64,
    encrypt_ms: f64,
    decrypt_ms: f64,
    /// Largest slot error of the warm-up: `[sign, rotate]`.
    warm_worst: [f64; 2],
}

/// What recording yields: the graph, its constants, and per input the
/// nodes whose values are the outputs.
struct Recorded {
    rec: SgnRecording,
    outputs: Vec<Vec<NodeId>>,
}

/// What one iteration compiled, kept for the exact counters.
struct Compiled {
    ops_in: usize,
    graph: OpGraph,
    schedule: Schedule,
}

fn record(st: &State) -> Recorded {
    let mut bk = RecordingSgnBackend::new(st.ctx.q_moduli());
    let mut outputs = Vec::with_capacity(INPUTS);
    let mut sources = Vec::with_capacity(INPUTS);
    for ct in &st.inputs {
        let x = bk.input(ct.level, ct.scale);
        outputs.push(vec![sgn::sign_chain(&mut bk, &x, TIER).vct.node]);
        sources.push(x.vct);
    }
    let mut rec = bk.finish();
    for (x, outs) in sources.iter().zip(&mut outputs) {
        for steps in 1..=FAN_OUT {
            outs.push(
                rec.graph
                    .add_op(HeOpKind::Rotate { steps }, x.level, 1, &[x.node]),
            );
        }
    }
    Recorded { rec, outputs }
}

fn replay_keys<'a>(st: &'a State, rec: &SgnRecording) -> ReplayKeys<'a> {
    let mut keys = rec.register_consts(ReplayKeys::new().with_relin(&st.kp.relin));
    for (i, key) in st.rot_keys.iter().enumerate() {
        keys = keys.with_rotation(i + 1, key);
    }
    keys
}

fn setup(seed: u64) -> State {
    let params = CkksParams::new(1 << 10, 17, 3, 28);
    let ctx = CkksContext::new(params, gen::context_seed(seed));
    let slots = ctx.slot_count();

    let t0 = Instant::now();
    let kp = ctx.generate_keys();
    let rot_keys: Vec<SwitchingKey> = (1..=FAN_OUT)
        .map(|s| ctx.generate_rotation_key(&kp.secret, s))
        .collect();
    let keygen_s = t0.elapsed().as_secs_f64();

    // Away from 0, where the sign chain is precise.
    let messages: Vec<Vec<f64>> = (0..INPUTS)
        .map(|k| gen::signed_message(seed, stream::MESSAGE + k as u64, slots, 0.1, 0.9))
        .collect();
    let t0 = Instant::now();
    let inputs: Vec<Ciphertext> = messages
        .iter()
        .map(|x| ctx.encrypt(x, &kp.public))
        .collect();
    let encrypt_ms = t0.elapsed().as_secs_f64() * 1e3 / INPUTS as f64;

    let ev = Evaluator::new(&ctx);
    let eager: Vec<Vec<Ciphertext>> = inputs
        .iter()
        .map(|ct| {
            let mut bk = EagerSgnBackend::new(&ev, &kp.relin);
            let mut outs = vec![sgn::sign_chain(&mut bk, ct, TIER)];
            outs.extend(
                rot_keys
                    .iter()
                    .enumerate()
                    .map(|(i, key)| ev.rotate(ct, i + 1, key)),
            );
            outs
        })
        .collect();
    let expected = messages
        .iter()
        .map(|x| {
            let mut outs = vec![x
                .iter()
                .map(|&v| sgn::sign_ref(TIER, v))
                .collect::<Vec<f64>>()];
            outs.extend((1..=FAN_OUT).map(|s| oracle::rotate_left(x, s)));
            outs
        })
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(ctx.decrypt(&inputs[0], &kp.secret));
    let decrypt_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut state = State {
        ctx,
        kp,
        rot_keys,
        inputs,
        eager,
        expected,
        keygen_s,
        encrypt_ms,
        decrypt_ms,
        warm_worst: [0.0; 2],
    };
    let (mut warm, mut worst) = (Tally::default(), [0.0; 2]);
    for i in 0..2 {
        iteration(&state, &mut Tracer::off(), i, &mut warm, &mut worst);
    }
    assert_eq!(warm.failed, 0, "warm-up iteration failed its oracle");
    state.warm_worst = worst;
    state
}

/// One iteration: compile and execute (timed), then check every
/// output (untimed).
fn iteration(
    st: &State,
    tr: &mut Tracer,
    id: u64,
    tally: &mut Tally,
    worst: &mut [f64; 2],
) -> (f64, Compiled) {
    let ev = Evaluator::new(&st.ctx);
    let params = st.ctx.params();

    let t0 = Instant::now();
    let (recorded, rewrite, schedule, results) = tr.span("iter", id, |tr| {
        let recorded = tr.leaf("sched.record", id, || record(st));
        let rewrite = tr.leaf("sched.opt", id, || {
            PassManager::standard(GEN, CORES, ExecMode::FusedBatch).run(&recorded.rec.graph, params)
        });
        let schedule = tr.leaf("sched.schedule", id, || {
            Scheduler::new(GEN, CORES).schedule(&rewrite.graph, params)
        });
        let results = tr.leaf("sched.exec", id, || {
            let keys = replay_keys(st, &recorded.rec);
            execute_schedule(&rewrite.graph, &schedule, &ev, &keys, &st.inputs)
        });
        (recorded, rewrite, schedule, results)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    for (k, outs) in recorded.outputs.iter().enumerate() {
        for (j, &node) in outs.iter().enumerate() {
            let Some(got) = results[rewrite.remap[node]].as_ref() else {
                tally.record(false);
                continue;
            };
            tally.record(oracle::same_ciphertext(got, &st.eager[k][j]));
            let err = oracle::max_abs_err(&st.ctx.decrypt(got, &st.kp.secret), &st.expected[k][j]);
            let (class, bound) = if j == 0 {
                (0, SIGN_ERR_BOUND)
            } else {
                (1, ROTATE_ERR_BOUND)
            };
            worst[class] = worst[class].max(err);
            tally.record(err <= bound);
        }
    }
    let compiled = Compiled {
        ops_in: recorded.rec.graph.op_count(),
        graph: rewrite.graph,
        schedule,
    };
    (ms, compiled)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (st, setup_s) = super::timed_setup(cfg.quick, || setup(cfg.seed));
    let mut tally = Tally::default();
    let mut worst = st.warm_worst;
    let mut values = Values::new();
    let mut notes = Vec::new();

    if !cfg.trace {
        let iter_ms = super::closed_loop(cfg.seconds, |i| {
            iteration(&st, &mut Tracer::off(), i, &mut tally, &mut worst).0
        });
        super::single_caller_values(&mut values, &mut notes, setup_s, &iter_ms, TAIL_P);
        notes.push(format!(
            "max |error| against f64: sign {:.3e} (bound {SIGN_ERR_BOUND:e}), rotate {:.3e} (bound {ROTATE_ERR_BOUND:e})",
            worst[0], worst[1]
        ));
        return Outcome {
            tally,
            values,
            notes,
        };
    }

    let mut last = None;
    let (spans, overhead) = super::traced_phases(cfg.seconds, |tr, i| {
        let (ms, compiled) = iteration(&st, tr, i, &mut tally, &mut worst);
        last = Some(compiled);
        ms
    });
    let compiled = last.expect("at least one iteration ran");
    values.insert("trace_overhead_pct", overhead);

    probes::run(
        &probes::Shape {
            ctx: &st.ctx,
            relin: &st.kp.relin,
            rot: &st.rot_keys[0],
            step: 1,
            cts: &st.inputs,
            batch: INPUTS,
        },
        &mut values,
    );

    for (metric, name) in [
        ("sched.record_ms", "sched.record"),
        ("sched.opt_ms", "sched.opt"),
        ("sched.schedule_ms", "sched.schedule"),
        ("sched.exec_ms", "sched.exec"),
    ] {
        values.insert(metric, stats::median(&span::durations_ms(&spans, name)));
    }
    values.insert(
        "sched.stage_residual_pct",
        super::residual_pct(&spans, "iter"),
    );

    // The same graph op by op through the eager evaluator.
    let recorded = record(&st);
    let keys = replay_keys(&st, &recorded.rec);
    let ev = Evaluator::new(&st.ctx);
    let replay_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(replay(&compiled.graph, &ev, &keys, &st.inputs));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let replay_ms = stats::median(&replay_ms);
    values.insert("sched.replay_ms", replay_ms);
    // Base: sched.replay_ms.
    values.insert(
        "sched.fused_over_replay",
        values["sched.exec_ms"] / replay_ms,
    );

    let batches = compiled.schedule.batches.len();
    values.insert("sched.ops_in", compiled.ops_in as f64);
    values.insert("sched.ops_out", compiled.graph.op_count() as f64);
    values.insert("sched.batches", batches as f64);
    values.insert(
        "sched.occupancy",
        compiled.schedule.op_count() as f64 / batches as f64,
    );
    values.insert("ckks.keygen_s", st.keygen_s);
    values.insert("ckks.encrypt_ms", st.encrypt_ms);
    values.insert("ckks.decrypt_ms", st.decrypt_ms);
    values.insert("ckks.max_abs_err", worst[0].max(worst[1]));

    let iters = spans.iter().filter(|s| s.name == "iter").count();
    notes.push(format!(
        "{iters} traced iterations; {} ops recorded, {} after the passes, {batches} batches",
        compiled.ops_in,
        compiled.graph.op_count()
    ));
    super::write_trace("fused_graph", cfg.seed, &spans, &mut notes);
    Outcome {
        tally,
        values,
        notes,
    }
}
