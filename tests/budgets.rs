//! Allocation budgets: what one unit of work asks of the allocator,
//! counted exactly and held to a ceiling.
//!
//! A counting `#[global_allocator]` (std only) wraps the system
//! allocator. A served request crosses three threads — the client, the
//! dispatcher and the worker — so the count is process-wide, and this
//! binary holds one test so that nothing else allocates beside it.
//! `realloc` counts as one allocation of its new size. The eager
//! operators run on one thread marked with `par::mark_worker`, so every
//! kernel runs inline on it.
//!
//! Limbs are recycled through their context's limb pool, so the rows
//! count allocator traffic — pool misses — not the limbs an operator
//! uses. Four columns per row, each an average over the counted calls
//! but the third, a maximum:
//! - allocations;
//! - bytes allocated;
//! - peak live: the high-water of live heap bytes within one call,
//!   above what was live when it started;
//! - limb-size allocations: those of at least one limb, `N·8` B.
//!
//! Each ceiling is the value measured when it was set. A change that
//! allocates less lowers it; one that must allocate more says why.
//! Run with `--nocapture` to see the table.

use cross::ckks::{BatchedCiphertext, CkksContext, CkksParams, Evaluator, ParamSet};
use cross::math::par;
use cross::sched::serve::{ServeConfig, ServeKeys};
use cross::sched::session::{serve_tenants, TenantSpec};
use cross::sched::{execute_schedule, CtId, HeOpKind, Recorder, ReplayKeys, Scheduler};
use cross::tpu::TpuGeneration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Heap bytes live now, and their high-water since the last reset.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least `LIMB_BYTES`, the limb size of the rows
/// being counted.
static LIMB_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIMB_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    if bytes >= LIMB_BYTES.load(Relaxed) {
        LIMB_ALLOCS.fetch_add(1, Relaxed);
    }
}

fn live_add(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn live_sub(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live_add(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live_add(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live_add(new_size);
        live_sub(layout.size());
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_sub(layout.size());
        // SAFETY: the caller's guarantees for `dealloc` are passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes, limb-size allocations)` so far, process-wide.
fn counts() -> (u64, u64, u64) {
    (
        ALLOCS.load(Relaxed),
        BYTES.load(Relaxed),
        LIMB_ALLOCS.load(Relaxed),
    )
}

/// Requests served before counting, so lazily built plans and tables
/// are in place.
const WARM: u64 = 8;
/// Requests counted per row.
const ROUNDS: u64 = 32;

/// What `rounds` calls of `unit` ask of the allocator, after `warm`
/// uncounted ones.
fn per_unit(warm: u64, rounds: u64, mut unit: impl FnMut()) -> Counted {
    for _ in 0..warm {
        unit();
    }
    let (a0, b0, l0) = counts();
    let mut peak = 0;
    for _ in 0..rounds {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        unit();
        peak = peak.max(PEAK.load(Relaxed).saturating_sub(base));
    }
    let (a1, b1, l1) = counts();
    let n = rounds as f64;
    Counted {
        allocs: (a1 - a0) as f64 / n,
        bytes: (b1 - b0) as f64 / n,
        peak_live: peak as f64,
        limb_allocs: (l1 - l0) as f64 / n,
    }
}

/// What a unit of work asked of the allocator: averages per call, but
/// `peak_live`, the largest of the calls.
#[derive(Clone, Copy)]
struct Counted {
    allocs: f64,
    bytes: f64,
    peak_live: f64,
    limb_allocs: f64,
}

/// One budget row: what a unit of work did, against its ceilings in
/// the same order.
struct Row {
    name: &'static str,
    got: Counted,
    max: [f64; 4],
}

impl Row {
    fn new(name: &'static str, got: Counted, max: [f64; 4]) -> Self {
        Self { name, got, max }
    }

    fn got(&self) -> [f64; 4] {
        let c = self.got;
        [c.allocs, c.bytes, c.peak_live, c.limb_allocs]
    }
}

/// One served request, end to end: one worker, a zero batch window and
/// one closed-loop client at toy parameters (`N = 2^10`, 4 limbs, one
/// ciphertext 64 KiB). The client submits, waits, and takes the result
/// out of the store; the operand stays stored.
fn served_request_rows() -> Vec<Row> {
    let ctx = CkksContext::new(CkksParams::toy(), 11);
    let kp = ctx.generate_keys();
    let rot = ctx.generate_rotation_key(&kp.secret, 1);
    let keys = ServeKeys::new()
        .with_relin(kp.relin.clone())
        .with_rotation(1, rot);
    let config = ServeConfig::new(TpuGeneration::V6e, 4)
        .with_workers(1)
        .with_batch_window(Duration::ZERO);
    let ct = ctx.encrypt(&vec![0.25; ctx.slot_count()], &kp.public);
    LIMB_BYTES.store(ctx.params().n * 8, Relaxed);
    serve_tenants(&ctx, vec![TenantSpec::new(1, keys)], &config, |server| {
        let s = server.session(1);
        let x = s.insert(ct);
        let serve = |kind: HeOpKind, operands: &[CtId]| {
            let done = s.submit(kind, operands).unwrap().wait().unwrap();
            drop(s.take(done.id).expect("result stored"));
        };
        let per_request =
            |kind: HeOpKind, operands: &[CtId]| per_unit(WARM, ROUNDS, || serve(kind, operands));
        let rot = per_request(HeOpKind::Rotate { steps: 1 }, &[x]);
        let mult = per_request(HeOpKind::Mult, &[x, x]);
        vec![
            Row::new("served rotate", rot, [47.0, 13_896.0, 3_832.0, 0.0]),
            Row::new("served mult", mult, [52.0, 14_472.0, 4_248.0, 0.0]),
        ]
    })
}

/// One eager operator call at Set B (`N = 2^13`, 8 limbs, one
/// ciphertext 1 MiB) on a top-level ciphertext, after one warm call
/// builds the plans and permutation tables it reads. The fan-out is
/// `hoisted_rotations` over steps 1–8. The executed group is
/// `execute_schedule` over one fused group of eight `rotate(·, 1)` of
/// distinct inputs, the input copies it returns included; the executed
/// fan-out is `execute_schedule` over one input rotated by steps 1–8,
/// each rotation its own group. The run decomposes that input once and
/// holds the decomposition until the eighth group has read it, so the
/// fan-out's peak live bytes sit above the one-rotation-at-a-time
/// figure (8 280 B) by the held decomposition's limb lists and its
/// table entry (its limbs come from the pool). The batch row is
/// `mult_batch` over those eight inputs, packed once outside the count:
/// eight eager `mult`s and the list that holds their results, so its
/// allocations are eight `mult` rows' and one more.
/// The last row is a warm `mult` and `rotate` back to back, which must
/// draw every limb from the pool.
fn eager_operator_rows() -> Vec<Row> {
    let ctx = CkksContext::new(ParamSet::B.params(), 12);
    let kp = ctx.generate_keys();
    let rot: Vec<_> = (1..=8)
        .map(|s| (s, ctx.generate_rotation_key(&kp.secret, s)))
        .collect();
    let fan_out: Vec<_> = rot.iter().map(|(s, k)| (*s, k)).collect();
    let msg = vec![0.25; ctx.slot_count()];
    let ev = Evaluator::new(&ctx);
    let params = *ctx.params();
    let mut r = Recorder::new();
    for _ in 0..8 {
        let x = r.input(params.limbs);
        r.rotate(x, 1);
    }
    let group = r.finish();
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let schedule = scheduler.schedule(&group, &params);
    assert_eq!(schedule.batches.len(), 1, "eight rotations form one group");
    let mut r = Recorder::new();
    let x = r.input(params.limbs);
    for steps in 1..=8 {
        r.rotate(x, steps);
    }
    let fan_out_graph = r.finish();
    let fan_out_schedule = scheduler.schedule(&fan_out_graph, &params);
    assert_eq!(fan_out_schedule.batches.len(), 8, "one group per rotation");
    let replay_keys = rot
        .iter()
        .fold(ReplayKeys::new(), |keys, (s, k)| keys.with_rotation(*s, k));
    LIMB_BYTES.store(params.n * 8, Relaxed);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let ct = ctx.encrypt(&msg, &kp.public);
            let inputs: Vec<_> = (0..8)
                .map(|i| ctx.encrypt(&vec![0.1 * i as f64; ctx.slot_count()], &kp.public))
                .collect();
            let packed = BatchedCiphertext::from_ciphertexts(&inputs);
            let row = |name, max, unit: &dyn Fn()| Row::new(name, per_unit(1, 2, unit), max);
            vec![
                row("encrypt", [19.0, 395_712.0, 197_952.0, 6.0], &|| {
                    drop(ctx.encrypt(&msg, &kp.public))
                }),
                row("add", [2.0, 384.0, 384.0, 0.0], &|| drop(ev.add(&ct, &ct))),
                row("mult", [30.0, 18_936.0, 5_160.0, 0.0], &|| {
                    drop(ev.mult(&ct, &ct, &kp.relin))
                }),
                row("rescale", [2.0, 336.0, 336.0, 0.0], &|| {
                    drop(ev.rescale(&ct))
                }),
                row("rotate", [25.0, 18_024.0, 4_584.0, 0.0], &|| {
                    drop(ev.rotate(&ct, 1, &rot[0].1))
                }),
                row("hoisted 8 rot", [96.0, 73_184.0, 8_168.0, 0.0], &|| {
                    drop(ev.hoisted_rotations(&ct, &fan_out))
                }),
                row("executed 8 rot", [218.0, 150_016.0, 10_024.0, 0.0], &|| {
                    drop(execute_schedule(
                        &group,
                        &schedule,
                        &ev,
                        &replay_keys,
                        &inputs,
                    ))
                }),
                row("executed fan-out", [103.0, 74_752.0, 9_352.0, 0.0], &|| {
                    drop(execute_schedule(
                        &fan_out_graph,
                        &fan_out_schedule,
                        &ev,
                        &replay_keys,
                        std::slice::from_ref(&ct),
                    ))
                }),
                row("mult batch 8", [241.0, 152_384.0, 8_408.0, 0.0], &|| {
                    drop(ev.mult_batch(&packed, &packed, &kp.relin))
                }),
                row("mult + rotate", [55.0, 36_960.0, 5_160.0, 0.0], &|| {
                    drop(ev.mult(&ct, &ct, &kp.relin));
                    drop(ev.rotate(&ct, 1, &rot[0].1));
                }),
            ]
        })
        .join()
        .expect("the counting thread panicked")
    })
}

#[test]
fn allocation_budgets() {
    let mut rows = eager_operator_rows();
    rows.extend(served_request_rows());
    const COLUMNS: [&str; 4] = ["allocs", "bytes", "peak live", "limb allocs"];
    println!(
        "{:<16} {:>8} {:>12} {:>10} {:>11}   (ceilings)",
        "row", COLUMNS[0], COLUMNS[1], COLUMNS[2], COLUMNS[3]
    );
    for r in &rows {
        let [a, b, p, l] = r.got();
        let [ma, mb, mp, ml] = r.max;
        println!(
            "{:<16} {a:>8.2} {b:>12.1} {p:>10} {l:>11.2}   ({ma}, {mb}, {mp}, {ml})",
            r.name
        );
    }
    for r in &rows {
        for ((got, max), column) in r.got().into_iter().zip(r.max).zip(COLUMNS) {
            assert!(
                got <= max,
                "{}: {column} {got:.2} over the ceiling {max}",
                r.name
            );
        }
    }
}
