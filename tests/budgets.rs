//! Allocation budgets: what one unit of work allocates, counted
//! exactly and held to a ceiling.
//!
//! A counting `#[global_allocator]` (std only) wraps the system
//! allocator. A served request crosses three threads — the client, the
//! dispatcher and the worker — so the count is process-wide, and this
//! binary holds one test so that nothing else allocates beside it.
//! `realloc` counts as one allocation of its new size. The eager
//! operators run on one thread marked with `par::mark_worker`, so every
//! kernel runs inline on it.
//!
//! Each ceiling is the value measured when it was set. A change that
//! allocates less lowers it; one that must allocate more says why.
//! Run with `--nocapture` to see the table.

use cross::ckks::{CkksContext, CkksParams, Evaluator, ParamSet};
use cross::math::par;
use cross::sched::serve::{ServeConfig, ServeKeys};
use cross::sched::session::{serve_tenants, TenantSpec};
use cross::sched::{execute_schedule, CtId, HeOpKind, Recorder, ReplayKeys, Scheduler};
use cross::tpu::TpuGeneration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes)` so far, process-wide.
fn counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Requests served before counting, so lazily built plans and tables
/// are in place.
const WARM: u64 = 8;
/// Requests counted per row.
const ROUNDS: u64 = 32;

/// Average `(allocations, bytes)` of one call of `unit` over `rounds`
/// calls, after `warm` uncounted ones.
fn per_unit(warm: u64, rounds: u64, mut unit: impl FnMut()) -> (f64, f64) {
    for _ in 0..warm {
        unit();
    }
    let (a0, b0) = counts();
    for _ in 0..rounds {
        unit();
    }
    let (a1, b1) = counts();
    let n = rounds as f64;
    ((a1 - a0) as f64 / n, (b1 - b0) as f64 / n)
}

/// One budget row: what a unit of work may allocate, on average.
struct Row {
    name: &'static str,
    allocs: f64,
    bytes: f64,
    max_allocs: f64,
    max_bytes: f64,
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
    serve_tenants(&ctx, vec![TenantSpec::new(1, keys)], &config, |server| {
        let s = server.session(1);
        let x = s.insert(ct);
        let serve = |kind: HeOpKind, operands: &[CtId]| {
            let done = s.submit(kind, operands).unwrap().wait().unwrap();
            drop(s.take(done.id).expect("result stored"));
        };
        let per_request =
            |kind: HeOpKind, operands: &[CtId]| per_unit(WARM, ROUNDS, || serve(kind, operands));
        let (rot_allocs, rot_bytes) = per_request(HeOpKind::Rotate { steps: 1 }, &[x]);
        let (mult_allocs, mult_bytes) = per_request(HeOpKind::Mult, &[x, x]);
        vec![
            Row {
                name: "served rotate",
                allocs: rot_allocs,
                bytes: rot_bytes,
                max_allocs: 80.0,
                max_bytes: 276_048.0,
            },
            Row {
                name: "served mult",
                allocs: mult_allocs,
                bytes: mult_bytes,
                max_allocs: 111.0,
                max_bytes: 473_336.0,
            },
        ]
    })
}

/// One eager operator call at Set B (`N = 2^13`, 8 limbs, one
/// ciphertext 1 MiB) on a top-level ciphertext, after one warm call
/// builds the plans and permutation tables it reads. The fan-out is
/// `hoisted_rotations` over steps 1–8. The executed group is
/// `execute_schedule` over one fused group of eight `rotate(·, 1)` of
/// distinct inputs, the input copies it returns included.
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
    let schedule = Scheduler::new(TpuGeneration::V6e, 8).schedule(&group, &params);
    assert_eq!(schedule.batches.len(), 1, "eight rotations form one group");
    let replay_keys = ReplayKeys::new().with_rotation(1, &rot[0].1);
    std::thread::scope(|s| {
        s.spawn(|| {
            par::mark_worker();
            let ct = ctx.encrypt(&msg, &kp.public);
            let inputs: Vec<_> = (0..8)
                .map(|i| ctx.encrypt(&vec![0.1 * i as f64; ctx.slot_count()], &kp.public))
                .collect();
            let row = |name, max_allocs, max_bytes, unit: &dyn Fn()| {
                let (allocs, bytes) = per_unit(1, 2, unit);
                Row {
                    name,
                    allocs,
                    bytes,
                    max_allocs,
                    max_bytes,
                }
            };
            vec![
                row("encrypt", 91.0, 5_114_304.0, &|| {
                    drop(ctx.encrypt(&msg, &kp.public))
                }),
                row("add", 19.0, 1_048_968.0, &|| drop(ev.add(&ct, &ct))),
                row("mult", 152.0, 7_817_928.0, &|| {
                    drop(ev.mult(&ct, &ct, &kp.relin))
                }),
                row("rescale", 19.0, 1_048_920.0, &|| drop(ev.rescale(&ct))),
                row("rotate", 97.0, 4_671_088.0, &|| {
                    drop(ev.rotate(&ct, 1, &rot[0].1))
                }),
                row("hoisted 8 rot", 441.0, 22_158_880.0, &|| {
                    drop(ev.hoisted_rotations(&ct, &fan_out))
                }),
                row("executed 8 rot", 922.0, 45_764_224.0, &|| {
                    drop(execute_schedule(
                        &group,
                        &schedule,
                        &ev,
                        &replay_keys,
                        &inputs,
                    ))
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
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>12}",
        "row", "allocs", "bytes", "max", "max bytes"
    );
    for r in &rows {
        println!(
            "{:<16} {:>10.2} {:>12.1} {:>10} {:>12}",
            r.name, r.allocs, r.bytes, r.max_allocs, r.max_bytes
        );
    }
    for r in &rows {
        assert!(
            r.allocs <= r.max_allocs && r.bytes <= r.max_bytes,
            "{}: {:.2} allocations, {:.1} bytes over the ceiling ({}, {})",
            r.name,
            r.allocs,
            r.bytes,
            r.max_allocs,
            r.max_bytes
        );
    }
}
