//! A registry-free worker pool for embarrassingly parallel limb, digit
//! and batch loops (ROADMAP "Parallel NTT").
//!
//! The MAT 3-step plan, the RNS limb loops and the key-switch kernels
//! are data-parallel with no shared mutable state; `rayon` would be the
//! natural tool but the build environment has no registry access, so
//! this module provides the primitives the stack needs on one parked
//! pool of plain threads:
//!
//! * [`par_for_each_sized`] — run a closure over every element of a
//!   mutable slice, on as many workers as `work` pays for
//!   ([`par_for_each_mut`]: on every worker);
//! * [`join`] — run two closures, one on a helper, when `work` pays
//!   for it.
//!
//! The pool holds [`parallelism`]` − 1` helper threads, started on the
//! first fan-out and parked on a condvar between jobs. The caller takes
//! part: it and any helper that has woken take item blocks from one
//! atomic cursor, so a descheduled helper delays at most the block it
//! holds. Parallelism is one level deep: a pool helper, a thread that
//! called [`mark_worker`], and a caller that finds the pool busy all
//! run the loop inline. A panic in any block reaches the caller after
//! every block has finished; the pool stays usable.
//!
//! Every path falls back to the serial loop when a single worker
//! suffices, so results are bit-identical either way (each item is
//! touched by exactly one closure invocation, and closures are
//! independent).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Minimum work *per worker* before a limb or batch loop fans out, in
/// residue operations: one per residue an element-wise kernel touches
/// or per multiply-accumulate, `log₂ N` per residue of a transform.
/// An element-wise operation costs ≈ 1 ns on the host, and so does a
/// transform's in 64-bit words; a transform's in 32-bit lanes, which
/// every parameter set's primes take (DESIGN.md §10), costs ≈ 0.5 ns.
/// That is 65–130 µs of arithmetic per worker, against ≈ 15 µs for a
/// parked helper to wake and join the job. Measured on the 2-vCPU
/// benchmark host (DESIGN.md §4): at this size one Set B rotation's
/// key inner
/// product (≈ 0.5 M MACs) and a lone Set B polynomial's 8 NTTs fan
/// out and read faster, while a 65 536-residue element-wise pass and
/// every toy-parameter operator stay serial. Results are bit-identical
/// either way.
pub const MIN_PAR_WORK: usize = 1 << 17;

/// Number of worker threads to use (`available_parallelism`, min 1),
/// read once: the query costs a syscall and a cgroup lookup, too much
/// to pay on every kernel call.
pub fn parallelism() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Workers worth using for `work` residue operations: one per
/// [`MIN_PAR_WORK`] of it, at most [`parallelism`] — so a wider host
/// never uses fewer workers than a narrower one would — and at least
/// the calling thread.
pub(crate) fn workers_for(work: usize) -> usize {
    (work / MIN_PAR_WORK).clamp(1, parallelism())
}

thread_local! {
    /// Set on pool helpers and on threads that called [`mark_worker`]:
    /// every `par` entry point runs inline here.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as one of several workers that already
/// share the host's cores: from now on every `par` entry point called
/// on it runs its loop inline instead of fanning out. A serving loop
/// with more than one worker calls this on each, so a dispatch keeps
/// its one-thread shape instead of oversubscribing the cores.
pub fn mark_worker() {
    INLINE.with(|inline| inline.set(true));
}

/// Workers a fan-out of `work` gets on this thread: 1 on a marked
/// thread or a pool helper.
fn workers_here(work: usize) -> usize {
    if INLINE.with(Cell::get) {
        1
    } else {
        workers_for(work)
    }
}

/// Runs `f(i, &mut items[i])` for every element on every
/// [`parallelism`] worker.
///
/// `f` must be independent per item (no cross-item ordering is
/// guaranteed). With one worker or one item this degrades to the plain
/// serial loop.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_sized(items, usize::MAX, f);
}

/// [`par_for_each_mut`] on the `workers_for` a loop of `work` residue
/// operations in total pays for — the one gate every limb, digit and
/// batch fan-out in the stack goes through.
#[inline]
pub fn par_for_each_sized<T, F>(items: &mut [T], work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers_here(work).min(items.len());
    if workers <= 1 {
        // kept apart from the pool below so the serial case inlines
        // `f` into the caller's loop (≈5 % on a 65 k-residue pass)
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    } else {
        fan_out(items, workers, &f);
    }
}

/// Runs `a` and `b`, on two workers when `work` residue operations in
/// total pay for a second one, and returns both results in order.
pub fn join<A, B, RA, RB>(work: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (mut a, mut b) = (Some(a), Some(b));
    let (mut ra, mut rb) = (None, None);
    {
        let mut tasks: [&mut (dyn FnMut() + Send); 2] =
            [&mut || ra = a.take().map(|a| a()), &mut || {
                rb = b.take().map(|b| b())
            }];
        par_for_each_sized(&mut tasks, work, |_, task| task());
    }
    (
        ra.expect("join ran its first task"),
        rb.expect("join ran its second task"),
    )
}

/// Blocks per worker a fan-out is cut into: enough that a late or
/// descheduled helper leaves the rest to the others.
const BLOCKS_PER_WORKER: usize = 4;

/// Runs `f` over `items` on the caller and up to `workers − 1` pool
/// helpers, each taking item blocks from a shared cursor.
fn fan_out<T, F>(items: &mut [T], workers: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let block = items.len().div_ceil(workers * BLOCKS_PER_WORKER);
    // One lock per block, each taken once by whoever claimed the block
    // off the cursor: a safe hand-out of disjoint `&mut` ranges.
    let blocks: Vec<Mutex<&mut [T]>> = items.chunks_mut(block).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let job = || loop {
        let b = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = blocks.get(b) else { break };
        let mut chunk = lock(slot);
        for (j, item) in chunk.iter_mut().enumerate() {
            f(b * block + j, item);
        }
    };
    pool().run(&job, workers - 1);
}

/// A job as helpers see it: the caller's loop over the block cursor.
type Job<'a> = dyn Fn() + Sync + 'a;

struct State {
    /// The published job; `None` once the caller has finished its own
    /// part, so a helper that wakes late does not enter.
    job: Option<&'static Job<'static>>,
    /// Helpers the published job may still take.
    seats: usize,
    /// Helpers inside the job.
    active: usize,
    /// Held from publication until every helper has left.
    busy: bool,
    /// The first panic a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// The caller waits here for the last helper to leave.
    left: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No user code runs under the pool's own lock, and a poisoned block
    // lock only means its closure panicked: the data is still sound.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool, its helpers spawned on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static STARTED: OnceLock<()> = OnceLock::new();
    let pool = POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            job: None,
            seats: 0,
            active: 0,
            busy: false,
            panic: None,
        }),
        wake: Condvar::new(),
        left: Condvar::new(),
    });
    STARTED.get_or_init(|| {
        for i in 1..parallelism() {
            std::thread::Builder::new()
                .name(format!("cross-par-{i}"))
                .spawn(move || pool.help())
                .expect("spawn a pool helper");
        }
    });
    pool
}

impl Pool {
    /// Publishes `job` to up to `helpers` parked helpers, runs it on
    /// the calling thread too, and returns once every helper that
    /// entered has left. Runs `job` alone when another caller holds the
    /// pool.
    fn run(&self, job: &Job<'_>, helpers: usize) {
        let mut state = lock(&self.state);
        if state.busy {
            drop(state);
            return job();
        }
        // SAFETY: the `'static` reference never outlives this call.
        // Helpers only read `state.job` under the lock and count
        // themselves into `state.active` in the same critical section;
        // below, this call clears `state.job` and then waits until
        // `active` is 0 before returning. Its own run of `job` is
        // behind `catch_unwind`, and nothing between publication and
        // that wait can unwind otherwise (`lock` does not panic), so
        // neither a return nor an unwind leaves a helper inside `job`.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        state.job = Some(erased);
        state.seats = helpers;
        state.busy = true;
        drop(state);
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(job));
        let mut state = lock(&self.state);
        state.job = None;
        while state.active > 0 {
            state = self
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
        let theirs = state.panic.take();
        drop(state);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }

    /// A helper's life: park until a job has a free seat, run it, leave.
    fn help(&self) {
        mark_worker();
        let mut state = lock(&self.state);
        loop {
            let job = match state.job {
                Some(job) if state.seats > 0 => job,
                _ => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            state.seats -= 1;
            state.active += 1;
            drop(state);
            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
            state = lock(&self.state);
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.active -= 1;
            if state.active == 0 {
                self.left.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_at_least_one() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn workers_scale_with_work_up_to_the_host() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(2 * MIN_PAR_WORK - 1), 1);
        assert_eq!(workers_for(2 * MIN_PAR_WORK), parallelism().min(2));
        assert_eq!(workers_for(usize::MAX), parallelism());
    }

    #[test]
    fn for_each_touches_every_item_once() {
        // serial, work-sized and full fan-out all visit each item once
        for work in [0, 3 * MIN_PAR_WORK, usize::MAX] {
            let mut v: Vec<u64> = (0..1000).collect();
            par_for_each_sized(&mut v, work, |i, x| *x += i as u64);
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, 2 * i as u64);
            }
        }
    }

    #[test]
    fn for_each_empty_and_single() {
        let mut empty: Vec<u64> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![7u64];
        par_for_each_mut(&mut one, |i, x| *x += i as u64 + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn all_invocations_run() {
        let counter = AtomicUsize::new(0);
        let mut data = vec![0u8; 997];
        par_for_each_mut(&mut data, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn a_panicking_block_reaches_the_caller_and_the_pool_survives() {
        let mut items = vec![0u32; 64];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_for_each_mut(&mut items, |i, _| assert!(i != 37, "block 37 fails"));
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 37 fails"));
        // the next call runs on the same pool
        par_for_each_mut(&mut items, |i, x| *x = i as u32);
        assert!(items.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        let mut outer = vec![0u64; 8];
        par_for_each_mut(&mut outer, |i, x| {
            let mut inner: Vec<u64> = (0..100).collect();
            par_for_each_mut(&mut inner, |j, y| *y += j as u64);
            *x = inner.iter().sum::<u64>() + i as u64;
        });
        for (i, &x) in outer.iter().enumerate() {
            assert_eq!(x, 9900 + i as u64);
        }
    }

    #[test]
    fn concurrent_callers_each_visit_every_item_once() {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for round in 0..1000u64 {
                        let mut v = vec![0u64; 33];
                        par_for_each_mut(&mut v, |i, x| *x += i as u64 + t + round);
                        for (i, &x) in v.iter().enumerate() {
                            assert_eq!(x, i as u64 + t + round, "thread {t} round {round}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn join_returns_both_values_in_order() {
        for work in [0, usize::MAX] {
            let (a, b) = join(work, || "left".to_string(), || 42u64);
            assert_eq!((a.as_str(), b), ("left", 42));
        }
    }

    #[test]
    fn a_marked_thread_runs_inline() {
        std::thread::spawn(|| {
            mark_worker();
            let me = std::thread::current().id();
            let mut v = vec![0u8; 16];
            par_for_each_mut(&mut v, |_, _| assert_eq!(std::thread::current().id(), me));
        })
        .join()
        .unwrap();
    }
}
