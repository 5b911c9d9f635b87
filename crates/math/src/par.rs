//! A registry-free scoped-thread pool for embarrassingly parallel limb
//! and batch loops (ROADMAP "Parallel NTT").
//!
//! The MAT 3-step plan and the RNS limb loops are data-parallel with no
//! shared mutable state; `rayon` would be the natural tool but the
//! build environment has no registry access, so this module provides
//! the primitives the batched pipeline needs on plain
//! [`std::thread::scope`]:
//!
//! * [`par_for_each_mut`] — run a closure over every element of a
//!   mutable slice, items partitioned contiguously across workers
//!   ([`par_for_each_sized`]: on as many workers as the work pays for);
//! * [`par_chunks_mut`] — the `rayon`-style `par_chunks_mut`: run a
//!   closure over fixed-size chunks of one backing slice.
//!
//! All fall back to the serial loop when a single worker suffices, so
//! results are bit-identical either way (each item is touched by
//! exactly one closure invocation, and closures are independent).

use std::sync::OnceLock;

/// Minimum work *per worker* before a limb or batch loop fans out to
/// scoped threads, in residue operations: one per residue an
/// element-wise kernel touches, `log₂ N` per residue of a transform
/// (≈ 1 ns each on the host either way) — so about half a millisecond
/// of arithmetic per worker, against 50–100 µs to spawn and join plus
/// whatever a cold second core costs in situ. Measured on the 2-vCPU
/// benchmark host: at `1 << 16` a lone Set B polynomial (8 NTTs,
/// 852 k operations) fanned out and `decrypt` lost 15 %; at `1 << 19`
/// it stays serial and only fused batches fan out, which read 9 %
/// faster on `eager_chain` and 16 % on `serve_tenants` (CHANGES.md,
/// PR 13). Results are bit-identical either way.
pub const MIN_PAR_WORK: usize = 1 << 19;

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

/// Workers worth spawning for `work` residue operations: one per
/// [`MIN_PAR_WORK`] of it, at most [`parallelism`] — so a wider host
/// never uses fewer workers than a narrower one would — and at least
/// the calling thread.
pub fn workers_for(work: usize) -> usize {
    (work / MIN_PAR_WORK).clamp(1, parallelism())
}

/// Runs `f(i, &mut items[i])` for every element, distributing
/// contiguous blocks of items over all [`parallelism`] scoped worker
/// threads.
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

/// [`par_for_each_mut`] on the [`workers_for`] a loop of `work` residue
/// operations in total pays for — the one gate every limb and batch
/// fan-out in the stack goes through.
#[inline]
pub fn par_for_each_sized<T, F>(items: &mut [T], work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers_for(work).min(items.len());
    if workers <= 1 {
        // kept apart from the spawn below so the serial case inlines
        // `f` into the caller's loop (≈5 % on a 65 k-residue pass)
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    } else {
        fan_out(items, workers, &f);
    }
}

fn fan_out<T, F>(items: &mut [T], workers: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let block = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (b, chunk) in items.chunks_mut(block).enumerate() {
            scope.spawn(move || {
                for (j, item) in chunk.iter_mut().enumerate() {
                    f(b * block + j, item);
                }
            });
        }
    });
}

/// Runs `f(c, chunk)` over consecutive `chunk_len`-sized chunks of
/// `data` (the last chunk may be shorter), chunks distributed over
/// scoped worker threads.
///
/// This is the batched limb loop's workhorse: a batch-major limb of
/// `batch · n` residues splits into `batch` independent degree-`n`
/// polynomials, each transformed on whichever worker picks it up.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let mut chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len).collect();
    par_for_each_mut(&mut chunks, |i, chunk| f(i, chunk));
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
    fn chunks_match_serial_chunking() {
        let n = 64usize;
        let mut data: Vec<u64> = (0..(5 * n + 13) as u64).collect();
        let want: Vec<u64> = data
            .chunks(n)
            .enumerate()
            .flat_map(|(c, chunk)| chunk.iter().map(move |&x| x * 3 + c as u64))
            .collect();
        par_chunks_mut(&mut data, n, |c, chunk| {
            for x in chunk.iter_mut() {
                *x = *x * 3 + c as u64;
            }
        });
        assert_eq!(data, want);
    }

    #[test]
    fn all_invocations_run() {
        let counter = AtomicUsize::new(0);
        let mut data = vec![0u8; 997];
        par_chunks_mut(&mut data, 10, |_, chunk| {
            counter.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 997);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        let mut data = vec![0u8; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }
}
