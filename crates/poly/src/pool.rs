//! Spare limb buffers, recycled instead of handed back to the
//! allocator.
//!
//! Every eager operator frees a working set several times its output
//! and needs the same set again on the next call. Handed back to the
//! allocator, those pages are trimmed from the heap top and faulted in
//! again, which cost `eager_chain` about 5 000 minor faults an
//! iteration. A [`LimbPool`] keeps the freed degree-`N` limbs of one
//! CKKS context instead — the memory-pool design of CPU and GPU HE
//! libraries, and the paper's coarse-grained buffers that are
//! allocated once and reused between kernels.
//!
//! A pool bounds itself: it never keeps more spare buffers than its
//! takers have held out at once, so it holds at most the program's own
//! limb high-water. Buffers of any other length bypass it. A caller
//! that knows the demand has ended — a server whose last session
//! closed — hands every spare back with [`LimbPool::release`].

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared list of spare degree-`N` limb buffers. The RNS contexts of
/// one CKKS context share one pool through an [`Arc`], as they share
/// their NTT tables; a [`PolyBatch`](crate::PolyBatch) draws its limbs
/// from its context's pool and gives them back when it is dropped.
#[derive(Debug)]
pub struct LimbPool {
    n: usize,
    state: Mutex<Spares>,
}

#[derive(Debug, Default)]
struct Spares {
    buffers: Vec<Vec<u64>>,
    /// Buffers taken and not given back yet, as far as the pool can
    /// tell: a buffer it never handed out also counts one down.
    out: usize,
    /// The most buffers `out` has reached: the bound on `buffers`.
    high: usize,
}

impl LimbPool {
    /// An empty pool for degree-`n` limbs.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            n,
            state: Mutex::default(),
        })
    }

    /// The degree whose limbs this pool recycles.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    fn lock(&self) -> MutexGuard<'_, Spares> {
        // Every update leaves the list a valid set of spare buffers and
        // the counts a valid bound, so a panic elsewhere cannot have
        // left it inconsistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer with room for `len` words: a recycled one when
    /// `len` is the degree and a spare is left, a fresh allocation
    /// otherwise. The caller fills it.
    pub fn take(&self, len: usize) -> Vec<u64> {
        if len != self.n {
            return Vec::with_capacity(len);
        }
        let spare = {
            let mut s = self.lock();
            s.out += 1;
            s.high = s.high.max(s.out);
            s.buffers.pop()
        };
        match spare {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// A buffer of `len` zeros, drawn as [`LimbPool::take`] draws.
    pub fn take_zeroed(&self, len: usize) -> Vec<u64> {
        let mut buf = self.take(len);
        buf.resize(len, 0);
        buf
    }

    /// A copy of `src` in a buffer drawn as [`LimbPool::take`] draws.
    pub fn copy_of(&self, src: &[u64]) -> Vec<u64> {
        let mut buf = self.take(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Gives buffers back. A degree-`N` buffer is kept while the pool
    /// holds fewer spares than its takers' high-water; every other
    /// buffer goes back to the allocator.
    pub fn give(&self, bufs: impl IntoIterator<Item = Vec<u64>>) {
        let mut refused = Vec::new();
        {
            let mut s = self.lock();
            for buf in bufs {
                if buf.len() != self.n {
                    refused.push(buf);
                    continue;
                }
                s.out = s.out.saturating_sub(1);
                if s.buffers.len() < s.high {
                    s.buffers.push(buf);
                } else {
                    refused.push(buf);
                }
            }
        }
        // freed outside the lock
        drop(refused);
    }

    /// Hands every spare back to the allocator and forgets the
    /// high-water: until the next [`LimbPool::take`] sets a new one,
    /// buffers given back are refused too. For the end of a phase of
    /// demand, so the memory serves whatever the program does next.
    pub fn release(&self) {
        let spares = {
            let mut s = self.lock();
            s.high = 0;
            std::mem::take(&mut s.buffers)
        };
        drop(spares);
    }

    /// Spare buffers held now.
    pub fn spare_count(&self) -> usize {
        self.lock().buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spares_never_outnumber_the_takers_high_water() {
        let pool = LimbPool::new(8);
        let held: Vec<_> = (0..5).map(|_| pool.take_zeroed(8)).collect();
        pool.give(held);
        assert_eq!(pool.spare_count(), 5);
        // a smaller round reuses spares and leaves the bound at five
        let held: Vec<_> = (0..3).map(|_| pool.take_zeroed(8)).collect();
        assert_eq!(pool.spare_count(), 2);
        pool.give(held);
        assert_eq!(pool.spare_count(), 5);
        // adopted foreign buffers do not grow it past that
        pool.give((0..4).map(|_| vec![7u64; 8]));
        assert_eq!(pool.spare_count(), 5);
        // once room is made, a foreign buffer fills it
        let held: Vec<_> = (0..2).map(|_| pool.take_zeroed(8)).collect();
        pool.give([vec![7u64; 8]]);
        assert_eq!(pool.spare_count(), 4);
        drop(held);
    }

    #[test]
    fn a_buffer_given_back_on_another_thread_is_reused() {
        let pool = LimbPool::new(16);
        let buf = pool.take_zeroed(16);
        let addr = buf.as_ptr();
        std::thread::scope(|s| {
            s.spawn(|| pool.give([buf]));
        });
        let again = pool.take(16);
        assert_eq!(again.as_ptr(), addr, "the spare was not reused");
        assert!(again.is_empty(), "a recycled buffer comes back empty");
        assert!(again.capacity() >= 16);
    }

    #[test]
    fn release_empties_the_pool_until_the_next_take() {
        let pool = LimbPool::new(8);
        let held: Vec<_> = (0..4).map(|_| pool.take_zeroed(8)).collect();
        pool.give(held);
        let held: Vec<_> = (0..2).map(|_| pool.take_zeroed(8)).collect();
        pool.release();
        assert_eq!(pool.spare_count(), 0);
        // what comes back after the release goes to the allocator
        pool.give(held);
        assert_eq!(pool.spare_count(), 0);
        // a take sets a new high-water, from what is held out now
        let held: Vec<_> = (0..3).map(|_| pool.take_zeroed(8)).collect();
        pool.give(held);
        assert_eq!(pool.spare_count(), 3);
    }

    #[test]
    fn other_lengths_bypass_the_pool() {
        let pool = LimbPool::new(8);
        let long = pool.take_zeroed(16);
        assert_eq!(long.len(), 16);
        pool.give([long, vec![1u64; 4], Vec::new()]);
        assert_eq!(pool.spare_count(), 0, "no buffer of another length is kept");
        // nor does taking one raise the bound
        pool.give([vec![1u64; 8]]);
        assert_eq!(pool.spare_count(), 0);
    }
}
