//! A registry-free bounded channel for the serving loop.
//!
//! The offline image has no `tokio`/`crossbeam` (DESIGN.md §5: only
//! the three vendored stubs exist), so this module provides the one
//! queueing primitive `serve` needs on plain
//! [`std::sync::Mutex`]/[`Condvar`]: a **bounded** multi-producer
//! channel with both backpressure flavors —
//! [`send`](Sender::send) blocks while the queue is at capacity,
//! `try_send` returns the value instead. The
//! receive side is cloneable too, so a pool of workers can drain one
//! queue ("mpsc-style" in the serving architecture; mechanically MPMC).
//!
//! Close semantics mirror [`std::sync::mpsc`]: when every [`Sender`]
//! is dropped, receivers drain what is queued and then observe
//! end-of-stream ([`recv`](Receiver::recv) returns `None`); when every
//! [`Receiver`] is dropped, senders get their value back as an error.
//! Three receive primitives cover the serving loop:
//! [`recv`](Receiver::recv) feeds one worker one item,
//! `try_recv_batch` tops a backlogged
//! dispatcher up without blocking, and
//! [`recv_batch`](Receiver::recv_batch) is the dispatcher's gathering
//! primitive: block until at least one item is available, then keep
//! gathering until the batch is full or the most urgent queued item's
//! deadline passes. A deadline of "now" takes what is already queued
//! without waiting; `arrival + window` is a micro-batching window.
//!
//! # Examples
//!
//! ```
//! use cross_sched::channel;
//! use std::time::Instant;
//!
//! let (tx, rx) = channel::bounded(4);
//! for i in 0..3 {
//!     tx.send(i).unwrap();
//! }
//! drop(tx); // close: the receiver drains, then sees end-of-stream
//! assert_eq!(rx.recv_batch(8, |_| Instant::now()), vec![0, 1, 2]);
//! assert_eq!(rx.recv(), None);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The channel was closed (every receiver dropped); the unsent value
/// is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why [`Sender::try_send`] could not enqueue; the value is handed
/// back in either case.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TrySendError<T> {
    /// The queue is at capacity (the [`Backpressure::Reject`] signal).
    ///
    /// [`Backpressure::Reject`]: crate::queue::Backpressure::Reject
    Full(T),
    /// Every receiver is gone.
    Closed(T),
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    // Parked gatherers (recv_batch's second phase). Senders never
    // signal this one: a gathering receiver polls on a fine timeout
    // instead, so producers filling a batch are not preempted by a
    // wake-per-item storm (one context switch per send costs more
    // than the whole batch on a busy core). Only channel close
    // signals it, for prompt shutdown.
    gather: Condvar,
}

/// Creates a bounded channel holding at most `capacity` queued values.
///
/// # Panics
/// Panics if `capacity == 0` (a zero-capacity rendezvous channel is
/// not needed by the serving loop and is deliberately unsupported).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "channel capacity must be ≥ 1");
    let shared = Arc::new(Shared {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        gather: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Producing half of a [`bounded`] channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `value`, blocking while the queue is at capacity (the
    /// [`Backpressure::Block`] policy). Fails only when every receiver
    /// is gone.
    ///
    /// [`Backpressure::Block`]: crate::queue::Backpressure::Block
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < self.shared.capacity {
                st.queue.push_back(value);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = self.shared.not_full.wait(st).unwrap();
        }
    }

    /// Enqueues `value` without blocking: at capacity the value comes
    /// back as [`TrySendError::Full`] (the [`Backpressure::Reject`]
    /// policy).
    ///
    /// [`Backpressure::Reject`]: crate::queue::Backpressure::Reject
    pub(crate) fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.shared.state.lock().unwrap();
        if st.receivers == 0 {
            return Err(TrySendError::Closed(value));
        }
        if st.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().senders += 1;
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake blocked receivers so they observe end-of-stream.
            self.shared.not_empty.notify_all();
            self.shared.gather.notify_all();
        }
    }
}

/// Consuming half of a [`bounded`] channel; cloneable so a worker pool
/// can share one queue.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Dequeues one value, blocking while the queue is empty. `None`
    /// means every sender is gone *and* the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.shared.not_empty.wait(st).unwrap();
        }
    }

    /// Blocks until at least one value is queued, then gathers until
    /// `max` values are queued or the earliest `deadline_of(value)`
    /// over the queued values passes, and takes up to `max` of them —
    /// the dispatcher's batch-forming primitive. The deadline is
    /// **per item**: `|_| Instant::now()` takes what is already queued
    /// without waiting, `submitted_at + window` is micro-batching
    /// under a latency budget — an old request dispatches the batch
    /// at once while fresh traffic still fills it.
    ///
    /// Every deadline is finite, so a partial batch always dispatches
    /// (no deadlock when producers go quiet while holding tickets).
    /// An empty vec means the channel is closed and drained.
    ///
    /// # Panics
    /// Panics if `max == 0`.
    pub fn recv_batch(&self, max: usize, deadline_of: impl Fn(&T) -> Instant) -> Vec<T> {
        assert!(max >= 1, "batch cap must be ≥ 1");
        // The queue can never hold more than the channel capacity (and
        // nothing drains mid-gather), so a larger target would always
        // wait out the deadline with producers parked on not_full.
        let max = max.min(self.shared.capacity);
        let mut st = self.shared.state.lock().unwrap();
        // Block for the first item (or the close).
        while st.queue.is_empty() {
            if st.senders == 0 {
                return Vec::new();
            }
            st = self.shared.not_empty.wait(st).unwrap();
        }
        // Gather until the batch fills or the most urgent queued
        // item's deadline passes. Senders do not signal `gather`, so
        // this polls at a fine interval — producers fill the batch
        // without being preempted per item, and a full batch is still
        // detected within one poll step.
        let poll = Duration::from_micros(200);
        while st.queue.len() < max && st.senders > 0 {
            let deadline = st
                .queue
                .iter()
                .map(&deadline_of)
                .min()
                .expect("non-empty queue");
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let step = (deadline - now).min(poll);
            st = self.shared.gather.wait_timeout(st, step).unwrap().0;
        }
        let k = max.min(st.queue.len());
        let out: Vec<T> = st.queue.drain(..k).collect();
        self.shared.not_full.notify_all();
        out
    }

    /// Takes up to `max` already-queued values without blocking — the
    /// backlog-servicing primitive: a dispatcher holding undrained
    /// requests polls its intake with this instead of parking on
    /// [`recv_batch`](Self::recv_batch), so the backlog keeps flowing
    /// even when no new submission arrives to wake it.
    pub(crate) fn try_recv_batch(&self, max: usize) -> Vec<T> {
        let mut st = self.shared.state.lock().unwrap();
        let k = max.min(st.queue.len());
        let out: Vec<T> = st.queue.drain(..k).collect();
        if !out.is_empty() {
            self.shared.not_full.notify_all();
        }
        out
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().receivers += 1;
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Wake blocked senders so they observe the close.
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fifo() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.shared.state.lock().unwrap().queue.len(), 5);
        for i in 0..5 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert!(rx.try_recv_batch(1).is_empty());
    }

    #[test]
    fn try_send_rejects_at_capacity() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Some(1));
        // One slot freed: the next try_send goes through.
        tx.try_send(3).unwrap();
    }

    #[test]
    fn send_blocks_until_capacity_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1u64).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(move || tx.send(2).is_ok());
            // The blocked sender completes once we pop.
            assert_eq!(rx.recv(), Some(1));
            assert!(h.join().unwrap());
            assert_eq!(rx.recv(), Some(2));
        });
    }

    #[test]
    fn close_on_all_senders_dropped() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        tx2.send(8).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), Some(8));
        assert_eq!(rx.recv(), None);
        assert!(rx.recv_batch(4, |_| Instant::now()).is_empty());
    }

    #[test]
    fn close_on_receiver_dropped() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert_eq!(tx.try_send(2), Err(TrySendError::Closed(2)));
    }

    #[test]
    fn recv_batch_takes_what_is_queued() {
        let (tx, rx) = bounded(8);
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.recv_batch(4, |_| Instant::now()), vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(4, |_| Instant::now()), vec![4, 5]);
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        // Capacity below the item count: the producer leans on the
        // blocking backpressure while two receivers drain.
        let (tx, rx) = bounded(16);
        let rx2 = rx.clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100u32 {
                    tx.send(i).unwrap();
                }
            });
            let ha = s.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = rx.recv() {
                    got.push(v);
                }
                got
            });
            let hb = s.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            a = ha.join().unwrap();
            b = hb.join().unwrap();
        });
        let mut all: Vec<u32> = a.into_iter().chain(b).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity must be ≥ 1")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u8>(0);
    }

    /// Items stamped with their arrival, the way the dispatcher's
    /// submissions carry `submitted_at`: a fixed window is the deadline
    /// `arrival + window`.
    fn stamped(v: u32) -> (u32, Instant) {
        (v, Instant::now())
    }

    fn values(batch: Vec<(u32, Instant)>) -> Vec<u32> {
        batch.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn batch_window_fills_or_expires() {
        let (tx, rx) = bounded(16);
        let window = |w: Duration| move |item: &(u32, Instant)| item.1 + w;
        // Window zero: take what is there.
        tx.send(stamped(1)).unwrap();
        tx.send(stamped(2)).unwrap();
        assert_eq!(values(rx.recv_batch(8, window(Duration::ZERO))), [1, 2]);
        // A full batch returns without waiting out the window.
        for i in 0..4 {
            tx.send(stamped(i)).unwrap();
        }
        let t0 = Instant::now();
        let got = rx.recv_batch(4, window(Duration::from_secs(60)));
        assert_eq!(values(got), [0, 1, 2, 3]);
        assert!(t0.elapsed() < Duration::from_secs(5), "did not wait");
        // A slow producer is gathered within the window.
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 10..13 {
                    std::thread::sleep(Duration::from_millis(5));
                    tx.send(stamped(i)).unwrap();
                }
            });
            let got = rx.recv_batch(3, window(Duration::from_secs(60)));
            assert_eq!(values(got), [10, 11, 12]);
        });
        // The window expires on a quiet channel with senders alive.
        tx.send(stamped(99)).unwrap();
        let got = rx.recv_batch(8, window(Duration::from_millis(10)));
        assert_eq!(values(got), [99]);
    }

    #[test]
    fn try_recv_batch_never_blocks() {
        let (tx, rx) = bounded(8);
        assert!(rx.try_recv_batch(4).is_empty());
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_recv_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv_batch(4), vec![4, 5]);
        assert!(rx.try_recv_batch(4).is_empty());
    }

    #[test]
    fn batch_deadline_dispatches_urgent_items_immediately() {
        let (tx, rx) = bounded(16);
        // Per-item budgets: the item *is* its budget in milliseconds.
        let t0 = Instant::now();
        let budget = |ms: &u64| t0 + Duration::from_millis(*ms);
        // One urgent item among relaxed ones sets the dispatch time:
        // the partial batch goes out at the 10 ms deadline, not 60 s.
        for ms in [60_000, 10, 60_000] {
            tx.send(ms).unwrap();
        }
        assert_eq!(rx.recv_batch(8, budget), vec![60_000, 10, 60_000]);
        assert!(t0.elapsed() >= Duration::from_millis(10), "gathered");
        assert!(t0.elapsed() < Duration::from_secs(5), "urgent item won");
        // Relaxed budgets everywhere: a slow producer fills the batch.
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    std::thread::sleep(Duration::from_millis(5));
                    tx.send(60_000).unwrap();
                }
            });
            assert_eq!(rx.recv_batch(3, budget).len(), 3);
        });
    }

    #[test]
    fn past_deadlines_take_what_is_queued_without_sleeping() {
        let (tx, rx) = bounded(16);
        for i in 0..5u32 {
            tx.send(i).unwrap();
        }
        // Senders alive, batch not full, every deadline already past:
        // exactly the queued items come back after ONE pass over the
        // deadlines — a gather that slept would re-evaluate them.
        let past = Instant::now();
        let evaluated = std::cell::Cell::new(0);
        let got = rx.recv_batch(8, |_| {
            evaluated.set(evaluated.get() + 1);
            past
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(evaluated.get(), 5, "one deadline scan, no poll step");
    }

    #[test]
    fn batch_window_caps_at_channel_capacity() {
        // A gather target above the capacity can never be met (nothing
        // drains mid-gather): it must clamp, not wait out the deadline.
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t0 = Instant::now();
        let far = t0 + Duration::from_secs(60);
        assert_eq!(rx.recv_batch(64, |_| far), vec![1, 2]);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "clamped, not stalled"
        );
    }
}
