//! Bounded per-worker event lanes: preallocated slots, lock-free append,
//! drop-on-full with an explicit counter.
//!
//! A [`TraceLane`] is the storage behind one timeline track of the
//! [`Tracer`](super::Tracer). Each lane has **one writer at a time** — the
//! recorder hands lane `0` to the coordinating (sequential) thread and lane
//! `w + 1` to parallel worker `w`, and a stage's workers are joined before
//! the coordinator records again — so an append is a handful of relaxed
//! stores plus one release bump of the length. There is no allocation, no
//! lock, and no retry loop on the hot path; every word is an atomic, so even
//! a misuse that aimed two writers at one lane could corrupt at most the
//! contents of a slot, never memory safety. A full lane *drops* the event and
//! counts it ([`TraceLane::dropped`]) instead of blocking or growing: earlier
//! events stay intact, and the exporters surface the loss as
//! `events_dropped`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One recorded event, packed into four words (32 bytes):
/// `[ts_ns, dur_ns, meta, args]`. The meta/args encodings are owned by
/// [`super::Tracer`]; the lane only stores and replays them.
pub(crate) type RawEvent = [u64; 4];

/// A fixed-capacity, single-writer, lock-free event buffer.
pub struct TraceLane {
    slots: Box<[[AtomicU64; 4]]>,
    /// Number of fully-written slots. The writer publishes a slot with a
    /// release store here; readers acquire it before decoding.
    len: AtomicUsize,
    /// Events discarded because the lane was full.
    dropped: AtomicU64,
}

impl TraceLane {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceLane {
            slots: (0..capacity)
                .map(|_| [const { AtomicU64::new(0) }; 4])
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, or drops it (bumping the drop counter) when the
    /// lane is full. Never blocks, never allocates.
    #[inline]
    pub(crate) fn push(&self, ev: RawEvent) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[i];
        for (word, &v) in slot.iter().zip(ev.iter()) {
            word.store(v, Ordering::Relaxed);
        }
        self.len.store(i + 1, Ordering::Release);
    }

    /// Number of recorded (published) events.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events dropped because the lane was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Decodes the published events, oldest first.
    pub(crate) fn events(&self) -> Vec<RawEvent> {
        let n = self.len();
        self.slots[..n]
            .iter()
            .map(|slot| {
                let mut ev = [0u64; 4];
                for (v, word) in ev.iter_mut().zip(slot.iter()) {
                    *v = word.load(Ordering::Relaxed);
                }
                ev
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_in_order() {
        let lane = TraceLane::new(4);
        lane.push([1, 2, 3, 4]);
        lane.push([5, 6, 7, 8]);
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.events(), vec![[1, 2, 3, 4], [5, 6, 7, 8]]);
        assert_eq!(lane.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_without_corrupting() {
        let lane = TraceLane::new(2);
        lane.push([10, 0, 0, 0]);
        lane.push([20, 0, 0, 0]);
        lane.push([30, 0, 0, 0]);
        lane.push([40, 0, 0, 0]);
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.dropped(), 2);
        // The first two events are intact.
        assert_eq!(lane.events()[0][0], 10);
        assert_eq!(lane.events()[1][0], 20);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let lane = TraceLane::new(0);
        lane.push([1, 1, 1, 1]);
        assert!(lane.is_empty());
        assert_eq!(lane.dropped(), 1);
    }
}
