//! The sorted current window shared by the calendar queue
//! ([`crate::equeue`]) and the timer wheel ([`crate::twheel`]).
//!
//! Both structures spread pending entries over unsorted time slots and only
//! order the slice of time actually being executed. That slice is this
//! type: a bucket is sorted **once**, when the wheel rotates onto it, into a
//! run held in *descending* `(at, seq)` order, so the earliest entry is the
//! `Vec`'s last element and `pop`/`next_key` are O(1) with no sift-down.
//!
//! Entries that arrive while the window is being drained ("late inserts": a
//! handler scheduling something a few nanoseconds out) take one of two
//! paths. One that precedes everything left in the run is appended to it —
//! still sorted, still O(1). Anything else goes to a small side min-heap,
//! so an insert is never worse than O(log n): a naive sorted insert would
//! make 100 k same-instant inserts quadratic. `pop` takes the smaller of
//! the run's tail and the side heap's root.
//!
//! Pop order is a pure function of the keys (unique, `seq` breaks `at`
//! ties), never of which of the two containers an entry waited in.
//!
//! Storage is recycled, not dropped: [`SortedWindow::load`] returns the
//! drained run's buffer to its caller, which decides where it goes next (the
//! calendar queue's spare list, the timer wheel's level-0 slot), and the
//! side heap keeps its capacity, so a steady-state rotation allocates
//! nothing.

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending entry of a time-ordered structure.
pub(crate) struct Entry<T> {
    pub(crate) at: Nanos,
    pub(crate) seq: u64,
    pub(crate) item: T,
}

impl<T> Entry<T> {
    #[inline]
    pub(crate) fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, o: &Self) -> bool {
        self.key() == o.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
// Reversed on purpose: `BinaryHeap<Entry>` is a max-heap, so inverting the
// key comparison makes it the min-queue the side heap and the calendar
// queue's far-future overflow heap need, without a `Reverse` wrapper around
// every entry.
impl<T> Ord for Entry<T> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        o.key().cmp(&self.key())
    }
}

/// The entries of the time window under execution; see module docs.
pub(crate) struct SortedWindow<T> {
    /// Descending by key: the earliest entry is last.
    run: Vec<Entry<T>>,
    /// Late inserts that do not precede the run's tail.
    late: BinaryHeap<Entry<T>>,
}

impl<T> SortedWindow<T> {
    pub(crate) fn new() -> Self {
        SortedWindow { run: Vec::new(), late: BinaryHeap::new() }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.late.is_empty()
    }

    /// Whether the side heap's root precedes the run's tail (or the run is
    /// empty), i.e. the next pop comes from the side heap.
    #[inline]
    fn late_first(&self) -> bool {
        match (self.run.last(), self.late.peek()) {
            (Some(r), Some(l)) => l.key() < r.key(),
            (None, _) => true,
            (Some(_), None) => false,
        }
    }

    /// Key of the earliest entry.
    #[inline]
    pub(crate) fn next_key(&self) -> Option<(Nanos, u64)> {
        if self.late_first() { self.late.peek() } else { self.run.last() }.map(Entry::key)
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry<T>> {
        if self.late_first() {
            self.late.pop()
        } else {
            self.run.pop()
        }
    }

    /// Adds an entry while the window is live (a late insert).
    #[inline]
    pub(crate) fn push(&mut self, e: Entry<T>) {
        if self.run.last().is_none_or(|r| e.key() < r.key()) {
            self.run.push(e);
        } else {
            self.late.push(e);
        }
    }

    /// Makes `slot`'s entries the window: sorts them into the run and
    /// returns the previous run's (empty) buffer for the caller to reuse.
    /// The window must be empty — a wheel only rotates once it has drained.
    pub(crate) fn load(&mut self, mut slot: Vec<Entry<T>>) -> Vec<Entry<T>> {
        debug_assert!(self.is_empty(), "rotating onto a window that still holds entries");
        slot.sort_unstable_by_key(|e| Reverse(e.key()));
        std::mem::replace(&mut self.run, slot)
    }

    /// Capacity, in entries, of the run and the side heap together.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.run.capacity() + self.late.capacity()
    }

    /// Moves every entry out, in no particular order (re-bucketing).
    pub(crate) fn drain_into(&mut self, all: &mut Vec<Entry<T>>) {
        all.append(&mut self.run);
        all.extend(self.late.drain());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: Nanos, seq: u64) -> Entry<()> {
        Entry { at, seq, item: () }
    }

    fn drain(w: &mut SortedWindow<()>) -> Vec<(Nanos, u64)> {
        let mut out = Vec::new();
        while let Some(k) = w.next_key() {
            assert_eq!(w.pop().map(|e| e.key()), Some(k), "next_key must be the exact pop key");
            out.push(k);
        }
        assert!(w.is_empty());
        out
    }

    #[test]
    fn loaded_run_and_late_inserts_merge_in_key_order() {
        let mut w = SortedWindow::new();
        let recycled = w.load(vec![entry(30, 1), entry(10, 2), entry(20, 3), entry(10, 4)]);
        assert!(recycled.is_empty());
        w.push(entry(5, 5)); // precedes the run: appended
        w.push(entry(25, 6)); // inside the run: side heap
        w.push(entry(10, 7)); // ties an earlier `at`: seq decides
        assert_eq!(
            drain(&mut w),
            vec![(5, 5), (10, 2), (10, 4), (10, 7), (20, 3), (25, 6), (30, 1)]
        );
    }

    #[test]
    fn load_hands_back_the_drained_buffer() {
        let mut w = SortedWindow::new();
        let mut slot = Vec::with_capacity(64);
        slot.push(entry(1, 1));
        w.load(slot);
        drain(&mut w);
        let back = w.load(vec![entry(2, 2)]);
        assert!(back.is_empty() && back.capacity() >= 64, "bucket storage must be recycled");
    }
}
