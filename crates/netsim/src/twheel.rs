//! Hierarchical timer wheel for endpoint timers.
//!
//! Transport timers (RTO, pacing, CC ticks) are the one event class whose
//! pending population scales with *installed* connections rather than with
//! traffic: a million idle QPs with armed retransmission timeouts is a
//! million far-future entries. Keeping them in the calendar queue
//! ([`crate::equeue::EventQueue`]) makes every rotation and every width
//! adaptation pay for state that almost never fires soon; this wheel gives
//! timer arming O(1) pushes into power-of-two slots and only orders the
//! slice of time actually being executed.
//!
//! Layout, from soonest to latest:
//!
//! * `due`: every entry below `due_start + W0` (W0 = 2^12 ns), as the same
//!   `SortedWindow` the calendar queue's current bucket uses: a level-0
//!   slot is sorted once when the origin reaches it and popped from its
//!   end. The only structure `pop` touches directly. Late inserts (an
//!   endpoint arming a timer closer than the wheel origin) land here too —
//!   the window absorbs them in order without any structural motion.
//! * `levels`: [`LEVELS`] levels of 64 slots; level `l` buckets entries by
//!   bits `[12 + 6l, 12 + 6(l+1))` of their timestamp. An entry lives at
//!   the *highest* level where its slot digit differs from `due_start`'s,
//!   so each entry cascades down at most [`LEVELS`] times over its life.
//!   Per-level occupancy bitmaps make "next expiring slot" a `ctz`. The
//!   digits cover all 64 bits of a timestamp (the top level uses 4 of its
//!   64 slots), so no timer is too far out for the wheel.
//!
//! Slot storage recycles along the slot cycle, not through a spare list as
//! the calendar queue's buckets do: a drained level-0 slot takes back the
//! due window's previous run, and a drained higher-level slot hands its
//! buffer to the following slot when that one has none (see `advance`).
//! The calendar queue's LIFO spare list was tried here too and measured
//! worse on the benchmark's `churn_qp` row (Poisson flow lifetimes, one RTO
//! re-armed per ACK): peak RSS 41 → 50 MB and 1.4 steady-state allocations
//! per million events instead of 0. One list shared by every level mixes
//! buffers grown for slots whose spans differ 64× per level, while the
//! cycle hands each buffer to the slot that fills next at the same level.
//!
//! Ordering contract — identical to the calendar queue's: keys are
//! `(at, seq)` with `seq` unique and monotone (the owning shard's event
//! counter, shared with its calendar queue so the two structures merge into
//! one total order), and `pop` returns entries in exactly ascending key
//! order.
//!
//! `next_key` is `&self` and exact: the wheel maintains `cached_min`
//! (lowered on insert, re-read from `due` after pop). The wheel origin
//! only advances inside `pop` — peeking never reorganizes, so an engine
//! that polls `next_key` every step cannot drag `due_start` ahead of
//! simulation time and degrade near-future inserts into late inserts.

use crate::time::Nanos;
use crate::window::{Entry, SortedWindow};

/// log2 of the due-window width: 4096 ns.
const W0_LOG2: u32 = 12;
/// log2 of the per-level fan-out (64 slots → one `u64` occupancy word).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// 12 + 6·9 = 66 ≥ 64: nine digits cover every bit of a [`Nanos`].
const LEVELS: usize = 9;

#[inline]
fn shift(level: usize) -> u32 {
    W0_LOG2 + SLOT_BITS * level as u32
}

/// Base-64 digit of `at` at `level` (bits `[shift(level), shift(level+1))`).
#[inline]
fn digit(at: Nanos, level: usize) -> usize {
    ((at >> shift(level)) & (SLOTS as Nanos - 1)) as usize
}

/// `at` with every bit below `bits` cleared (`bits` reaches 66 above the
/// top level, where nothing is left).
#[inline]
fn clear_below(at: Nanos, bits: u32) -> Nanos {
    at.checked_shr(bits).map_or(0, |v| v << bits)
}

/// Deterministic hierarchical timer wheel keyed on `(time, seq)`; see
/// module docs.
pub struct TimerWheel<T> {
    /// Wheel origin, W0-aligned. Every level entry is at or past
    /// `due_start + W0`; `due` holds everything earlier.
    due_start: Nanos,
    due: SortedWindow<T>,
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    len: usize,
    peak_len: usize,
    /// Exact minimum key over all entries; `None` when empty.
    cached_min: Option<(Nanos, u64)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            due_start: 0,
            due: SortedWindow::new(),
            levels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            occ: [0; LEVELS],
            len: 0,
            peak_len: 0,
            cached_min: None,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of pending entries over the wheel's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Exact `(at, seq)` of the earliest pending entry — O(1), no
    /// reorganization.
    #[inline]
    pub fn next_key(&self) -> Option<(Nanos, u64)> {
        self.cached_min
    }

    /// Routes an entry to `due` or a level slot. Shared by `insert` and
    /// cascades, so placement is always against the current origin.
    fn place(&mut self, e: Entry<T>) {
        let at = e.at;
        if at < self.due_start + (1 << W0_LOG2) {
            self.due.push(e);
            return;
        }
        // Highest level where the digit differs from the origin's: the one
        // holding the highest differing bit, which is at or above bit 12
        // because `at >= due_start + W0` and the origin is W0-aligned.
        let l = ((at ^ self.due_start).ilog2() - W0_LOG2) as usize / SLOT_BITS as usize;
        let s = digit(at, l);
        self.levels[l][s].push(e);
        self.occ[l] |= 1 << s;
    }

    /// Inserts an entry. `(at, seq)` must be unique with `seq` monotone
    /// across calls; `at` may not precede the last popped time.
    pub fn insert(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if self.cached_min.is_none_or(|m| (at, seq) < m) {
            self.cached_min = Some((at, seq));
        }
        self.place(Entry { at, seq, item });
    }

    /// Removes and returns the earliest entry as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.due.is_empty() {
            self.advance();
        }
        let e = self.due.pop().expect("advance refills due");
        self.len -= 1;
        // Keep `due` primed so `cached_min` stays an O(1) exact peek. This
        // advance happens at pop time — the popped entry was the global
        // minimum, so the origin only ever moves to where execution already
        // is, never ahead of it.
        if self.due.is_empty() && self.len > 0 {
            self.advance();
        }
        self.cached_min = self.due.next_key();
        debug_assert_eq!(self.cached_min.is_none(), self.len == 0);
        Some((e.at, e.seq, e.item))
    }

    /// Moves the origin to the next expiring slot and cascades it, until
    /// `due` is non-empty. Caller guarantees `len > 0` and `due` empty.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty() && self.len > 0);
        loop {
            let l = (0..LEVELS)
                .find(|&l| self.occ[l] != 0)
                .expect("len > 0 and an empty due window leave an occupied slot");
            // Every occupied slot digit exceeds the origin's at its level
            // (placement invariant), so the raw ctz is the earliest slot.
            let s = self.occ[l].trailing_zeros() as usize;
            debug_assert!(s > digit(self.due_start, l));
            self.due_start = clear_below(self.due_start, shift(l + 1)) | ((s as Nanos) << shift(l));
            self.occ[l] &= !(1 << s);
            let v = std::mem::take(&mut self.levels[l][s]);
            if l == 0 {
                // The whole slot is the new due window [due_start,
                // due_start + W0): sort in place, recycle the storage.
                self.levels[0][s] = self.due.load(v);
            } else {
                // Re-place one level down (placement is order-agnostic:
                // every destination orders by the unique `(at, seq)` key),
                // then keep the drained storage on this level. The origin
                // moves through slot indices monotonically, so the next
                // inserts at this level land in the *following* slot —
                // hand it the buffer if it has none (the cold-slot case:
                // a level-l slot is only revisited every 64^(l+1) windows,
                // long after its last capacity would otherwise have been
                // dropped); otherwise the slot cycle is already warm and
                // the buffer stays where it was.
                let mut v = v;
                while let Some(e) = v.pop() {
                    self.place(e);
                }
                let next = (s + 1) % SLOTS;
                if self.levels[l][next].capacity() == 0 {
                    self.levels[l][next] = v;
                } else {
                    self.levels[l][s] = v;
                }
            }
            if !self.due.is_empty() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interleaved insert/pop against a reference sort, mixing the due
    /// window and every wheel level, the top one included. Inserts respect
    /// `at >= last popped time` like the engine does.
    #[test]
    fn interleaved_matches_reference_sort() {
        let mut w = TimerWheel::new();
        let mut reference: Vec<(Nanos, u64)> = Vec::new();
        let mut state: u64 = 0x00c0_ffee_d00d_1234;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now: Nanos = 0;
        let mut popped = Vec::new();
        // One timer in the top level (bits 60..64), popped last.
        w.insert(Nanos::MAX / 2 + 12_345, seq, 0);
        reference.push((Nanos::MAX / 2 + 12_345, seq));
        for _ in 0..20_000 {
            if rng() % 3 != 0 || w.is_empty() {
                seq += 1;
                let delta = match rng() % 10 {
                    0..=2 => rng() % 4_000,             // due window
                    3..=5 => rng() % 250_000,           // levels 0–1
                    6..=7 => rng() % 1_000_000_000,     // levels 2–4
                    8 => rng() % 100_000_000_000,       // level 4-ish
                    _ => (1 << 42) + rng() % (1 << 43), // levels 5–6
                };
                let at = now + delta;
                w.insert(at, seq, seq as u32);
                reference.push((at, seq));
            } else {
                let next = w.next_key().expect("non-empty");
                let (at, s, _) = w.pop().unwrap();
                assert_eq!((at, s), next, "next_key must be the exact pop key");
                now = at;
                popped.push((at, s));
            }
        }
        while let Some((at, s, _)) = w.pop() {
            popped.push((at, s));
        }
        reference.sort_unstable();
        assert_eq!(popped, reference);
        assert!(w.is_empty() && w.next_key().is_none());
    }

    /// Same-timestamp entries must come out in seq order (the determinism
    /// tiebreak), wherever they were stored.
    #[test]
    fn seq_breaks_ties() {
        let mut w = TimerWheel::new();
        for seq in 1..=50u64 {
            w.insert(1_000_000, seq, ());
        }
        for expect in 1..=50u64 {
            assert_eq!(w.pop().map(|(_, s, _)| s), Some(expect));
        }
    }

    /// A pop may advance the origin past a later insert's timestamp; such
    /// late inserts must still come out in exact order (they ride the due
    /// window).
    #[test]
    fn late_inserts_after_origin_advance() {
        let mut w = TimerWheel::new();
        w.insert(10_000_000, 1, 1u32);
        assert_eq!(w.pop().map(|(at, ..)| at), Some(10_000_000));
        // Origin is now ~10 ms; arm timers "in the past" relative to it
        // (legal: the engine's clock is only at 10 ms).
        w.insert(10_000_100, 2, 2);
        w.insert(10_000_050, 3, 3);
        w.insert(12_000_000, 4, 4);
        assert_eq!(w.next_key(), Some((10_000_050, 3)));
        assert_eq!(w.pop().map(|(at, seq, _)| (at, seq)), Some((10_000_050, 3)));
        assert_eq!(w.pop().map(|(at, seq, _)| (at, seq)), Some((10_000_100, 2)));
        assert_eq!(w.pop().map(|(at, seq, _)| (at, seq)), Some((12_000_000, 4)));
    }

    /// The wheel and a reference `BinaryHeap<Reverse<(at, seq)>>` driven in
    /// lock-step: every pop (and the peek before it) must agree.
    struct Lockstep {
        model: std::collections::BinaryHeap<std::cmp::Reverse<(Nanos, u64)>>,
        wheel: TimerWheel<()>,
        seq: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep { model: Default::default(), wheel: TimerWheel::new(), seq: 0 }
        }

        fn insert(&mut self, at: Nanos) {
            self.seq += 1;
            self.model.push(std::cmp::Reverse((at, self.seq)));
            self.wheel.insert(at, self.seq, ());
        }

        fn pop(&mut self) -> Nanos {
            let std::cmp::Reverse(want) = self.model.pop().expect("pop on an empty pair");
            assert_eq!(self.wheel.next_key(), Some(want));
            assert_eq!(self.wheel.pop().map(|(at, seq, ())| (at, seq)), Some(want));
            want.0
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            assert!(self.wheel.is_empty() && self.wheel.next_key().is_none());
        }
    }

    /// 100 k timers at one instant fire in `seq` order — with the instant
    /// in a future slot (one sort when the origin reaches it) and inside
    /// the live due window (every arm is a late insert; a naive sorted
    /// insert would be quadratic).
    #[test]
    fn same_instant_flood_matches_reference_heap() {
        for warm in [false, true] {
            let mut p = Lockstep::new();
            if warm {
                p.insert(1_000_000);
                p.pop();
            }
            for _ in 0..100_000 {
                p.insert(1_000_000);
            }
            p.drain();
        }
    }

    /// Every arm lands inside an already-crowded due window: ascending in
    /// time (behind the sorted run's tail), then descending (ahead of it),
    /// then below the origin after a pop moved it ahead of the clock.
    #[test]
    fn late_inserts_into_a_crowded_due_window() {
        let mut p = Lockstep::new();
        // 2 000 timers in one level-0 slot, [40960, 45056).
        for i in 0..2_000u64 {
            p.insert(40_960 + (i * 7) % 4_096);
        }
        let mut now = p.pop(); // origin moves onto the crowded slot
        for i in 0..500 {
            p.insert(now + 1 + i * 5);
        }
        for _ in 0..700 {
            now = p.pop();
        }
        for at in (now..now + 500).rev() {
            p.insert(at);
        }
        for _ in 0..400 {
            p.pop();
            let now = p.pop();
            p.insert(now);
            p.insert(now + 1);
        }
        p.drain();
        // Popping the 50 ms timer primes `due` from the 90 ms one, so the
        // origin runs 40 ms ahead of the clock; everything armed in between
        // is below `due_start` and rides the due window.
        p.insert(50_000_000);
        p.insert(90_000_000);
        let now = p.pop();
        for i in 0..1_000u64 {
            p.insert(now + (i * 7_919) % 3_000_000);
        }
        p.drain();
    }

    /// next_key never reorganizes: a far-future minimum peeked many times
    /// must not stop near-future inserts from ordering correctly.
    #[test]
    fn peek_does_not_advance_origin() {
        let mut w = TimerWheel::new();
        w.insert(3_000_000_000, 1, 1u32); // 3 s out
        for _ in 0..100 {
            assert_eq!(w.next_key(), Some((3_000_000_000, 1)));
        }
        // A near-future timer armed after all that peeking still wins.
        w.insert(5_000, 2, 2);
        assert_eq!(w.next_key(), Some((5_000, 2)));
        assert_eq!(w.pop().map(|(at, ..)| at), Some(5_000));
        assert_eq!(w.pop().map(|(at, ..)| at), Some(3_000_000_000));
    }

    /// A million armed far-future timers: inserts are O(1) slot pushes and
    /// the wheel drains them in exact order (spot-checked via checksum
    /// against the insertion set).
    #[test]
    fn million_timers_drain_in_order() {
        let mut w = TimerWheel::new();
        let n = 1_000_000u64;
        for i in 0..n {
            // Spread over ~4 ms like a fleet of armed RTOs.
            let at = 1_000_000 + (i * 2_654_435_761) % 4_000_000;
            w.insert(at, i + 1, ());
        }
        assert_eq!(w.len(), n as usize);
        let mut last = (0, 0);
        let mut count = 0u64;
        while let Some((at, seq, _)) = w.pop() {
            assert!((at, seq) > last, "out of order at entry {count}");
            last = (at, seq);
            count += 1;
        }
        assert_eq!(count, n);
    }
}
