//! Calendar queue for the event engine's hot path.
//!
//! The simulator's pending-event set is dominated by near-future events
//! (packet arrivals and port-free events a few hundred nanoseconds out)
//! plus a thin tail of far-future timers (RTOs, deadlines seconds away). A
//! global binary heap pays `O(log n)` per operation on everything; this
//! queue gives the near-future majority `O(1)` inserts by spreading them
//! over a wheel of time buckets, and orders only the current bucket — a
//! handful of events — once, when the wheel reaches it.
//!
//! Layout, from soonest to latest:
//!
//! * `cur`: every pending event before `cur_start + WIDTH` (the *current
//!   bucket*), as a `SortedWindow`: a run sorted once per rotation and
//!   popped from its end, plus a side heap for inserts that land inside
//!   the window while it drains. `next_key`/`pop` only ever touch `cur`,
//!   and on the common path are a `Vec::last`/`Vec::pop`.
//! * `buckets`: a power-of-two wheel of unsorted `Vec`s covering
//!   `[cur_start + WIDTH, cur_start + WIDTH * NBUCKETS)`; slot =
//!   `(at / WIDTH) % NBUCKETS`. Inserts are a push; a bucket is sorted
//!   wholesale only when the wheel rotates onto it. A slot owns a buffer
//!   only while it holds entries: the run a rotation replaces goes onto a
//!   LIFO `spare` list, and the first push into an empty slot takes the
//!   most recently freed buffer — still in cache — allocating only when the
//!   list is empty. Buffers in circulation therefore track the peak number
//!   of simultaneously non-empty buckets (tens), not `NBUCKETS`. Returning
//!   the drained run to the rotated slot would leave every slot holding a
//!   buffer sized to the largest bucket it ever saw, cold by the time the
//!   wheel laps back to it. Steady-state rotations allocate nothing.
//! * `overflow`: min-heap for everything at or past the wheel horizon.
//!   Entries migrate onto the wheel as the horizon advances past them.
//!
//! Ordering contract — the part determinism rests on: keys are `(at, seq)`
//! with `seq` a unique insertion counter, and `pop` returns entries in
//! exactly ascending `(at, seq)` order, byte-for-byte the order one global
//! binary heap over `Reverse<(at, seq)>` produces
//! (`tests/equeue_equivalence.rs` holds the two side by side). The
//! structure only changes *where* an entry waits, never how ties break:
//! same-`at` entries always share a bucket window, so they meet again in
//! `cur` before either can be popped, and `cur` orders by the full key
//! whichever of its two containers an entry sits in.
//!
//! The bucket width adapts to the pending-event density (deterministically:
//! the triggers are pure functions of the operation sequence). Sustained
//! crowded rotations — the >20k-pending incast regime, where a fixed-width
//! bucket would hold hundreds of entries and every rotation pays a big
//! sort — halve the width; long runs of empty rotations double it back. A
//! width change re-buckets all pending entries in one O(n) pass and is
//! rare by hysteresis; it never affects pop order.

use crate::time::Nanos;
use crate::window::{Entry, SortedWindow};
use std::collections::BinaryHeap;

/// log2 of the starting bucket width: 1024 ns per bucket.
const DEFAULT_WIDTH_LOG2: u32 = 10;
/// Adaptive width bounds: 16 ns (dense incast) to ~1 ms (sparse timers).
const MIN_WIDTH_LOG2: u32 = 4;
const MAX_WIDTH_LOG2: u32 = 20;
/// Wheel size (power of two): horizon = width * NBUCKETS (≈1 ms at the
/// default width).
const NBUCKETS: usize = 1024;
/// A rotation sorting more entries than this counts as crowded.
const CROWDED_BUCKET: usize = 64;
/// Consecutive crowded rotations before the width halves.
const SHRINK_AFTER: u32 = 8;
/// Rotation window over which average occupancy is evaluated; the width
/// doubles when it falls below one entry per rotated bucket (rotations are
/// mostly wasted). The band between 1 and `CROWDED_BUCKET` entries per
/// bucket is the hysteresis that keeps mixed workloads still.
const GROW_WINDOW: u32 = 4096;

/// Deterministic timer queue keyed on `(time, seq)`; see module docs.
pub struct EventQueue<T> {
    /// log2 of the current bucket width (adaptive; see module docs).
    width_log2: u32,
    /// Start of the current bucket's window; multiple of the width.
    cur_start: Nanos,
    /// All entries with `at < cur_start + width`, earliest first.
    cur: SortedWindow<T>,
    /// An empty slot owns no buffer (capacity 0).
    buckets: Vec<Vec<Entry<T>>>,
    /// Empty buffers freed by rotations and re-bucketing, most recent last.
    spare: Vec<Vec<Entry<T>>>,
    /// Total entries across `buckets`.
    in_buckets: usize,
    overflow: BinaryHeap<Entry<T>>,
    len: usize,
    peak_len: usize,
    /// Consecutive crowded rotations (shrink trigger).
    crowded_rotations: u32,
    /// Rotations and total entries sorted in the current grow-evaluation
    /// window.
    window_rotations: u32,
    window_rotated: u64,
    /// Largest bucket ever sorted in one rotation — the structure's actual
    /// per-rotation sort exposure, which adaptation exists to bound.
    peak_rotated: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            width_log2: DEFAULT_WIDTH_LOG2,
            cur_start: 0,
            cur: SortedWindow::new(),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            // At most one buffer per slot plus the run's ever exists, so
            // freeing one never grows the list.
            spare: Vec::with_capacity(NBUCKETS + 1),
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            crowded_rotations: 0,
            window_rotations: 0,
            window_rotated: 0,
            peak_rotated: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of pending entries over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Current (adaptive) log2 bucket width.
    pub fn width_log2(&self) -> u32 {
        self.width_log2
    }

    /// Largest single-rotation sort so far — bounded by adaptation even
    /// when tens of thousands of events are pending.
    pub fn peak_rotated(&self) -> usize {
        self.peak_rotated
    }

    #[inline]
    fn width(&self) -> Nanos {
        1 << self.width_log2
    }

    fn horizon(&self) -> Nanos {
        self.cur_start + ((NBUCKETS as Nanos) << self.width_log2)
    }

    /// Routes an entry to `cur`, the wheel or overflow. No accounting —
    /// shared by `insert` and width-change re-bucketing.
    #[inline]
    fn place(&mut self, e: Entry<T>) {
        if e.at < self.cur_start + self.width() {
            self.cur.push(e);
        } else if e.at < self.horizon() {
            let b = &mut self.buckets[(e.at >> self.width_log2) as usize & (NBUCKETS - 1)];
            if b.capacity() == 0 {
                *b = self.spare.pop().unwrap_or_default();
            }
            b.push(e);
            self.in_buckets += 1;
        } else {
            self.overflow.push(e);
        }
    }

    /// Inserts an entry. `(at, seq)` pairs must be unique and `seq`
    /// monotonically increasing across calls (the simulator's event
    /// counter); `at` may not precede the last popped time.
    pub fn insert(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.place(Entry { at, seq, item });
    }

    /// Re-buckets every pending entry under a new width: one O(n) pass,
    /// rare by hysteresis. Pop order is unaffected — only *where* entries
    /// wait changes.
    fn set_width(&mut self, new_log2: u32) {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        // `cur` must be re-placed too: when the width shrinks, entries it
        // holds beyond the new window would otherwise be popped ahead of
        // earlier entries that later inserts put in the buckets in between.
        self.cur.drain_into(&mut all);
        for b in &mut self.buckets {
            if b.capacity() > 0 {
                all.append(b);
                self.spare.push(std::mem::take(b));
            }
        }
        all.extend(std::mem::take(&mut self.overflow));
        self.in_buckets = 0;
        self.width_log2 = new_log2;
        // Realign the current window. Entries below `cur_start` (late
        // inserts after the wheel advanced) re-enter `cur` via `place`'s
        // `< cur_start + width` test, so nothing is stranded.
        self.cur_start = (self.cur_start >> new_log2) << new_log2;
        for e in all {
            self.place(e);
        }
        self.crowded_rotations = 0;
        self.window_rotations = 0;
        self.window_rotated = 0;
    }

    /// Timestamp of the earliest pending entry. `&mut` because reaching the
    /// next entry may rotate the wheel (a reorganization, not a removal).
    pub fn next_at(&mut self) -> Option<Nanos> {
        self.next_key().map(|(at, _)| at)
    }

    /// Full `(at, seq)` key of the earliest pending entry — what lets a
    /// shard merge this queue with its timer wheel into one total order.
    pub fn next_key(&mut self) -> Option<(Nanos, u64)> {
        self.advance();
        self.cur.next_key()
    }

    /// Removes and returns the earliest entry as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        self.advance();
        let e = self.cur.pop()?;
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }

    /// Rotates the wheel until the current bucket holds the next entry (or
    /// the queue is empty). No-op while `cur` is non-empty: everything in
    /// later buckets/overflow is strictly after the current window.
    fn advance(&mut self) {
        while self.cur.is_empty() && self.len > 0 {
            if self.in_buckets > 0 {
                self.cur_start += self.width();
                let idx = (self.cur_start >> self.width_log2) as usize & (NBUCKETS - 1);
                let v = std::mem::take(&mut self.buckets[idx]);
                self.in_buckets -= v.len();
                let rotated = v.len();
                self.peak_rotated = self.peak_rotated.max(rotated);
                // Sort in place; the drained run's storage becomes the next
                // spare, and the rotated slot stays empty.
                let run = self.cur.load(v);
                if run.capacity() > 0 {
                    self.spare.push(run);
                }
                self.migrate_overflow();
                self.adapt(rotated);
            } else {
                // Only overflow left: jump the wheel straight to its min
                // instead of rotating through empty buckets (a far-future
                // RTO would otherwise cost millions of rotations).
                let at = self.overflow.peek().expect("len>0 with empty wheel").at;
                self.cur_start = (at >> self.width_log2) << self.width_log2;
                self.migrate_overflow();
            }
        }
    }

    /// Width adaptation, fed one rotation's bucket size. Sustained crowded
    /// rotations halve the width (big per-rotation sorts otherwise); a window
    /// averaging under one entry per rotated bucket doubles it back (the
    /// rotations are mostly wasted work).
    fn adapt(&mut self, rotated: usize) {
        if rotated > CROWDED_BUCKET {
            self.crowded_rotations += 1;
            if self.crowded_rotations >= SHRINK_AFTER && self.width_log2 > MIN_WIDTH_LOG2 {
                self.set_width(self.width_log2 - 1);
                return;
            }
        } else {
            self.crowded_rotations = 0;
        }
        self.window_rotations += 1;
        self.window_rotated += rotated as u64;
        if self.window_rotations >= GROW_WINDOW {
            if self.window_rotated < u64::from(self.window_rotations)
                && self.width_log2 < MAX_WIDTH_LOG2
            {
                self.set_width(self.width_log2 + 1);
            } else {
                self.window_rotations = 0;
                self.window_rotated = 0;
            }
        }
    }

    /// Moves overflow entries that fell inside the (advanced) horizon onto
    /// the wheel.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while self.overflow.peek().is_some_and(|e| e.at < horizon) {
            let e = self.overflow.pop().expect("peeked");
            self.place(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> EventQueue<T> {
        /// Capacity, in entries, of the current window, every bucket and
        /// every spare buffer.
        fn storage(&self) -> usize {
            let held = |v: &Vec<Vec<Entry<T>>>| v.iter().map(Vec::capacity).sum::<usize>();
            self.cur.capacity() + held(&self.buckets) + held(&self.spare)
        }

        /// Bucket buffers in circulation: slots holding capacity plus spares.
        fn bucket_buffers(&self) -> usize {
            self.buckets.iter().filter(|b| b.capacity() > 0).count() + self.spare.len()
        }

        fn nonempty_buckets(&self) -> usize {
            self.buckets.iter().filter(|b| !b.is_empty()).count()
        }
    }

    /// Drains `q` and checks strict ascending (at, seq) order.
    fn drain_sorted(q: &mut EventQueue<u32>) -> Vec<(Nanos, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        for w in out.windows(2) {
            assert!(w[0] < w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
        out
    }

    #[test]
    fn orders_across_buckets_and_overflow() {
        let mut q = EventQueue::new();
        // Same-time entries (seq tiebreak), near bucket, far bucket, and a
        // far-future overflow entry, inserted shuffled.
        let inserts: &[(Nanos, u64)] = &[
            (5_000, 3),
            (10, 1),
            (10, 2),
            (3_000_000_000, 4), // 3 s: overflow
            (900_000, 5),       // within horizon
            (0, 6),
            (5_000, 7),
        ];
        for &(at, seq) in inserts {
            q.insert(at, seq, seq as u32);
        }
        assert_eq!(q.len(), inserts.len());
        assert_eq!(q.peak_len(), inserts.len());
        let order = drain_sorted(&mut q);
        assert_eq!(
            order,
            vec![
                (0, 6),
                (10, 1),
                (10, 2),
                (5_000, 3),
                (5_000, 7),
                (900_000, 5),
                (3_000_000_000, 4)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_insert_pop_matches_global_heap() {
        // Deterministic pseudo-random workload compared against a reference
        // sort; inserts respect `at >= last popped time` like the simulator.
        let mut q = EventQueue::new();
        let mut reference: Vec<(Nanos, u64)> = Vec::new();
        let mut state: u64 = 0x1234_5678;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now: Nanos = 0;
        let mut popped = Vec::new();
        for _ in 0..5_000 {
            if rng() % 3 != 0 || q.is_empty() {
                seq += 1;
                // Mix of near (same bucket), mid (wheel) and far (overflow).
                let delta = match rng() % 10 {
                    0..=5 => rng() % 800,
                    6..=8 => rng() % 500_000,
                    _ => 1_000_000 + rng() % 4_000_000_000,
                };
                let at = now + delta;
                q.insert(at, seq, seq as u32);
                reference.push((at, seq));
            } else {
                let (at, s, _) = q.pop().unwrap();
                now = at;
                popped.push((at, s));
            }
        }
        while let Some((at, s, _)) = q.pop() {
            popped.push((at, s));
        }
        reference.sort_unstable();
        assert_eq!(popped, reference);
    }

    /// The >20k-pending incast regime: sustained density far above the
    /// default bucket capacity. The width must shrink (deterministically),
    /// per-rotation sorts must stay bounded instead of scaling with the
    /// pending count — the structural guarantee behind non-super-linear
    /// cost — and the pop order must still exactly match a reference sort.
    /// Every fourth pop also schedules a late insert into the current
    /// window, so the sorted run *and* its side heap are in play; once the
    /// churn is steady neither they nor the buckets may grow (drained runs
    /// return to the spare list, the side heap keeps its own).
    #[test]
    fn dense_churn_adapts_width_and_bounds_rotations() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(Nanos, u64)> = Vec::new();
        let pending = 30_000u64;
        let span = pending * 10; // ~100 entries/µs: crowded at 1024 ns
        let mut seq = 0u64;
        for i in 0..pending {
            seq += 1;
            let at = (i * 7_919) % span;
            q.insert(at, seq, seq as u32);
            reference.push((at, seq));
        }
        // Steady churn: every pop schedules a successor one span ahead,
        // keeping the pending set at 30k while the wheel rotates through
        // the dense region.
        let mut popped = Vec::new();
        let mut steady_storage = 0;
        for i in 0..100_000 {
            if i == 50_000 {
                steady_storage = q.storage();
            }
            let (at, s, late) = q.pop().unwrap();
            popped.push((at, s));
            if late == 0 {
                continue; // a late insert has no successor
            }
            seq += 1;
            q.insert(at + span, seq, seq as u32);
            reference.push((at + span, seq));
            if i % 4 == 0 {
                seq += 1;
                q.insert(at + 1, seq, 0);
                reference.push((at + 1, seq));
            }
        }
        assert_eq!(q.storage(), steady_storage, "steady churn must recycle storage, not grow it");
        while let Some((at, s, _)) = q.pop() {
            popped.push((at, s));
        }
        reference.sort_unstable();
        assert_eq!(popped, reference, "adaptation must never change pop order");
        assert!(
            q.width_log2() < DEFAULT_WIDTH_LOG2,
            "a 100-entries/µs regime must shrink the bucket width (still {})",
            q.width_log2()
        );
        assert!(
            q.peak_rotated() < 2_048,
            "per-rotation sort must stay bounded with 30k pending, saw {}",
            q.peak_rotated()
        );
    }

    /// After a dense phase, a sparse phase (entries a couple of µs apart)
    /// must grow the width back so rotations stop burning empty cycles.
    #[test]
    fn sparse_phase_grows_width_back() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        // Dense phase: force a shrink.
        for i in 0..40_000u64 {
            seq += 1;
            q.insert(i * 10, seq, 0u32);
        }
        while q.pop().is_some() {}
        let shrunk = q.width_log2();
        assert!(shrunk < DEFAULT_WIDTH_LOG2, "dense phase must shrink, still {shrunk}");
        // Sparse phase: one entry per 2 µs, always within the wheel.
        let mut now: Nanos = 500_000;
        for _ in 0..40_000u64 {
            seq += 1;
            q.insert(now + 2_000, seq, 0u32);
            let (at, ..) = q.pop().unwrap();
            now = at;
        }
        assert!(
            q.width_log2() > shrunk,
            "sparse phase must grow the width back (still {})",
            q.width_log2()
        );
    }

    /// Bucket storage follows occupancy, not the wheel size: a narrow steady
    /// churn (a few buckets ahead of the cursor ever occupied) lapping the
    /// wheel several times keeps only about as many buffers as buckets it
    /// ever had occupied at once, not one per slot it passed over.
    #[test]
    fn lapping_churn_keeps_buffers_to_peak_occupancy() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        // 16 pending entries each rescheduled ~4 µs out: ~4 entries per
        // 1024 ns bucket, between the grow and shrink triggers.
        for i in 0..16u64 {
            seq += 1;
            q.insert(i * 256, seq, 0u32);
        }
        let horizon = (NBUCKETS as Nanos) << DEFAULT_WIDTH_LOG2;
        let mut peak_nonempty = q.nonempty_buckets();
        let mut now = 0;
        while now < 3 * horizon + 1 {
            let (at, s, _) = q.pop().unwrap();
            now = at;
            seq += 1;
            q.insert(at + 3_500 + s % 7 * 150, seq, 0);
            peak_nonempty = peak_nonempty.max(q.nonempty_buckets());
        }
        assert_eq!(q.width_log2(), DEFAULT_WIDTH_LOG2, "the churn must not re-adapt the width");
        assert!(
            q.bucket_buffers() <= peak_nonempty + 2,
            "{} bucket buffers for at most {peak_nonempty} occupied buckets",
            q.bucket_buffers()
        );
    }

    #[test]
    fn next_at_does_not_consume() {
        let mut q = EventQueue::new();
        q.insert(7_000, 1, 0u32);
        assert_eq!(q.next_at(), Some(7_000));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(at, ..)| at), Some(7_000));
        assert_eq!(q.next_at(), None);
    }
}
