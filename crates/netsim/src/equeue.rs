//! The event engine's pending-event set: one hierarchical timing wheel per
//! shard (Varghese & Lauck, SOSP '87) that holds every event, endpoint
//! timers included.
//!
//! Layout, from soonest to latest:
//!
//! * Level 0: 4 096 slots of exactly one nanosecond, each a FIFO list,
//!   covering the 4 096-ns block that holds the wheel's *origin*. A
//!   two-word occupancy bitmap (a summary word over 64 leaf words) finds
//!   the first occupied slot with two `tzcnt`s.
//! * Nine digit levels of 64 slots above it: level `l` buckets entries by
//!   bits `[12 + 6l, 12 + 6(l+1))` of their timestamp. An entry lives at
//!   the highest level where its digit differs from the origin's, so it
//!   cascades down at most nine times over its life — the engine's bulk,
//!   a few µs to a few hundred µs out, once or twice. The digits cover all
//!   64 bits of a timestamp (the top level uses 16 of its 64 slots), so no
//!   event is too far out for the wheel. Each slot caches its minimum key,
//!   so a peek never walks a list.
//! * Every entry is a node in one arena, linked by index. A popped node
//!   goes onto an intrusive LIFO free list and the next insert takes it
//!   back while it is still in cache, so steady-state churn allocates
//!   nothing and the arena tracks the peak pending count.
//!
//! Ordering contract — the part determinism rests on: keys are `(at, seq)`
//! with `seq` rising on every insert (the owning shard's event counter;
//! `insert` debug-asserts it), and `pop` returns entries in exactly
//! ascending `(at, seq)` order, the order one global binary heap over
//! `Reverse<(at, seq)>` produces (`tests/equeue_equivalence.rs` holds the
//! two side by side). No operation compares keys to get there:
//!
//! * every list is in `seq` order: an insert appends the newest `seq`, and
//!   a cascade moves one list, in order, into slots that were empty (every
//!   level below the cascading one is);
//! * a level-0 slot holds a single nanosecond, so its `seq` order *is*
//!   `(at, seq)` order, and slots, levels and digits order the rest.
//!
//! Both rest on one rule: no insert lands before the origin. The origin
//! moves only inside `pop`, and never past the entry popped; inserts may
//! not precede the last popped time. So [`EventQueue::next_key`] is a
//! `&self` peek — it reads the first occupied slot's cached minimum while
//! level 0 is empty, and never cascades ahead of the clock.

use crate::time::Nanos;

/// log2 of level 0's span: 4 096 one-nanosecond slots.
const L0_BITS: u32 = 12;
const L0_SLOTS: usize = 1 << L0_BITS;
/// log2 of every digit level's fan-out (64 slots: one `u64` of occupancy).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// 12 + 6·9 = 66 ≥ 64: nine digits cover every bit of a [`Nanos`].
const LEVELS: usize = 9;
/// End of a list / no node. Links are arena index + 1, so the slot arrays
/// start out as zeroed memory.
const NIL: u32 = 0;

/// Lowest timestamp bit of digit level `l`.
#[inline]
fn shift(l: usize) -> u32 {
    L0_BITS + SLOT_BITS * l as u32
}

/// `at` with every bit below `bits` cleared (`bits` reaches 66 above the
/// top level, where nothing is left).
#[inline]
fn clear_below(at: Nanos, bits: u32) -> Nanos {
    at.checked_shr(bits).map_or(0, |v| v << bits)
}

/// One pending entry, or a free node (then `next` links the free list and
/// the rest is stale).
struct Node<T> {
    at: Nanos,
    seq: u64,
    next: u32,
    item: T,
}

/// Deterministic event queue keyed on `(time, seq)`; see module docs.
/// Payloads are `Copy` handles (the engine's `Event`): a freed node keeps a
/// stale copy until an insert overwrites it.
pub struct EventQueue<T> {
    /// Every entry is at or past it; level 0 covers its 4 096-ns block.
    origin: Nanos,
    /// List heads and tails: level 0's slots first, then digit level `l`'s
    /// slot `s` at `L0_SLOTS + l * SLOTS + s`. A tail is stale while its
    /// head is `NIL`.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Level-0 occupancy: slot `s` is bit `s % 64` of word `s / 64`, and
    /// `l0_sum` has bit `w` set while word `w` is non-zero.
    l0_occ: [u64; L0_SLOTS / 64],
    l0_sum: u64,
    /// Digit-level occupancy, and `up_sum` bit `l` while `occ[l]` is
    /// non-zero.
    occ: [u64; LEVELS],
    up_sum: u64,
    /// `(at, seq)` minimum of each occupied digit-level slot.
    min: Vec<(Nanos, u64)>,
    nodes: Vec<Node<T>>,
    /// Head of the free-node list.
    free: u32,
    len: usize,
    peak_len: usize,
    /// Lowest `seq` the next insert may carry.
    seq_floor: u64,
}

impl<T: Copy> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> {
    pub fn new() -> Self {
        const LISTS: usize = L0_SLOTS + LEVELS * SLOTS;
        EventQueue {
            origin: 0,
            head: vec![NIL; LISTS],
            tail: vec![NIL; LISTS],
            l0_occ: [0; L0_SLOTS / 64],
            l0_sum: 0,
            occ: [0; LEVELS],
            up_sum: 0,
            min: vec![(0, 0); LEVELS * SLOTS],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            peak_len: 0,
            seq_floor: 0,
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

    /// Heap the queue holds: the node arena plus the slot arrays.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<T>>()
            + (self.head.capacity() + self.tail.capacity()) * std::mem::size_of::<u32>()
            + self.min.capacity() * std::mem::size_of::<(Nanos, u64)>()
    }

    /// Inserts an entry. `seq` must rise on every call (the simulator's
    /// event counter) and `at` may not precede the last popped time.
    pub fn insert(&mut self, at: Nanos, seq: u64, item: T) {
        debug_assert!(
            seq >= self.seq_floor,
            "insert seq {seq} does not rise: the 1-ns FIFO slots order ties by insertion"
        );
        debug_assert!(at >= self.origin, "insert at {at} precedes the last pop ({})", self.origin);
        self.seq_floor = seq.saturating_add(1);
        let node = Node { at, seq, next: NIL, item };
        let i = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len()).expect("node links are u32: under 2^32 pending events")
        } else {
            let i = self.free;
            let slot = &mut self.nodes[i as usize - 1];
            self.free = slot.next;
            *slot = node;
            i
        };
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        self.place(i, at, seq);
    }

    /// Appends node `i` to its slot's list against the current origin.
    /// Shared by `insert` and cascades.
    #[inline]
    fn place(&mut self, i: u32, at: Nanos, seq: u64) {
        let diff = at ^ self.origin;
        let list = if diff < L0_SLOTS as Nanos {
            let s = at as usize & (L0_SLOTS - 1);
            self.l0_occ[s / 64] |= 1 << (s % 64);
            self.l0_sum |= 1 << (s / 64);
            s
        } else {
            // The highest differing bit is at or above bit 12, so the
            // entry waits at that bit's digit level.
            let l = ((diff.ilog2() - L0_BITS) / SLOT_BITS) as usize;
            let s = (at >> shift(l)) as usize & (SLOTS - 1);
            let u = l * SLOTS + s;
            if self.occ[l] & (1 << s) == 0 {
                self.occ[l] |= 1 << s;
                self.up_sum |= 1 << l;
                self.min[u] = (at, seq);
            } else if at < self.min[u].0 {
                // A tie keeps the earlier entry: lists are in `seq` order.
                self.min[u] = (at, seq);
            }
            L0_SLOTS + u
        };
        self.nodes[i as usize - 1].next = NIL;
        match self.head[list] {
            NIL => self.head[list] = i,
            _ => self.nodes[self.tail[list] as usize - 1].next = i,
        }
        self.tail[list] = i;
    }

    /// First occupied level-0 slot.
    #[inline]
    fn l0_first(&self) -> usize {
        let w = self.l0_sum.trailing_zeros() as usize;
        w * 64 + self.l0_occ[w].trailing_zeros() as usize
    }

    /// First occupied digit-level slot as `(level, slot)`. Every occupied
    /// slot's digit exceeds the origin's at its level, so the lowest level's
    /// lowest slot holds the earliest entries.
    #[inline]
    fn up_first(&self) -> Option<(usize, usize)> {
        if self.up_sum == 0 {
            return None;
        }
        let l = self.up_sum.trailing_zeros() as usize;
        Some((l, self.occ[l].trailing_zeros() as usize))
    }

    /// Timestamp of level-0 slot `s`.
    #[inline]
    fn l0_at(&self, s: usize) -> Nanos {
        (self.origin & !(L0_SLOTS as Nanos - 1)) | s as Nanos
    }

    /// Timestamp of the earliest pending entry.
    pub fn next_at(&self) -> Option<Nanos> {
        self.next_key().map(|(at, _)| at)
    }

    /// Full `(at, seq)` key of the earliest pending entry — O(1), and it
    /// never moves the origin.
    pub fn next_key(&self) -> Option<(Nanos, u64)> {
        if self.l0_sum != 0 {
            let s = self.l0_first();
            Some((self.l0_at(s), self.nodes[self.head[s] as usize - 1].seq))
        } else {
            self.up_first().map(|(l, s)| self.min[l * SLOTS + s])
        }
    }

    /// Removes and returns the earliest entry as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        self.pop_due(Nanos::MAX)
    }

    /// Removes and returns the earliest entry if it is due at or before
    /// `limit`: one search decides both whether and what to pop.
    #[inline]
    pub fn pop_due(&mut self, limit: Nanos) -> Option<(Nanos, u64, T)> {
        if self.l0_sum == 0 {
            let (l, s) = self.up_first()?;
            if self.min[l * SLOTS + s].0 > limit {
                return None;
            }
            self.cascade(l, s);
        }
        let s = self.l0_first();
        let at = self.l0_at(s);
        if at > limit {
            return None;
        }
        let i = self.head[s];
        let node = &mut self.nodes[i as usize - 1];
        let (seq, item, next) = (node.seq, node.item, node.next);
        node.next = self.free;
        self.free = i;
        self.head[s] = next;
        if next == NIL {
            let w = s / 64;
            self.l0_occ[w] &= !(1 << (s % 64));
            if self.l0_occ[w] == 0 {
                self.l0_sum &= !(1 << w);
            }
        }
        self.origin = at;
        self.len -= 1;
        Some((at, seq, item))
    }

    /// Moves the origin to the start of digit slot `(l, s)` — the first
    /// occupied one, with level 0 empty — and re-places its list against
    /// it, lower down; repeats on the next first slot until level 0 holds
    /// an entry. The origin stays at or below every entry, the one about
    /// to pop included.
    fn cascade(&mut self, mut l: usize, mut s: usize) {
        loop {
            self.origin = clear_below(self.origin, shift(l + 1)) | (s as Nanos) << shift(l);
            self.occ[l] &= !(1 << s);
            if self.occ[l] == 0 {
                self.up_sum &= !(1 << l);
            }
            let mut i = std::mem::replace(&mut self.head[L0_SLOTS + l * SLOTS + s], NIL);
            while i != NIL {
                let node = &self.nodes[i as usize - 1];
                let (at, seq, next) = (node.at, node.seq, node.next);
                self.place(i, at, seq);
                i = next;
            }
            if self.l0_sum != 0 {
                return;
            }
            (l, s) = self.up_first().expect("a cascade re-places its entries below it");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Same-time entries (seq tiebreak) in level 0 and in digit levels 0
        // and 1, and a 3 s entry at digit level 3.
        let inserts: &[(Nanos, u64)] =
            &[(5_000, 3), (10, 4), (10, 5), (3_000_000_000, 6), (900_000, 7), (0, 8), (5_000, 9)];
        for &(at, seq) in inserts {
            q.insert(at, seq, seq as u32);
        }
        assert_eq!(q.len(), inserts.len());
        assert_eq!(q.peak_len(), inserts.len());
        let order = drain_sorted(&mut q);
        assert_eq!(
            order,
            vec![
                (0, 8),
                (10, 4),
                (10, 5),
                (5_000, 3),
                (5_000, 9),
                (900_000, 7),
                (3_000_000_000, 6)
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
                // Mix of level 0, the first digit levels and far timers.
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

    #[test]
    fn next_at_does_not_consume() {
        let mut q = EventQueue::new();
        q.insert(7_000, 1, 0u32);
        assert_eq!(q.next_at(), Some(7_000));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(at, ..)| at), Some(7_000));
        assert_eq!(q.next_at(), None);
    }

    /// Same-timestamp entries must come out in seq order (the determinism
    /// tiebreak), whichever level they were stored at.
    #[test]
    fn seq_breaks_ties() {
        let mut q = EventQueue::new();
        for seq in 1..=50u64 {
            q.insert(1_000_000, seq, ());
        }
        for expect in 1..=50u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(expect));
        }
    }

    /// After a pop moved the origin to 10 ms, inserts just past it land in
    /// level 0 and digit levels alike and still come out in exact order.
    #[test]
    fn late_inserts_after_origin_advance() {
        let mut q = EventQueue::new();
        q.insert(10_000_000, 1, 1u32);
        assert_eq!(q.pop().map(|(at, ..)| at), Some(10_000_000));
        q.insert(10_000_100, 2, 2);
        q.insert(10_000_050, 3, 3);
        q.insert(12_000_000, 4, 4);
        assert_eq!(q.next_key(), Some((10_000_050, 3)));
        assert_eq!(q.pop().map(|(at, seq, _)| (at, seq)), Some((10_000_050, 3)));
        assert_eq!(q.pop().map(|(at, seq, _)| (at, seq)), Some((10_000_100, 2)));
        assert_eq!(q.pop().map(|(at, seq, _)| (at, seq)), Some((12_000_000, 4)));
    }

    /// The queue and a reference `BinaryHeap<Reverse<(at, seq)>>` driven in
    /// lock-step: every pop (and the peek before it) must agree.
    struct Lockstep {
        model: std::collections::BinaryHeap<std::cmp::Reverse<(Nanos, u64)>>,
        queue: EventQueue<()>,
        seq: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep { model: Default::default(), queue: EventQueue::new(), seq: 0 }
        }

        fn insert(&mut self, at: Nanos) {
            self.seq += 1;
            self.model.push(std::cmp::Reverse((at, self.seq)));
            self.queue.insert(at, self.seq, ());
        }

        fn pop(&mut self) -> Nanos {
            let std::cmp::Reverse(want) = self.model.pop().expect("pop on an empty pair");
            assert_eq!(self.queue.next_key(), Some(want));
            assert_eq!(self.queue.pop().map(|(at, seq, ())| (at, seq)), Some(want));
            want.0
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            assert!(self.queue.is_empty() && self.queue.next_key().is_none());
        }
    }

    /// 100 k entries at one instant fire in `seq` order — with the instant
    /// in a digit-level slot (one cascade moves the whole list) and at the
    /// origin itself (every insert appends to the live level-0 slot).
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

    /// Inserts into a crowded 4 096-ns block while it drains: ascending,
    /// descending, at the clock, and after the origin jumped 40 ms.
    #[test]
    fn late_inserts_into_a_crowded_due_window() {
        let mut p = Lockstep::new();
        // 2 000 entries in one level-1 slot, [40960, 45056).
        for i in 0..2_000u64 {
            p.insert(40_960 + (i * 7) % 4_096);
        }
        let mut now = p.pop(); // cascades the crowded slot into level 0
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
        p.insert(50_000_000);
        p.insert(90_000_000);
        let now = p.pop();
        for i in 0..1_000u64 {
            p.insert(now + (i * 7_919) % 3_000_000);
        }
        p.drain();
    }

    /// `next_key` never reorganizes: a far-future minimum peeked many times
    /// must not stop near-future inserts from ordering correctly.
    #[test]
    fn peek_does_not_advance_origin() {
        let mut q = EventQueue::new();
        q.insert(3_000_000_000, 1, 1u32); // 3 s out
        for _ in 0..100 {
            assert_eq!(q.next_key(), Some((3_000_000_000, 1)));
        }
        // A near-future entry inserted after all that peeking still wins.
        q.insert(5_000, 2, 2);
        assert_eq!(q.next_key(), Some((5_000, 2)));
        assert_eq!(q.pop().map(|(at, ..)| at), Some(5_000));
        assert_eq!(q.pop().map(|(at, ..)| at), Some(3_000_000_000));
    }

    /// `pop_due` leaves an entry past its limit where it is: neither a
    /// digit-level cascade nor the origin may move toward it, so an insert
    /// before it that arrives afterwards still pops first.
    #[test]
    fn pop_due_past_the_limit_moves_nothing() {
        let mut q = EventQueue::new();
        q.insert(10_000_000, 1, 1u32);
        assert!(q.pop_due(5_000_000).is_none());
        q.insert(1_000, 2, 2);
        assert!(q.pop_due(999).is_none());
        assert_eq!(q.pop_due(1_000), Some((1_000, 2, 2)));
        q.insert(4_000_000, 3, 3);
        assert_eq!(q.pop_due(9_999_999), Some((4_000_000, 3, 3)));
        assert_eq!(q.pop_due(10_000_000), Some((10_000_000, 1, 1)));
    }

    /// A million far-future entries (a fleet of armed RTOs over ~4 ms):
    /// inserts are list appends and the wheel drains them in exact order.
    #[test]
    fn million_timers_drain_in_order() {
        let mut q = EventQueue::new();
        let n = 1_000_000u64;
        for i in 0..n {
            let at = 1_000_000 + (i * 2_654_435_761) % 4_000_000;
            q.insert(at, i + 1, ());
        }
        assert_eq!(q.len(), n as usize);
        let mut last = (0, 0);
        let mut count = 0u64;
        while let Some((at, seq, _)) = q.pop() {
            assert!((at, seq) > last, "out of order at entry {count}");
            last = (at, seq);
            count += 1;
        }
        assert_eq!(count, n);
    }

    /// Popped nodes are reused: a hold model at a fixed depth keeps the
    /// arena at that depth.
    #[test]
    fn hold_model_recycles_nodes() {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            q.insert(i * 10, i, ());
        }
        let bytes = q.heap_bytes();
        for seq in 1_000..101_000 {
            let (at, ..) = q.pop().unwrap();
            q.insert(at + 10_000, seq, ());
        }
        assert_eq!(q.heap_bytes(), bytes, "steady churn must recycle nodes, not grow the arena");
        assert_eq!(q.nodes.len(), 1_000);
    }

    /// The insert contract the FIFO slots rest on: `seq` must rise.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not rise")]
    fn insert_rejects_a_seq_that_does_not_rise() {
        let mut q = EventQueue::new();
        q.insert(5_000, 7, ());
        q.pop();
        q.insert(5_000, 7, ());
    }
}
