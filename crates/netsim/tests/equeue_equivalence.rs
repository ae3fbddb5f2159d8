//! Pins the event wheel against the ordering of the
//! `BinaryHeap<Reverse<(at, seq)>>` the engine started from: on randomized
//! schedules of interleaved inserts and pops, both structures must yield
//! the exact same (time, seq, payload) sequence. This is the contract that
//! makes every change of the engine's queue invisible to seeded runs.

use dcp_netsim::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The exact shape the simulator used before the calendar queue.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone, Copy)]
struct Scheduled {
    at: u64,
    seq: u64,
    item: u32,
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn matches_old_heap_on_randomized_schedule() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut model: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    for op in 0..20_000 {
        // Bias toward inserts early, pops late, with occasional bursts.
        let roll = rng.next() % 100;
        let inserting = if op < 12_000 { roll < 65 } else { roll < 35 };
        if inserting || model.is_empty() {
            // Mix same-instant (ties resolved by seq), near-future,
            // far-future and timer-like keys up to the top digit level
            // (bits 60–63).
            let delta = match rng.next() % 20 {
                0 | 1 => 0,
                2..=13 => rng.next() % 1_000_000,
                14..=16 => rng.next() % 50_000_000,
                17 | 18 => 200_000_000 + rng.next() % 1_000_000_000,
                _ => (rng.next() >> 1) >> (rng.next() % 28),
            };
            seq += 1;
            let at = now.saturating_add(delta);
            let s = Scheduled { at, seq, item: (rng.next() & 0xffff_ffff) as u32 };
            model.push(Reverse(s));
            queue.insert(s.at, s.seq, s.item);
        } else {
            let Reverse(want) = model.pop().unwrap();
            let got = queue.pop().expect("queue drained before the model");
            assert_eq!((want.at, want.seq, want.item), got, "divergence at op {op}");
            assert!(want.at >= now, "model produced an event in the past");
            now = want.at;
        }
        assert_eq!(model.len(), queue.len());
    }
    // Drain the remainder in lock-step.
    while let Some(Reverse(want)) = model.pop() {
        assert_eq!(Some((want.at, want.seq, want.item)), queue.pop());
    }
    assert!(queue.pop().is_none());
}

/// The event wheel and the reference heap driven in lock-step: every pop,
/// and the peek before it, must agree on `(at, seq, item)`.
struct Pair {
    model: BinaryHeap<Reverse<Scheduled>>,
    queue: EventQueue<u32>,
    seq: u64,
    /// Timestamp of the last pop; inserts may not precede it.
    now: u64,
}

impl Pair {
    fn new() -> Self {
        Pair { model: BinaryHeap::new(), queue: EventQueue::new(), seq: 0, now: 0 }
    }

    fn insert(&mut self, at: u64) {
        assert!(at >= self.now, "test bug: insert at {at} precedes the clock {}", self.now);
        self.seq += 1;
        let s = Scheduled { at, seq: self.seq, item: self.seq as u32 };
        self.model.push(Reverse(s));
        self.queue.insert(s.at, s.seq, s.item);
    }

    fn pop(&mut self) -> u64 {
        let Reverse(want) = self.model.pop().expect("pop on an empty pair");
        assert_eq!(self.queue.next_key(), Some((want.at, want.seq)));
        assert_eq!(Some((want.at, want.seq, want.item)), self.queue.pop());
        self.now = want.at;
        want.at
    }

    fn drain(&mut self) {
        while !self.model.is_empty() {
            self.pop();
        }
        assert!(self.queue.pop().is_none() && self.queue.is_empty());
    }
}

/// 100 k entries at one instant come out in `seq` order — once with the
/// instant in a digit-level slot (one cascade moves the whole list) and
/// once with it at the origin (every insert appends to the live 1-ns slot;
/// a naive sorted insert would be quadratic here).
#[test]
fn same_instant_flood_breaks_ties_by_seq() {
    for warm in [false, true] {
        let mut p = Pair::new();
        if warm {
            // Move the origin onto the instant first.
            p.insert(5_000);
            p.pop();
        }
        for _ in 0..100_000 {
            p.insert(5_000);
        }
        p.drain();
    }
}

/// Every insert lands inside an already-crowded 4 096-ns level-0 block,
/// first ascending in time and then descending.
#[test]
fn late_inserts_into_a_crowded_window_ascending_and_descending() {
    let mut p = Pair::new();
    // 600 entries in [2048, 3072).
    for i in 0..600u64 {
        p.insert(2_048 + (i * 7) % 1_024);
    }
    let now = p.pop();
    for i in 0..300 {
        p.insert(now + 1 + i * 3);
    }
    for _ in 0..200 {
        p.pop();
    }
    let now = p.now;
    for at in (now..now + 300).rev() {
        p.insert(at);
    }
    // Interleave: pop two, insert one at the clock and one just ahead.
    for _ in 0..200 {
        p.pop();
        let now = p.pop();
        p.insert(now);
        p.insert(now + 1);
    }
    p.drain();
}

/// A dense phase (~100 entries per µs) and then a sparse one (one entry
/// per 2 µs), with inserts a few nanoseconds past every pop: the schedule
/// that once halved and doubled an adaptive bucket width.
#[test]
fn width_changes_with_late_inserts_in_flight() {
    let mut p = Pair::new();
    for i in 0..40_000u64 {
        p.insert(i * 10);
    }
    for _ in 0..40_000 {
        let now = p.pop();
        p.insert(now + 3);
        p.insert(now + 1);
        p.pop();
        p.pop();
    }
    for _ in 0..40_000 {
        p.insert(p.now + 2_000);
        let now = p.pop();
        p.insert(now + 5);
        p.pop();
    }
    p.drain();
}

/// A peek must not move the origin: with one entry 10 ms out peeked,
/// inserts anywhere before it must still pop first, in order.
#[test]
fn inserts_below_cur_start_after_the_wheel_advanced() {
    let mut p = Pair::new();
    p.insert(10_000_000);
    assert_eq!(p.queue.next_at(), Some(10_000_000));
    for i in 0..2_000u64 {
        p.insert((i * 7_919) % 9_000_000);
    }
    assert_eq!(p.queue.next_at(), Some(0));
    for _ in 0..1_000 {
        let now = p.pop();
        p.insert(now + 40);
    }
    p.drain();
}

/// Each digit level's slots cascade: one entry per level (bits 12–17 up to
/// 60–63, the top) plus an entry on either side of each level boundary,
/// popped with a tie and an insert just past level 0 after each pop.
#[test]
fn cascades_from_every_level() {
    let mut p = Pair::new();
    let mut budget = 200;
    for bit in (12..64).step_by(6) {
        let base = 1u64 << bit;
        p.insert(base - 1);
        p.insert(base);
        p.insert(base + 1);
        p.insert(base + (base >> 1) + 12_345);
    }
    p.insert(u64::MAX);
    while !p.model.is_empty() {
        let now = p.pop();
        if budget > 0 && now < u64::MAX - 10_000 {
            budget -= 1;
            p.insert(now);
            p.insert(now + 4_097);
            p.pop();
        }
    }
    p.drain();
}

/// Interleaved inserts and pops over level 0 and every digit level, the
/// top one included; every peek is the exact next pop key.
#[test]
fn interleaved_matches_reference_sort() {
    let mut p = Pair::new();
    let mut rng = XorShift(0x00c0_ffee_d00d_1234);
    // One entry at the top level (bits 60..64), popped last.
    p.insert(u64::MAX / 2 + 12_345);
    for _ in 0..20_000 {
        if !rng.next().is_multiple_of(3) || p.model.is_empty() {
            let delta = match rng.next() % 10 {
                0..=2 => rng.next() % 4_000,
                3..=5 => rng.next() % 250_000,
                6 | 7 => rng.next() % 1_000_000_000,
                8 => rng.next() % 100_000_000_000,
                _ => (1 << 42) + rng.next() % (1 << 43),
            };
            p.insert(p.now + delta);
        } else {
            p.pop();
        }
    }
    p.drain();
}

/// Not a correctness test: times both structures on an identical,
/// simulator-like schedule (link-delay events ~1 µs out, a tail of
/// RTO-class timers far out, working set ~1–2 k). Run manually with
/// `cargo test -p dcp-netsim --test equeue_equivalence -- --ignored --nocapture`.
#[test]
#[ignore]
fn timing_vs_old_heap() {
    const OPS: usize = 4_000_000;
    fn drive<Q>(
        mut insert: impl FnMut(&mut Q, u64, u64),
        mut pop: impl FnMut(&mut Q) -> Option<u64>,
        q: &mut Q,
    ) -> u64 {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut acc = 0u64;
        // Seed a standing population.
        for _ in 0..1_500 {
            seq += 1;
            insert(q, now + rng.next() % 2_000_000, seq);
        }
        for _ in 0..OPS {
            let at = q_pop(&mut pop, q, &mut acc, &mut now);
            // Each popped event schedules 1 follow-up (steady state), mostly
            // a ~1 µs link hop, sometimes a far-future timer.
            let delta = if rng.next() % 100 < 95 {
                500 + rng.next() % 2_000
            } else {
                100_000_000 + rng.next() % 100_000_000
            };
            seq += 1;
            insert(q, at + delta, seq);
        }
        acc ^ now
    }
    fn q_pop<Q>(
        pop: &mut impl FnMut(&mut Q) -> Option<u64>,
        q: &mut Q,
        acc: &mut u64,
        now: &mut u64,
    ) -> u64 {
        let at = pop(q).unwrap();
        *acc = acc.wrapping_add(at);
        *now = at;
        at
    }

    use std::time::Instant;
    for round in 0..3 {
        let t0 = Instant::now();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let h_acc = drive(
            |q, at, seq| q.push(Reverse((at, seq))),
            |q| q.pop().map(|Reverse((at, _))| at),
            &mut heap,
        );
        let t_heap = t0.elapsed();
        let t1 = Instant::now();
        let mut eq: EventQueue<()> = EventQueue::new();
        let e_acc =
            drive(|q, at, seq| q.insert(at, seq, ()), |q| q.pop().map(|(at, _, _)| at), &mut eq);
        let t_eq = t1.elapsed();
        assert_eq!(h_acc, e_acc, "both structures must visit the same schedule");
        println!(
            "round {round}: old heap {:>7.1} ns/op, wheel {:>7.1} ns/op ({:+.1}%)",
            t_heap.as_nanos() as f64 / OPS as f64,
            t_eq.as_nanos() as f64 / OPS as f64,
            (t_eq.as_secs_f64() / t_heap.as_secs_f64() - 1.0) * 100.0
        );
    }
}

/// Not a correctness test: 100 k same-instant inserts at the origin, then
/// a full drain — the shape that would be quadratic under a naive sorted
/// insert. Must stay within 2× the reference heap.
#[test]
#[ignore]
fn timing_same_instant_flood_vs_old_heap() {
    use std::time::Instant;
    const N: u64 = 100_000;
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for seq in 1..=N {
            heap.push(Reverse((5_000, seq)));
        }
        let mut acc = 0u64;
        while let Some(Reverse((_, seq))) = heap.pop() {
            acc = acc.wrapping_mul(31).wrapping_add(seq);
        }
        let t_heap = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut eq: EventQueue<()> = EventQueue::new();
        // Move the origin onto the instant first, so the flood appends to
        // the live slot rather than to one cascading list. `seq` 0 is
        // taken: the flood starts at 1.
        eq.insert(5_000, 0, ());
        eq.pop();
        for seq in 1..=N {
            eq.insert(5_000, seq, ());
        }
        let mut e_acc = 0u64;
        while let Some((_, seq, ())) = eq.pop() {
            e_acc = e_acc.wrapping_mul(31).wrapping_add(seq);
        }
        let t_eq = t1.elapsed().as_secs_f64();
        assert_eq!(acc, e_acc, "both structures must drain in seq order");
        best = (best.0.min(t_heap), best.1.min(t_eq));
    }
    println!(
        "same-instant flood, best of 5: old heap {:.1} ns/entry, wheel {:.1} ns/entry",
        best.0 * 1e9 / N as f64,
        best.1 * 1e9 / N as f64
    );
    assert!(best.1 <= 2.0 * best.0, "wheel {:.3} s vs heap {:.3} s", best.1, best.0);
}
