//! Span reconstruction: folding the flat probe stream back into causal
//! per-packet and per-message stories.
//!
//! A *packet span* collects everything that happened to one `(flow, psn)`:
//! every transmission (with the retransmission cause the transport
//! stamped), every queue visit (Enqueue→Dequeue pair per switch/port),
//! and every trim, drop, and ECN mark along the way. A *message span*
//! pairs `MsgPosted` with `Delivery` for one `(flow, wr_id)`. Both are
//! read back in key order, so the exported document is sorted — and
//! therefore byte-identical across `DCP_THREADS`/`DCP_SHARDS` settings,
//! since the sharded engine merges per-shard probe buffers into one
//! globally time-ordered stream before any probe sees them.

use dcp_telemetry::{
    DropClass, EventKind, Json, KindMask, LogHistogram, ObjWriter, Probe, ProbeEvent, QueueClass,
    RetxCause,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Write};

/// One visit to an egress queue: admitted at `enqueue`, on the wire at
/// `dequeue` (`None` if the packet died in the queue or the trace ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopVisit {
    pub node: u32,
    pub port: u32,
    pub queue: QueueClass,
    pub enqueue: u64,
    pub dequeue: Option<u64>,
}

/// The reconstructed life of one `(flow, psn)` packet, across every
/// transmission of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketSpan {
    /// First time a NIC put this PSN on the wire.
    pub first_tx: Option<u64>,
    /// Wire transmissions observed (first + retransmitted copies).
    pub transmissions: u32,
    /// Retransmissions with the transport signal that triggered each.
    pub retx: Vec<(u64, RetxCause)>,
    /// Queue visits in arrival order (one entry per switch/port pass).
    pub hops: Vec<HopVisit>,
    /// Trim-to-header events as `(at, node)`.
    pub trims: Vec<(u64, u32)>,
    /// Packet deaths as `(at, node, class)`.
    pub drops: Vec<(u64, u32, DropClass)>,
    /// ECN CE marks as `(at, node)`.
    pub ecn: Vec<(u64, u32)>,
}

impl PacketSpan {
    /// Nanoseconds spent sitting in egress queues (summed over completed
    /// Enqueue→Dequeue pairs).
    pub fn time_in_queue(&self) -> u64 {
        self.hops.iter().filter_map(|h| h.dequeue.map(|d| d.saturating_sub(h.enqueue))).sum()
    }

    /// Nanoseconds from the first transmission to the last retransmission
    /// — zero for packets that never needed recovery.
    pub fn time_in_recovery(&self) -> u64 {
        match (self.first_tx, self.retx.last()) {
            (Some(tx), Some(&(last, _))) => last.saturating_sub(tx),
            _ => 0,
        }
    }
}

/// The submit→deliver bracket of one `(flow, wr_id)` message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageSpan {
    pub bytes: u64,
    pub posted: Option<u64>,
    pub delivered: Option<u64>,
}

impl MessageSpan {
    /// Post-to-delivery latency, when both ends were observed.
    pub fn latency(&self) -> Option<u64> {
        match (self.posted, self.delivered) {
            (Some(p), Some(d)) => Some(d.saturating_sub(p)),
            _ => None,
        }
    }
}

/// The end of a chunk chain.
const NONE: u32 = u32::MAX;
/// Slots per chunk of a packet's run. A head holds the run's newest chunk;
/// full ones move to the arena.
const RUN: usize = 4;
/// Chunks per arena block: a long capture grows by appending blocks (no
/// doubling `Vec` re-copying what was folded), each 56 KB, under glibc's
/// mmap threshold.
const BLOCK: usize = 1 << 11;
/// Lane 2 of a mark's own slot has this bit set; a hop's never does.
const KIND_MARK: u16 = 1 << 14;
/// A hop's `loc` is a [`Locs`] index (its low 14 bits), with the queue
/// class in bit 15. `LOC_ESCAPED` marks a visit kept verbatim; `LOC_WIDE`
/// marks the own slot of a wide hop, whose older slot holds the real
/// `loc`. So the table holds `LOC_WIDE` pairs.
const LOC_IX: u16 = KIND_MARK - 1;
const LOC_ESCAPED: u16 = LOC_IX;
const LOC_WIDE: u16 = LOC_IX - 1;
const LOC_CTRL: u16 = 1 << 15;
/// A hop's `res` while its visit is open.
const OPEN: u16 = u16::MAX;
/// Lane width of a mark's node; wider values escape.
const NODE_BITS: u32 = 23;
/// A dense PSN window may grow to twice its live heads plus this much;
/// a PSN further out goes to the flow's sparse map instead.
const DENSE_SLACK: usize = 64;

/// One `(flow, psn)` packet. `Tx` folds in here and stores nothing else;
/// the rest of its story is one run of records — its queue visits and
/// marks in arrival order — whose newest chunk the head holds.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Time of the packet's first event of any kind: record times are
    /// `u32` offsets from here.
    base: u64,
    /// Valid once `transmissions > 0` (the first Tx or Retx sets both).
    first_tx: u64,
    transmissions: u32,
    /// The run's newest chunk in the arena, `NONE` while it fits `tail`.
    spilled: u32,
    /// Offset of the newest compact record (0 before the first): the
    /// next record's delta counts from here.
    last: u32,
    /// Slots of `tail` in use; 0 only while the run is empty.
    fill: u8,
    /// False for a vacant slot of a flow's dense window.
    live: bool,
    /// The run's newest slots, oldest first.
    tail: [Rec; RUN],
}

impl Head {
    const VACANT: Head = Head {
        base: 0,
        first_tx: 0,
        transmissions: 0,
        spilled: NONE,
        last: 0,
        fill: 0,
        live: false,
        tail: [Rec { dt: 0, lanes: [0; 2] }; RUN],
    };

    fn new(base: u64) -> Head {
        Head { base, live: true, ..Head::VACANT }
    }

    /// `at` as a compact offset from `base`, if it fits the lane.
    #[inline]
    fn offset(&self, at: u64) -> Option<u32> {
        at.checked_sub(self.base).and_then(|d| u32::try_from(d).ok())
    }

    /// The next compact record's value at offset `off`: its delta from
    /// the newest one (wrapping).
    #[inline]
    fn delta(&mut self, off: u32) -> u64 {
        let dt = u64::from(off).wrapping_sub(u64::from(self.last));
        self.last = off;
        dt
    }
}

/// One slot of a packet's run: three 16-bit lanes. A record — a queue
/// visit, or a retransmission, trim, drop or ECN mark — takes one slot
/// when its value fits 16 bits. Otherwise it is wide and takes two: an
/// older slot holding the value's bits 16..48 in `dt` and `lanes[0]`, then
/// the record's own slot.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    /// Bits 0..16 of the value: the record's time − the packet's previous
    /// compact record's (wrapping), or its escape index.
    dt: u16,
    /// A hop's `[res, loc]`; a mark's `info`, low half first. An escaped
    /// visit's `[index >> 16, LOC_ESCAPED]`.
    lanes: [u16; 2],
}

/// A mark's `info`: `kind | code << 2 | flags | node << 7 | MARK`; `code`
/// is the retransmission cause or the drop class.
const MARK_RETX: u32 = 0;
const MARK_TRIM: u32 = 1;
const MARK_DROP: u32 = 2;
const MARK_ECN: u32 = 3;
const MARK_WIDE: u32 = 1 << 5;
const MARK_ESCAPED: u32 = 1 << 6;
const MARK_NODE_SHIFT: u32 = 7;
const MARK: u32 = (KIND_MARK as u32) << 16;

const CAUSES: [RetxCause; 8] = [
    RetxCause::Unknown,
    RetxCause::Ho,
    RetxCause::Nack,
    RetxCause::Sack,
    RetxCause::Rack,
    RetxCause::DupAck,
    RetxCause::Tlp,
    RetxCause::Timeout,
];
const DROP_CLASSES: [DropClass; 5] =
    [DropClass::Data, DropClass::HeaderOnly, DropClass::Ack, DropClass::Buffer, DropClass::Fault];

/// A wide record's 48-bit value, sign-extended back: deltas run backwards
/// in a replay out of time order.
#[inline]
fn sign_extend48(v: u64) -> u64 {
    ((v << 16) as i64 >> 16) as u64
}

/// A full chunk of one packet's run, moved out of its head.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    recs: [Rec; RUN],
    /// The run's previous chunk, or `NONE`.
    prev: u32,
}

/// Every spilled chunk, in one append-only arena addressed by `u32`
/// index: heads spill in the order they fill, so the arena only ever
/// grows at its end.
struct Arena {
    blocks: Vec<Vec<Chunk>>,
    len: u32,
}

impl Arena {
    fn new() -> Self {
        Arena { blocks: Vec::new(), len: 0 }
    }

    fn push(&mut self, chunk: Chunk) -> u32 {
        let ix = self.len;
        if (ix as usize).is_multiple_of(BLOCK) {
            self.blocks.push(Vec::with_capacity(BLOCK));
        }
        self.blocks.last_mut().expect("opened above").push(chunk);
        self.len =
            ix.checked_add(1).filter(|&n| n != NONE).expect("span store holds < 2^32 chunks");
        ix
    }

    #[inline]
    fn get(&self, c: u32) -> &Chunk {
        &self.blocks[c as usize / BLOCK][c as usize % BLOCK]
    }

    #[inline]
    fn get_mut(&mut self, c: u32) -> &mut Chunk {
        &mut self.blocks[c as usize / BLOCK][c as usize % BLOCK]
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * size_of::<Vec<Chunk>>()
            + self.blocks.iter().map(|b| b.capacity() * size_of::<Chunk>()).sum::<usize>()
    }
}

/// One flow's packet heads plus its `Timeout` / `HoReceived` counters.
#[derive(Default)]
struct FlowIx {
    /// PSN of `dense[0]`.
    lo: u32,
    /// Heads of PSNs `lo..lo + dense.len()`, vacant slots included.
    dense: Vec<Head>,
    /// Live heads in `dense`.
    live: usize,
    /// Heads whose PSN fell below `lo` or too far past the window.
    sparse: BTreeMap<u32, Head>,
    timeouts: u64,
    ho_received: u64,
}

impl FlowIx {
    /// Admits a new head for `psn`: into the dense window when that keeps
    /// the window at most twice the live heads (plus slack), else sparse.
    fn insert(&mut self, psn: u32, head: Head) -> &mut Head {
        if self.dense.is_empty() {
            self.lo = psn;
        }
        match psn.checked_sub(self.lo).map(|d| d as usize) {
            Some(i) if i < 2 * self.live + DENSE_SLACK => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, Head::VACANT);
                }
                self.live += 1;
                self.dense[i] = head;
                &mut self.dense[i]
            }
            _ => self.sparse.entry(psn).or_insert(head),
        }
    }
}

/// Flow-id hash: the murmur3 64-bit finalizer. Its full avalanche keeps
/// structured ids (strided, or differing only in high bits) out of one
/// bucket. Flow ids come from the simulator or from the user's own
/// capture, so no key is chosen to collide, and SipHash would cost more
/// than the rest of a fold step.
#[derive(Default)]
struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = self.0 ^ x;
        h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ h >> 33;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every packet head, by flow.
#[derive(Default)]
struct Heads {
    flows: HashMap<u32, FlowIx, BuildHasherDefault<FlowHasher>>,
    /// Live heads over all flows.
    len: usize,
}

impl Heads {
    /// The head of `(flow, psn)`, admitted with base `at` if new — or
    /// `None` when it is new and `cap` heads are already held.
    #[inline]
    fn get(&mut self, flow: u32, psn: u32, at: u64, cap: usize) -> Option<&mut Head> {
        let f = if self.len < cap {
            self.flows.entry(flow).or_default()
        } else {
            self.flows.get_mut(&flow)?
        };
        let i = psn.wrapping_sub(f.lo) as usize;
        if f.dense.get(i).is_some_and(|h| h.live) {
            return Some(&mut f.dense[i]);
        }
        if f.sparse.contains_key(&psn) {
            return f.sparse.get_mut(&psn);
        }
        if self.len >= cap {
            return None;
        }
        self.len += 1;
        Some(f.insert(psn, Head::new(at)))
    }

    fn heap_bytes(&self) -> usize {
        let flows = self.flows.values().map(|f| {
            f.dense.capacity() * size_of::<Head>()
                + crate::btree_map_bytes::<u32, Head>(f.sparse.len())
        });
        crate::hash_map_bytes::<u32, FlowIx>(self.flows.capacity()) + flows.sum::<usize>()
    }

    /// Every live head in `(flow, psn)` order.
    fn sorted(&self) -> Vec<((u32, u32), &Head)> {
        let mut flows: Vec<_> = self.flows.iter().collect();
        flows.sort_unstable_by_key(|&(&flow, _)| flow);
        let mut out = Vec::with_capacity(self.len);
        for (&flow, f) in flows {
            let from = out.len();
            let dense = f.dense.iter().enumerate().filter(|(_, h)| h.live);
            out.extend(dense.map(|(i, h)| ((flow, f.lo + i as u32), h)));
            if !f.sparse.is_empty() {
                out.extend(f.sparse.iter().map(|(&psn, h)| ((flow, psn), h)));
                out[from..].sort_unstable_by_key(|&(key, _)| key);
            }
        }
        out
    }
}

/// The switch egress `(node, port)` pairs hops have visited, each once,
/// in first-seen order: a hop stores its pair's index. Sized by distinct
/// pairs, never by an id's value.
#[derive(Default)]
struct Locs {
    pairs: Vec<(u32, u32)>,
    index: HashMap<u64, u16, BuildHasherDefault<FlowHasher>>,
}

impl Locs {
    /// `(node, port)`'s index, interned if new — `None` once the table
    /// holds `LOC_WIDE` pairs.
    #[inline]
    fn intern(&mut self, node: u32, port: u32) -> Option<u16> {
        match self.index.entry(u64::from(node) << 32 | u64::from(port)) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                let ix = u16::try_from(self.pairs.len()).ok().filter(|&ix| ix < LOC_WIDE)?;
                self.pairs.push((node, port));
                Some(*e.insert(ix))
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.pairs.capacity() * size_of::<(u32, u32)>()
            + crate::hash_map_bytes::<u64, u16>(self.index.capacity())
    }
}

/// Where a slot of a packet's run lives: in its head's tail, or in a
/// spilled chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    Tail(usize),
    Chunk(u32, usize),
}

/// One record of a run, decoded from its slot(s).
#[derive(Debug, Clone, Copy)]
enum Item {
    /// A compact queue visit, `dt` after the packet's previous compact
    /// record.
    Hop { dt: u64, res: u16, loc: u16 },
    /// A queue visit kept verbatim at this index of `Records::visits`.
    Visit { ix: usize, dt: u64 },
    /// A compact mark, `dt` after the packet's previous compact record.
    Mark { dt: u64, info: u32 },
    /// A mark whose `(at, node)` is kept at this index of
    /// `Records::marks`.
    MarkAt { ix: usize, info: u32 },
}

impl Item {
    /// How far the record's time is from the packet's previous compact
    /// record's: 0 for records escaped when recorded, which stay off the
    /// delta chain.
    fn dt(self) -> u64 {
        match self {
            Item::Hop { dt, .. } | Item::Visit { dt, .. } | Item::Mark { dt, .. } => dt,
            Item::MarkAt { .. } => 0,
        }
    }
}

/// Every packet's spilled chunks, plus the side tables for what overflows
/// a lane: verbatim visits and marks whose time, place or residence does
/// not fit.
struct Records {
    chunks: Arena,
    locs: Locs,
    /// Each with its `Item::dt`: 0 when escaped at the enqueue, the
    /// record's delta when its residence overflowed at the dequeue.
    visits: Vec<(HopVisit, u64)>,
    marks: Vec<(u64, u32)>,
}

impl Records {
    fn new() -> Self {
        Records {
            chunks: Arena::new(),
            locs: Locs::default(),
            visits: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Appends `rec` to `h`'s run, spilling a full tail to the arena.
    #[inline]
    fn push(&mut self, h: &mut Head, rec: Rec) {
        if usize::from(h.fill) == RUN {
            h.spilled = self.chunks.push(Chunk { recs: h.tail, prev: h.spilled });
            h.fill = 0;
        }
        h.tail[usize::from(h.fill)] = rec;
        h.fill += 1;
    }

    /// The slot before `p` in `h`'s run.
    #[inline]
    fn before(&self, h: &Head, p: Pos) -> Option<Pos> {
        let c = match p {
            Pos::Tail(0) => h.spilled,
            Pos::Tail(i) => return Some(Pos::Tail(i - 1)),
            Pos::Chunk(c, 0) => self.chunks.get(c).prev,
            Pos::Chunk(c, i) => return Some(Pos::Chunk(c, i - 1)),
        };
        (c != NONE).then_some(Pos::Chunk(c, RUN - 1))
    }

    #[inline]
    fn get(&self, h: &Head, p: Pos) -> Rec {
        match p {
            Pos::Tail(i) => h.tail[i],
            Pos::Chunk(c, i) => self.chunks.get(c).recs[i],
        }
    }

    #[inline]
    fn get_mut<'a>(&'a mut self, h: &'a mut Head, p: Pos) -> &'a mut Rec {
        match p {
            Pos::Tail(i) => &mut h.tail[i],
            Pos::Chunk(c, i) => &mut self.chunks.get_mut(c).recs[i],
        }
    }

    /// Appends an open queue visit to `h`'s run.
    #[inline]
    fn enqueue(&mut self, h: &mut Head, at: u64, node: u32, port: u32, queue: QueueClass) {
        let (v, loc) = match (h.offset(at), self.locs.intern(node, port)) {
            (Some(off), Some(ix)) => {
                (h.delta(off), if queue == QueueClass::Ctrl { ix | LOC_CTRL } else { ix })
            }
            _ => {
                let visit = HopVisit { node, port, queue, enqueue: at, dequeue: None };
                let ix = escape(&mut self.visits, (visit, 0));
                return self.push(h, escaped_visit(ix, LOC_ESCAPED));
            }
        };
        let loc = if u16::try_from(v).is_ok() {
            loc
        } else {
            self.push(h, Rec { dt: (v >> 16) as u16, lanes: [(v >> 32) as u16, loc] });
            LOC_WIDE
        };
        self.push(h, Rec { dt: v as u16, lanes: [OPEN, loc] });
    }

    /// Appends a mark to `h`'s run; `code` is the retransmission cause or
    /// the drop class.
    #[inline]
    fn mark(&mut self, h: &mut Head, at: u64, kind: u32, code: u32, node: u32) {
        let info = MARK | kind | code << 2;
        let (v, mut info) = match h.offset(at) {
            Some(off) if node < 1 << NODE_BITS => (h.delta(off), info | node << MARK_NODE_SHIFT),
            _ => (escape(&mut self.marks, (at, node)), info | MARK_ESCAPED),
        };
        if u16::try_from(v).is_err() {
            self.push(h, Rec { dt: (v >> 16) as u16, lanes: [(v >> 32) as u16, KIND_MARK] });
            info |= MARK_WIDE;
        }
        self.push(h, Rec { dt: v as u16, lanes: [info as u16, (info >> 16) as u16] });
    }

    /// The record whose own slot is `p`, and its first slot: `p` itself,
    /// or the one before it when the record is wide.
    #[inline]
    fn decode(&self, h: &Head, p: Pos) -> (Item, Pos) {
        let rec = self.get(h, p);
        let [lo, hi] = rec.lanes;
        let v = u64::from(rec.dt);
        if hi & (KIND_MARK | LOC_IX) < LOC_WIDE {
            // A one-slot compact visit: the common case.
            return (Item::Hop { dt: v, res: lo, loc: hi }, p);
        }
        let own_ix = v | u64::from(lo) << 16;
        if hi & (KIND_MARK | LOC_IX) == LOC_ESCAPED {
            return (self.visit(own_ix), p);
        }
        let info = u32::from(lo) | u32::from(hi) << 16;
        let mark = hi & KIND_MARK != 0;
        if mark && info & MARK_WIDE == 0 {
            return (mark_item(v, info), p);
        }
        let first = self.before(h, p).expect("a wide record has an older slot");
        let older = self.get(h, first);
        let v = v | u64::from(older.dt) << 16 | u64::from(older.lanes[0]) << 32;
        let item = if mark {
            mark_item(v, info)
        } else if older.lanes[1] == LOC_ESCAPED {
            // A wide hop replaced by a verbatim visit at its dequeue.
            self.visit(own_ix)
        } else {
            Item::Hop { dt: sign_extend48(v), res: lo, loc: older.lanes[1] }
        };
        (item, first)
    }

    fn visit(&self, ix: u64) -> Item {
        let ix = ix as usize;
        Item::Visit { ix, dt: self.visits[ix].1 }
    }

    /// Closes the newest open visit to `(node, port)` — re-routed
    /// retransmissions can pass the same switch twice — or nothing. A
    /// residence that does not fit its lane moves the visit to `visits`.
    #[inline]
    fn dequeue(&mut self, h: &mut Head, at: u64, node: u32, port: u32) {
        let (mut pos, mut enqueue) = (newest(h), h.base + u64::from(h.last));
        while let Some(p) = pos {
            let (item, first) = self.decode(h, p);
            match item {
                Item::Hop { dt, res: OPEN, loc }
                    if self.locs.pairs[usize::from(loc & LOC_IX)] == (node, port) =>
                {
                    let res = at.checked_sub(enqueue).and_then(|r| u16::try_from(r).ok());
                    if let Some(res) = res.filter(|&r| r != OPEN) {
                        self.get_mut(h, p).lanes[0] = res;
                        return;
                    }
                    let queue = queue_of(loc);
                    let visit = HopVisit { node, port, queue, enqueue, dequeue: Some(at) };
                    let ix = escape(&mut self.visits, (visit, dt));
                    if first == p {
                        *self.get_mut(h, p) = escaped_visit(ix, LOC_ESCAPED);
                    } else {
                        *self.get_mut(h, p) = escaped_visit(ix, LOC_WIDE);
                        self.get_mut(h, first).lanes[1] = LOC_ESCAPED;
                    }
                    return;
                }
                Item::Visit { ix, .. } => {
                    let v = &mut self.visits[ix].0;
                    if v.node == node && v.port == port && v.dequeue.is_none() {
                        v.dequeue = Some(at);
                        return;
                    }
                }
                _ => {}
            }
            enqueue = enqueue.wrapping_sub(item.dt());
            pos = self.before(h, first);
        }
    }

    /// Fills `s`'s empty hop and mark lists from `h`'s run, each in
    /// record order.
    fn read(&self, h: &Head, s: &mut PacketSpan) {
        let (mut pos, mut t) = (newest(h), h.base + u64::from(h.last));
        while let Some(p) = pos {
            let (item, first) = self.decode(h, p);
            match item {
                Item::Hop { res, loc, .. } => {
                    let (node, port) = self.locs.pairs[usize::from(loc & LOC_IX)];
                    let dequeue = (res != OPEN).then(|| t + u64::from(res));
                    let queue = queue_of(loc);
                    s.hops.push(HopVisit { node, port, queue, enqueue: t, dequeue });
                }
                Item::Visit { ix, .. } => s.hops.push(self.visits[ix].0),
                Item::Mark { info, .. } => push_mark(s, t, (info & !MARK) >> MARK_NODE_SHIFT, info),
                Item::MarkAt { ix, info } => {
                    let (at, node) = self.marks[ix];
                    push_mark(s, at, node, info);
                }
            }
            t = t.wrapping_sub(item.dt());
            pos = self.before(h, first);
        }
        s.hops.reverse();
        s.retx.reverse();
        s.trims.reverse();
        s.drops.reverse();
        s.ecn.reverse();
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.heap_bytes()
            + self.locs.heap_bytes()
            + self.visits.capacity() * size_of::<(HopVisit, u64)>()
            + self.marks.capacity() * size_of::<(u64, u32)>()
    }
}

/// The newest slot of `h`'s run.
#[inline]
fn newest(h: &Head) -> Option<Pos> {
    h.fill.checked_sub(1).map(|i| Pos::Tail(usize::from(i)))
}

/// A verbatim visit's own slot: its index and `loc`, `LOC_ESCAPED` (or
/// `LOC_WIDE` over an older `LOC_ESCAPED` slot when it replaced a wide
/// hop).
fn escaped_visit(ix: u64, loc: u16) -> Rec {
    let ix = u32::try_from(ix).expect("span store holds < 2^32 verbatim visits");
    Rec { dt: ix as u16, lanes: [(ix >> 16) as u16, loc] }
}

/// A mark with value `v`: its delta, or its index when escaped.
fn mark_item(v: u64, info: u32) -> Item {
    if info & MARK_ESCAPED != 0 {
        Item::MarkAt { ix: v as usize, info }
    } else {
        Item::Mark { dt: sign_extend48(v), info }
    }
}

/// Appends a mark to `s`'s list of its kind.
fn push_mark(s: &mut PacketSpan, at: u64, node: u32, info: u32) {
    let code = (info >> 2) as usize & 0x7;
    match info & 0x3 {
        MARK_RETX => s.retx.push((at, CAUSES[code])),
        MARK_TRIM => s.trims.push((at, node)),
        MARK_DROP => s.drops.push((at, node, DROP_CLASSES[code])),
        _ => s.ecn.push((at, node)),
    }
}

fn queue_of(loc: u16) -> QueueClass {
    if loc & LOC_CTRL == 0 {
        QueueClass::Data
    } else {
        QueueClass::Ctrl
    }
}

/// Appends `v` to an escape table, returning its index.
fn escape<T>(table: &mut Vec<T>, v: T) -> u64 {
    table.push(v);
    (table.len() - 1) as u64
}

/// One packet span as its document entry.
fn packet_json(flow: u32, psn: u32, s: &PacketSpan) -> Json {
    let retx =
        s.retx.iter().map(|&(at, cause)| Json::obj().set("at", at).set("cause", cause.name()));
    let hops = s.hops.iter().map(|h| {
        Json::obj()
            .set("node", u64::from(h.node))
            .set("port", u64::from(h.port))
            .set("queue", h.queue.name())
            .set("enqueue", h.enqueue)
            .set("dequeue", h.dequeue.map_or(Json::Null, Json::from))
    });
    let trims =
        s.trims.iter().map(|&(at, node)| Json::obj().set("at", at).set("node", u64::from(node)));
    let drops = s.drops.iter().map(|&(at, node, class)| {
        Json::obj().set("at", at).set("node", u64::from(node)).set("class", class.name())
    });
    Json::obj()
        .set("flow", u64::from(flow))
        .set("psn", u64::from(psn))
        .set("first_tx", s.first_tx.map_or(Json::Null, Json::from))
        .set("transmissions", u64::from(s.transmissions))
        .set("retx", Json::Arr(retx.collect()))
        .set("hops", Json::Arr(hops.collect()))
        .set("trims", Json::Arr(trims.collect()))
        .set("drops", Json::Arr(drops.collect()))
        .set("time_in_queue", s.time_in_queue())
        .set("time_in_recovery", s.time_in_recovery())
}

/// Builds spans from a probe stream — live (installed as a probe, alone
/// or inside a `Fanout`) or replayed from a capture; both record the same
/// events and produce the same document.
///
/// [`Probe::record`] folds each event into a compact span store while the
/// run is live: one head per `(flow, psn)` (`Tx` only bumps it) and one run
/// of 6-byte records per packet, in 4-record chunks — the newest inside
/// the head, full ones in an arena. A queue visit is one record (the
/// `Dequeue` patches its `Enqueue`'s; the switch egress `(node, port)` is
/// an index into a table of the pairs seen so far), and so is each
/// retransmission, trim, drop or ECN mark, timed as a 16-bit delta from
/// the packet's previous record; per-flow timeout / header-only counters
/// complete it. A delta that does not fit takes a second slot. A time
/// more than 2^32 ns from the packet's first event, a residence that does
/// not fit, and visits past the pair table's 16 382 entries go verbatim
/// to side tables. Spans are built on read
/// ([`SpanBuilder::packets`], [`SpanBuilder::write_fields`], ...), sorted
/// by key.
pub struct SpanBuilder {
    heads: Heads,
    recs: Records,
    messages: BTreeMap<(u32, u64), MessageSpan>,
    /// New-key admission cap: spans beyond it are dropped (counted), so a
    /// runaway trace cannot exhaust memory.
    cap: usize,
    pub truncated: u64,
}

impl Default for SpanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBuilder {
    pub fn new() -> Self {
        SpanBuilder {
            heads: Heads::default(),
            recs: Records::new(),
            messages: BTreeMap::new(),
            cap: 1 << 20,
            truncated: 0,
        }
    }

    /// Caps the number of distinct packet spans retained.
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Heap bytes held by the span store and the message spans.
    pub fn heap_bytes(&self) -> usize {
        self.heads.heap_bytes()
            + self.recs.heap_bytes()
            + crate::btree_map_bytes::<(u32, u64), MessageSpan>(self.messages.len())
    }

    /// Every packet span, in `(flow, psn)` order.
    pub fn packets(&self) -> impl Iterator<Item = ((u32, u32), PacketSpan)> + '_ {
        self.heads.sorted().into_iter().map(|(key, h)| (key, self.span(h)))
    }

    pub fn messages(&self) -> impl Iterator<Item = (&(u32, u64), &MessageSpan)> {
        self.messages.iter()
    }

    /// `h`'s span, rebuilt from its runs.
    fn span(&self, h: &Head) -> PacketSpan {
        let mut s = PacketSpan {
            first_tx: (h.transmissions > 0).then_some(h.first_tx),
            transmissions: h.transmissions,
            ..PacketSpan::default()
        };
        self.recs.read(h, &mut s);
        s
    }

    /// Writes the span document's fields (`dcp-trace/v1`: schema,
    /// truncated, packets, messages, flows, stats) into `doc`, packet by
    /// packet and sorted by key, so the output is byte-identical across
    /// thread/shard settings of the same run. [`crate::ScopeProbe`]
    /// completes the document with its monitors.
    pub fn write_fields<W: Write>(&self, doc: &mut ObjWriter<W>) -> io::Result<()> {
        doc.field("schema", "dcp-trace/v1")?;
        doc.field("truncated", self.truncated)?;
        doc.array("packets", self.packets().map(|((flow, psn), s)| packet_json(flow, psn, &s)))?;
        doc.array(
            "messages",
            self.messages.iter().map(|(&(flow, wr_id), m)| {
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("wr_id", wr_id)
                    .set("bytes", m.bytes)
                    .set("posted", m.posted.map_or(Json::Null, Json::from))
                    .set("delivered", m.delivered.map_or(Json::Null, Json::from))
                    .set("latency", m.latency().map_or(Json::Null, Json::from))
            }),
        )?;
        let mut flows: Vec<_> = self
            .heads
            .flows
            .iter()
            .filter(|(_, f)| f.timeouts + f.ho_received > 0)
            .map(|(&flow, f)| (flow, f.timeouts, f.ho_received))
            .collect();
        flows.sort_unstable();
        doc.array(
            "flows",
            flows.into_iter().map(|(flow, timeouts, ho)| {
                Json::obj()
                    .set("flow", u64::from(flow))
                    .set("timeouts", timeouts)
                    .set("ho_received", ho)
            }),
        )?;
        doc.field("stats", self.stats_json())
    }

    /// Aggregate latency breakdown: where packet time went (queueing vs
    /// recovery), per-hop queue-wait percentiles, message latency.
    pub fn stats_json(&self) -> Json {
        let mut queue_wait = LogHistogram::default();
        let mut recovery = LogHistogram::default();
        let mut msg_latency = LogHistogram::default();
        let mut per_node: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut retx_pkts = 0u64;
        for (_, s) in self.packets() {
            let q = s.time_in_queue();
            if q > 0 {
                queue_wait.record(q);
            }
            let r = s.time_in_recovery();
            if r > 0 {
                recovery.record(r);
                retx_pkts += 1;
            }
            for h in &s.hops {
                if let Some(d) = h.dequeue {
                    let e = per_node.entry(h.node).or_default();
                    e.0 += d.saturating_sub(h.enqueue);
                    e.1 += 1;
                }
            }
        }
        for m in self.messages.values() {
            if let Some(l) = m.latency() {
                msg_latency.record(l);
            }
        }
        let hist = |h: &LogHistogram| {
            if h.count() == 0 {
                Json::obj().set("count", 0u64)
            } else {
                Json::obj()
                    .set("count", h.count())
                    .set("p50", h.value_at_percentile(50.0))
                    .set("p99", h.value_at_percentile(99.0))
                    .set("max", h.max())
            }
        };
        let per_hop: Vec<Json> = per_node
            .iter()
            .map(|(&node, &(total, visits))| {
                Json::obj()
                    .set("node", u64::from(node))
                    .set("visits", visits)
                    .set("mean_queue_wait", total.checked_div(visits).unwrap_or(0))
            })
            .collect();
        Json::obj()
            .set("packet_spans", self.heads.len)
            .set("retx_packets", retx_pkts)
            .set("message_spans", self.messages.len())
            .set("queue_wait", hist(&queue_wait))
            .set("recovery", hist(&recovery))
            .set("message_latency", hist(&msg_latency))
            .set("per_hop", Json::Arr(per_hop))
    }

    /// Folds one packet-level event into `(flow, psn)`'s head and runs.
    #[inline]
    fn fold_packet(&mut self, at: u64, flow: u32, psn: u32, ev: &ProbeEvent) {
        let Some(h) = self.heads.get(flow, psn, at, self.cap) else {
            self.truncated += 1;
            return;
        };
        match *ev {
            ProbeEvent::Tx { .. } => transmit(h, at),
            ProbeEvent::Retx { cause, .. } => {
                transmit(h, at);
                self.recs.mark(h, at, MARK_RETX, cause as u32, 0);
            }
            ProbeEvent::Enqueue { node, port, queue, .. } => {
                self.recs.enqueue(h, at, node, port, queue);
            }
            ProbeEvent::Dequeue { node, port, .. } => self.recs.dequeue(h, at, node, port),
            ProbeEvent::Trim { node, .. } => self.recs.mark(h, at, MARK_TRIM, 0, node),
            ProbeEvent::Drop { node, class, .. } => {
                self.recs.mark(h, at, MARK_DROP, class as u32, node);
            }
            ProbeEvent::EcnMark { node, .. } => self.recs.mark(h, at, MARK_ECN, 0, node),
            _ => unreachable!("not a packet-level event"),
        }
    }
}

/// A wire transmission of `h`: the first one sets `first_tx`.
#[inline]
fn transmit(h: &mut Head, at: u64) {
    if h.transmissions == 0 {
        h.first_tx = at;
    }
    h.transmissions += 1;
}

impl Probe for SpanBuilder {
    #[inline]
    fn record(&mut self, at: u64, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Tx { flow, psn, .. }
            | ProbeEvent::Retx { flow, psn, .. }
            | ProbeEvent::Enqueue { flow, psn, .. }
            | ProbeEvent::Dequeue { flow, psn, .. }
            | ProbeEvent::Trim { flow, psn, .. }
            | ProbeEvent::Drop { flow, psn, .. }
            | ProbeEvent::EcnMark { flow, psn, .. } => self.fold_packet(at, flow, psn, ev),
            ProbeEvent::MsgPosted { flow, wr_id, bytes, .. } => {
                let m = self.messages.entry((flow, wr_id)).or_default();
                m.bytes = bytes;
                m.posted.get_or_insert(at);
            }
            ProbeEvent::Delivery { flow, wr_id, bytes, .. } => {
                let m = self.messages.entry((flow, wr_id)).or_default();
                m.bytes = bytes;
                m.delivered.get_or_insert(at);
            }
            ProbeEvent::Timeout { flow, .. } => {
                self.heads.flows.entry(flow).or_default().timeouts += 1;
            }
            ProbeEvent::HoReceived { flow, .. } => {
                self.heads.flows.entry(flow).or_default().ho_received += 1;
            }
            _ => {}
        }
    }

    fn interest(&self) -> KindMask {
        KindMask::of(&[
            EventKind::Enqueue,
            EventKind::Dequeue,
            EventKind::Trim,
            EventKind::Drop,
            EventKind::EcnMark,
            EventKind::Tx,
            EventKind::Retx,
            EventKind::Timeout,
            EventKind::HoReceived,
            EventKind::MsgPosted,
            EventKind::Delivery,
        ])
    }

    fn dump(&self) -> Option<String> {
        Some(format!(
            "span builder: {} packet spans, {} message spans ({} truncated)",
            self.heads.len,
            self.messages.len(),
            self.truncated,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `b`'s span fields as one compact JSON object.
    fn doc(b: &SpanBuilder) -> String {
        let mut w = ObjWriter::new(Vec::new(), None);
        b.write_fields(&mut w).unwrap();
        String::from_utf8(w.finish().unwrap()).unwrap()
    }

    /// Fields wider than a packed lane reach the span intact: a 2^30
    /// work-request id with a 16 MB payload lands in its message span.
    #[test]
    fn escaped_records_fold_intact() {
        let mut b = SpanBuilder::new();
        let wr = (7u32, 1u64 << 30);
        b.record(50, &ProbeEvent::MsgPosted { node: 0, flow: wr.0, wr_id: wr.1, bytes: 1 << 24 });
        b.record(90, &ProbeEvent::Delivery { node: 1, flow: wr.0, wr_id: wr.1, bytes: 1 << 24 });
        let (key, m) = b.messages().next().map(|(k, m)| (*k, *m)).unwrap();
        assert_eq!(key, (wr.0, wr.1));
        assert_eq!(m.bytes, 1 << 24);
        assert_eq!((m.posted, m.delivered), (Some(50), Some(90)));
    }

    /// PSN 3 of flow 7: sent, queued at switch 10, trimmed, header-only
    /// notification back, precise retransmission, second pass clean.
    fn trim_recovery_events() -> Vec<(u64, ProbeEvent)> {
        vec![
            (100, ProbeEvent::Tx { node: 0, flow: 7, psn: 3, bytes: 1064 }),
            (
                200,
                ProbeEvent::Enqueue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (210, ProbeEvent::Trim { node: 10, port: 2, flow: 7, psn: 3 }),
            (
                250,
                ProbeEvent::Dequeue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Ctrl,
                    flow: 7,
                    psn: 3,
                    bytes: 64,
                },
            ),
            (400, ProbeEvent::HoReceived { node: 0, flow: 7 }),
            (450, ProbeEvent::Retx { node: 0, flow: 7, psn: 3, bytes: 1064, cause: RetxCause::Ho }),
            (
                500,
                ProbeEvent::Enqueue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (
                560,
                ProbeEvent::Dequeue {
                    node: 10,
                    port: 2,
                    queue: QueueClass::Data,
                    flow: 7,
                    psn: 3,
                    bytes: 1064,
                },
            ),
            (700, ProbeEvent::MsgPosted { node: 0, flow: 7, wr_id: 1, bytes: 1024 }),
            (900, ProbeEvent::Delivery { node: 1, flow: 7, wr_id: 1, bytes: 1024 }),
        ]
    }

    fn trimmed_then_recovered() -> SpanBuilder {
        let mut b = SpanBuilder::new();
        for (at, ev) in &trim_recovery_events() {
            b.record(*at, ev);
        }
        b
    }

    #[test]
    fn span_reconstructs_trim_and_recovery() {
        let b = trimmed_then_recovered();
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.first_tx, Some(100));
        assert_eq!(s.transmissions, 2);
        assert_eq!(s.retx, vec![(450, RetxCause::Ho)]);
        assert_eq!(s.trims, vec![(210, 10)]);
        assert_eq!(s.hops.len(), 2, "two passes through the switch");
        assert_eq!(s.hops[0].dequeue, Some(250));
        assert_eq!(s.hops[1].dequeue, Some(560));
        assert_eq!(s.time_in_queue(), 50 + 60);
        assert_eq!(s.time_in_recovery(), 350);
        let (_, m) = b.messages().next().unwrap();
        assert_eq!(m.latency(), Some(200));
    }

    #[test]
    fn jsonl_ingest_matches_live_recording() {
        let live = trimmed_then_recovered();
        // Re-render the same events as JSONL and rebuild offline.
        let evs = trim_recovery_events();
        let mut lines = String::new();
        for (at, ev) in &evs {
            lines.push_str(&ev.to_jsonl(*at));
            lines.push('\n');
        }
        lines.push_str("not json\n\n{\"other\": \"stream\"}\n");
        let mut offline = SpanBuilder::new();
        let mut unrecognized = 0;
        for item in ProbeEvent::read_jsonl(&lines) {
            match item {
                Some((at, ev)) => offline.record(at, &ev),
                None => unrecognized += 1,
            }
        }
        assert_eq!(unrecognized, 2, "foreign lines are reported, blank ones are not");
        assert_eq!(doc(&offline), doc(&live));
    }

    #[test]
    fn cap_truncates_new_spans_only() {
        let mut b = SpanBuilder::new().with_cap(1);
        b.record(1, &ProbeEvent::Tx { node: 0, flow: 1, psn: 0, bytes: 100 });
        b.record(2, &ProbeEvent::Tx { node: 0, flow: 1, psn: 1, bytes: 100 });
        b.record(
            3,
            &ProbeEvent::Retx { node: 0, flow: 1, psn: 0, bytes: 100, cause: RetxCause::Timeout },
        );
        assert_eq!(b.packets().count(), 1);
        assert_eq!(b.truncated, 1);
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.transmissions, 2, "existing span keeps accumulating");
    }

    #[test]
    fn stats_breakdown_is_populated() {
        let b = trimmed_then_recovered();
        let stats = b.stats_json();
        assert_eq!(stats.get("packet_spans").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("retx_packets").and_then(Json::as_u64), Some(1));
        let per_hop = stats.get("per_hop").and_then(Json::as_arr).unwrap();
        assert_eq!(per_hop.len(), 1);
        assert_eq!(per_hop[0].get("visits").and_then(Json::as_u64), Some(2));
        assert_eq!(per_hop[0].get("mean_queue_wait").and_then(Json::as_u64), Some(55));
    }

    type Spans = Vec<((u32, u32), PacketSpan)>;

    /// The fold the span store replaced, kept as its specification: every
    /// packet-level event applied in record order to a sorted map of full
    /// spans, new keys refused (and counted) once `cap` are held.
    fn reference_fold(events: &[(u64, ProbeEvent)], cap: usize) -> (Spans, u64) {
        use ProbeEvent as E;
        let mut spans: BTreeMap<(u32, u32), PacketSpan> = BTreeMap::new();
        let mut truncated = 0;
        for &(at, ev) in events {
            let (flow, psn) = match ev {
                E::Tx { flow, psn, .. }
                | E::Retx { flow, psn, .. }
                | E::Enqueue { flow, psn, .. }
                | E::Dequeue { flow, psn, .. }
                | E::Trim { flow, psn, .. }
                | E::Drop { flow, psn, .. }
                | E::EcnMark { flow, psn, .. } => (flow, psn),
                _ => continue,
            };
            if !spans.contains_key(&(flow, psn)) && spans.len() >= cap {
                truncated += 1;
                continue;
            }
            let s = spans.entry((flow, psn)).or_default();
            match ev {
                E::Tx { .. } | E::Retx { .. } => {
                    s.first_tx.get_or_insert(at);
                    s.transmissions += 1;
                    if let E::Retx { cause, .. } = ev {
                        s.retx.push((at, cause));
                    }
                }
                E::Enqueue { node, port, queue, .. } => {
                    s.hops.push(HopVisit { node, port, queue, enqueue: at, dequeue: None });
                }
                E::Dequeue { node, port, .. } => {
                    if let Some(h) = s
                        .hops
                        .iter_mut()
                        .rev()
                        .find(|h| h.node == node && h.port == port && h.dequeue.is_none())
                    {
                        h.dequeue = Some(at);
                    }
                }
                E::Trim { node, .. } => s.trims.push((at, node)),
                E::Drop { node, class, .. } => s.drops.push((at, node, class)),
                E::EcnMark { node, .. } => s.ecn.push((at, node)),
                _ => unreachable!(),
            }
        }
        (spans.into_iter().collect(), truncated)
    }

    /// Records `events` into a store capped at `cap` and asserts it reads
    /// back exactly the reference fold's spans and truncation count.
    fn fold_both(events: &[(u64, ProbeEvent)], cap: usize) -> SpanBuilder {
        let mut b = SpanBuilder::new().with_cap(cap);
        for (at, ev) in events {
            b.record(*at, ev);
        }
        let (want, truncated) = reference_fold(events, cap);
        assert_eq!(b.packets().collect::<Vec<_>>(), want);
        assert_eq!(b.truncated, truncated);
        b
    }

    fn enq(node: u32, port: u32, flow: u32, psn: u32) -> ProbeEvent {
        ProbeEvent::Enqueue { node, port, queue: QueueClass::Data, flow, psn, bytes: 1064 }
    }

    fn deq(node: u32, port: u32, flow: u32, psn: u32) -> ProbeEvent {
        ProbeEvent::Dequeue { node, port, queue: QueueClass::Ctrl, flow, psn, bytes: 64 }
    }

    fn tx(flow: u32, psn: u32) -> ProbeEvent {
        ProbeEvent::Tx { node: 0, flow, psn, bytes: 1064 }
    }

    fn retx(flow: u32, psn: u32, cause: RetxCause) -> ProbeEvent {
        ProbeEvent::Retx { node: 0, flow, psn, bytes: 1064, cause }
    }

    /// Slots in `h`'s run.
    fn run_len(r: &Records, h: &Head) -> usize {
        std::iter::successors(newest(h), |&p| r.before(h, p)).count()
    }

    /// A hop or mark is three 16-bit lanes, a chunk four of them plus its
    /// link, and a packet's head four words plus its newest chunk.
    #[test]
    fn records_pack_into_three_lanes() {
        assert_eq!(size_of::<Rec>(), 6, "Rec grew to {} bytes", size_of::<Rec>());
        assert_eq!(size_of::<Chunk>(), 28, "Chunk grew to {} bytes", size_of::<Chunk>());
        assert_eq!(size_of::<Head>(), 56, "Head grew to {} bytes", size_of::<Head>());
    }

    /// Every lane a compact record has. A time delta past 16 bits, or
    /// backwards, makes the record wide (two slots). A time offset ≥ 2^32
    /// past the head's first event, or before it, and a mark's node ≥ 2^23
    /// escape verbatim; so does a visit whose residence is 2^16 − 1 or
    /// more, or whose dequeue comes before its enqueue, once dequeued. Each reads back as the reference fold's span. A hop's
    /// node and port are a pair-table index, so node 2^19 and port 2^12
    /// stay compact.
    #[test]
    fn every_escape_lane_reads_back_verbatim() {
        let far = 1000 + (1u64 << 32);
        let events = vec![
            (1000, tx(1, 0)),
            (1010, enq(1 << 19, 2, 1, 0)),
            (1020, enq(4, 1 << 12, 1, 0)),
            (1030, deq(1 << 19, 2, 1, 0)),
            (1040, deq(4, 1 << 12, 1, 0)),
            (far, enq(4, 2, 1, 0)),
            (far + 5, deq(4, 2, 1, 0)),
            (500, enq(5, 2, 1, 0)),
            (600, deq(5, 2, 1, 0)),
            (2000, enq(6, 2, 1, 0)),
            (2000 + u64::from(u16::MAX), deq(6, 2, 1, 0)),
            (3000, enq(8, 2, 1, 0)),
            (3000 + u64::from(OPEN) - 1, deq(8, 2, 1, 0)),
            (3000, enq(7, 2, 1, 0)),
            (2500, deq(7, 2, 1, 0)),
            (100_000, enq(9, 2, 1, 0)),
            (100_010, deq(9, 2, 1, 0)),
            (1500, enq(10, 2, 1, 0)),
            (1100, ProbeEvent::Trim { node: 1 << 19, port: 0, flow: 1, psn: 0 }),
            (1200, ProbeEvent::EcnMark { node: 3, port: 0, flow: 1, psn: 0 }),
            (200_000, ProbeEvent::Trim { node: 3, port: 0, flow: 1, psn: 0 }),
            (1300, ProbeEvent::EcnMark { node: 1 << NODE_BITS, port: 0, flow: 1, psn: 0 }),
            (far, ProbeEvent::Drop { node: 3, port: 0, flow: 1, psn: 0, class: DropClass::Fault }),
            (400, retx(1, 0, RetxCause::Tlp)),
            (1250, ProbeEvent::EcnMark { node: 3, port: 0, flow: 1, psn: 0 }),
        ];
        let b = fold_both(&events, usize::MAX);
        let r = &b.recs;
        assert_eq!(
            r.visits.len(),
            4,
            "offset past 2^32, before the head, residence 2^16 − 1, dequeue before enqueue"
        );
        assert!(r.locs.pairs.contains(&(1 << 19, 2)), "node 2^19 stays compact");
        assert!(r.locs.pairs.contains(&(4, 1 << 12)), "port 2^12 stays compact");
        assert_eq!(r.marks.len(), 3, "node 2^23, offset past 2^32, before the head");
        let h = &b.heads.flows[&1].dense[0];
        assert_eq!(run_len(r, h), 9 + 7 + 5, "nine hops, seven marks, five wide");
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.hops[0].node, 1 << 19);
        assert_eq!(s.hops[1].port, 1 << 12);
        assert_eq!(s.hops[4].dequeue, Some(2000 + u64::from(u16::MAX)));
        assert_eq!(s.hops[5].dequeue, Some(3000 + u64::from(OPEN) - 1));
        assert_eq!(s.hops[6].dequeue, Some(2500), "a dequeue before its enqueue stays verbatim");
        assert_eq!(s.hops[7].dequeue, Some(100_010));
        assert_eq!((s.hops[8].enqueue, s.hops[8].dequeue), (1500, None));
        assert_eq!(s.retx, vec![(400, RetxCause::Tlp)]);
        assert_eq!(s.trims, vec![(1100, 1 << 19), (200_000, 3)]);
    }

    /// The pair table holds 16 382 distinct `(node, port)` pairs: a visit
    /// to the 16 383rd escapes verbatim, and pairs already held stay
    /// compact after the table fills.
    #[test]
    fn pair_table_overflow_escapes_verbatim() {
        let full = u32::from(LOC_WIDE);
        let mut events: Vec<_> = (0..full).map(|k| (u64::from(k), enq(k, 7, 2, 0))).collect();
        events.extend([
            (40_000, enq(full, 7, 2, 0)),
            (40_010, enq(3, 7, 2, 0)),
            (40_020, deq(full, 7, 2, 0)),
            (40_030, deq(3, 7, 2, 0)),
            (40_040, deq(3, 7, 2, 0)),
        ]);
        let b = fold_both(&events, usize::MAX);
        assert_eq!(b.recs.locs.pairs.len(), full as usize);
        assert_eq!(b.recs.visits.len(), 1, "only the 16 383rd pair escapes");
        let (_, s) = b.packets().next().unwrap();
        assert_eq!(s.hops[full as usize].dequeue, Some(40_020));
        assert_eq!(s.hops[full as usize + 1].dequeue, Some(40_030));
        assert_eq!(s.hops[3].dequeue, Some(40_040));
    }

    /// Replayed out of order — reversed, then shuffled — every event can
    /// precede its head's first event and every dequeue its enqueue.
    #[test]
    fn out_of_order_replay_matches_the_old_fold() {
        let mut events = trim_recovery_events();
        events.extend([(120, tx(7, 4)), (130, enq(10, 2, 7, 4)), (140, deq(10, 2, 7, 4))]);
        events.reverse();
        fold_both(&events, usize::MAX);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..events.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            events.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        fold_both(&events, usize::MAX);
    }

    /// A dequeue that finds no open visit to its queue — on a new key, on
    /// a different port, or a second dequeue — patches nothing but still
    /// opens the span, as the old fold did.
    #[test]
    fn dequeue_without_open_visit_patches_nothing() {
        let events = vec![
            (10, deq(3, 1, 2, 9)),
            (20, enq(3, 1, 2, 8)),
            (30, deq(3, 2, 2, 8)),
            (40, deq(4, 1, 2, 8)),
            (50, deq(3, 1, 2, 8)),
            (60, deq(3, 1, 2, 8)),
        ];
        let b = fold_both(&events, usize::MAX);
        let spans: Vec<_> = b.packets().collect();
        assert_eq!(spans[0].1.hops[0].dequeue, Some(50));
        assert_eq!(spans[1].0, (2, 9));
        assert!(spans[1].1.hops.is_empty() && spans[1].1.first_tx.is_none());
    }

    /// A re-routed retransmission enters the same switch port while the
    /// first copy still waits there: dequeues close the newest open visit
    /// first, and visits elsewhere in between are skipped over.
    #[test]
    fn retransmission_through_one_switch_twice() {
        let events = vec![
            (100, tx(5, 0)),
            (200, enq(10, 2, 5, 0)),
            (300, retx(5, 0, RetxCause::Timeout)),
            (310, enq(11, 0, 5, 0)),
            (400, enq(10, 2, 5, 0)),
            (410, deq(10, 2, 5, 0)),
            (420, deq(11, 0, 5, 0)),
            (430, deq(10, 2, 5, 0)),
        ];
        let b = fold_both(&events, usize::MAX);
        let (_, s) = b.packets().next().unwrap();
        let deqs: Vec<_> = s.hops.iter().map(|h| (h.enqueue, h.dequeue)).collect();
        assert_eq!(deqs, vec![(200, Some(430)), (310, Some(420)), (400, Some(410))]);
        assert_eq!(s.time_in_recovery(), 200);
    }

    /// At the cap, every event on a new key is refused and counted — each
    /// kind, repeatedly — while held keys keep folding and per-flow
    /// counters still count.
    #[test]
    fn cap_hit_on_a_new_key_is_counted_per_event() {
        let events = vec![
            (1, tx(1, 0)),
            (2, tx(2, 0)),
            (3, enq(3, 1, 3, 0)),
            (4, deq(3, 1, 3, 0)),
            (5, ProbeEvent::Trim { node: 3, port: 1, flow: 3, psn: 0 }),
            (6, retx(1, 0, RetxCause::Ho)),
            (7, tx(1, 1)),
            (8, ProbeEvent::HoReceived { node: 0, flow: 3 }),
            (9, tx(4, 0)),
        ];
        let b = fold_both(&events, 2);
        assert_eq!(b.truncated, 5);
        assert!(!b.heads.flows.contains_key(&4), "a refused key opens no flow");
        let doc = Json::parse(&doc(&b)).expect("the document parses");
        let flows = doc.get("flows").and_then(Json::as_arr).unwrap();
        assert_eq!(flows.len(), 1, "counters are not capped");
    }

    /// Flow ids are sparse and unbounded, PSNs reach 2^24 and beyond:
    /// storage follows the number of packets, never an id's value.
    #[test]
    fn huge_ids_allocate_by_count_not_value() {
        let flow = u32::MAX - 1;
        let mut events = Vec::new();
        for (i, psn) in [0, (1 << 24) - 1, 1, u32::MAX, 2, 1 << 23].into_iter().enumerate() {
            let at = 10 * i as u64;
            events.extend([(at, tx(flow, psn)), (at + 1, enq(1, 1, flow, psn))]);
            events.push((at + 2, deq(1, 1, flow, psn)));
        }
        events.push((100, tx(u32::MAX, u32::MAX)));
        let b = fold_both(&events, usize::MAX);
        let f = &b.heads.flows[&flow];
        assert_eq!((f.dense.len(), f.sparse.len()), (3, 3), "far PSNs go sparse");
        assert!(f.dense.capacity() <= 2 * DENSE_SLACK);
        assert_eq!(b.heads.flows.len(), 2);
    }

    /// A pseudo-random mix of every packet-level kind over a handful of
    /// keys — times mostly rising with jumps back and past 2^32, lanes
    /// sometimes overflowing — agrees with the old fold at several caps.
    #[test]
    fn random_streams_match_the_old_fold() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut at = 0u64;
        let mut events = Vec::new();
        for _ in 0..20_000 {
            at = match next(50) {
                0 => at.saturating_sub(next(1000)),
                1 => at + (1 << 32) + next(10),
                _ => at + next(300),
            };
            let (flow, psn) = (next(4) as u32 * 0x4000_0000, next(40) as u32 * 3);
            let node = if next(20) == 0 { 1 << 19 } else { next(3) as u32 };
            let port = if next(20) == 0 { 1 << 12 } else { next(2) as u32 };
            let ev = match next(8) {
                0 => tx(flow, psn),
                1 => retx(flow, psn, CAUSES[next(8) as usize]),
                2 | 3 => enq(node, port, flow, psn),
                4 | 5 => deq(node, port, flow, psn),
                6 => ProbeEvent::Trim { node, port, flow, psn },
                _ => ProbeEvent::Drop {
                    node,
                    port,
                    flow,
                    psn,
                    class: DROP_CLASSES[next(5) as usize],
                },
            };
            events.push((at, ev));
        }
        for cap in [usize::MAX, 100, 7] {
            fold_both(&events, cap);
        }
    }

    /// Random stories over six interleaved packets, each on its own clock:
    /// repeat visits to a few `(node, port)`s, dequeues of a random open
    /// visit (out of enqueue order) or of none, and steps between a
    /// packet's events that are small, near 2^16, past it or backwards —
    /// so deltas and residences overflow their lanes both ways. Every
    /// seed reads back the reference fold's spans, and the seeds together
    /// reach every record form.
    #[test]
    fn random_stories_match_the_reference_fold() {
        let (mut wide, mut long, mut escaped) = (0, 0, 0);
        for seed in 1..=64u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut clock = [1u64 << 20; 6];
            let mut open: [Vec<(u32, u32)>; 6] = Default::default();
            let mut events = Vec::new();
            for _ in 0..600 {
                let p = next(6) as usize;
                let (flow, psn) = (p as u32 % 2, p as u32 / 2);
                clock[p] = match next(10) {
                    0 => clock[p] + 0xFFF0 + next(32),
                    1 => clock[p] + (1 << 16) + next(1 << 24),
                    2 => clock[p].saturating_sub(next(1 << 17)),
                    3 => clock[p] + next(1 << 16),
                    _ => clock[p] + next(256),
                };
                let (node, port) = (next(3) as u32, next(2) as u32);
                let ev = match next(10) {
                    0 => tx(flow, psn),
                    1 => retx(flow, psn, CAUSES[next(8) as usize]),
                    2..=4 => {
                        open[p].push((node, port));
                        enq(node, port, flow, psn)
                    }
                    5..=7 if !open[p].is_empty() && next(5) > 0 => {
                        let i = next(open[p].len() as u64) as usize;
                        let (node, port) = open[p].swap_remove(i);
                        deq(node, port, flow, psn)
                    }
                    5..=7 => deq(node, port, flow, psn),
                    8 => ProbeEvent::Trim { node, port, flow, psn },
                    _ => ProbeEvent::EcnMark { node, port, flow, psn },
                };
                events.push((clock[p], ev));
            }
            let b = fold_both(&events, usize::MAX);
            let heads = b.heads.sorted();
            let records = heads
                .iter()
                .map(|(_, h)| b.span(h))
                .map(|s| s.hops.len() + s.retx.len() + s.trims.len() + s.drops.len() + s.ecn.len());
            let slots = heads.iter().map(|(_, h)| run_len(&b.recs, h));
            wide += slots.sum::<usize>() - records.sum::<usize>();
            long += b
                .recs
                .visits
                .iter()
                .filter(|(v, _)| {
                    v.dequeue.is_some_and(|d| d.checked_sub(v.enqueue).is_none_or(|r| r >= 0xFFFF))
                })
                .count();
            escaped += b.recs.visits.len() + b.recs.marks.len();
        }
        assert!(wide > 1000 && long > 100 && escaped > 10, "{wide} wide, {long} long, {escaped}");
    }

    /// The worst case for the lanes: every hop's and every mark's time
    /// delta overflows 16 bits, so every record is wide. Each still costs
    /// two slots — 12 bytes — plus its share of a chunk's link; the heads
    /// come on top.
    #[test]
    fn all_wide_records_cost_at_most_twelve_bytes_plus_links() {
        let (packets, per) = (64u32, 512u64);
        let mut events = Vec::new();
        for psn in 0..packets {
            events.push((0, tx(1, psn)));
            for k in 1..=per {
                let at = k * 140_000;
                events.push((at, enq(2, 0, 1, psn)));
                events.push((at + 100, deq(2, 0, 1, psn)));
                let ecn = ProbeEvent::EcnMark { node: 2, port: 0, flow: 1, psn };
                events.push((at + 70_000, ecn));
            }
        }
        let b = fold_both(&events, usize::MAX);
        let records = 2 * packets as usize * per as usize;
        let chunks = b.recs.chunks.len as usize;
        let tails: usize = b.heads.sorted().iter().map(|(_, h)| usize::from(h.fill)).sum();
        assert_eq!(chunks * RUN + tails, 2 * records, "every record wide");
        assert!(b.recs.visits.is_empty() && b.recs.marks.is_empty());
        let link = size_of::<Chunk>() - RUN * size_of::<Rec>();
        let bound = 12 * records + chunks * link + b.heads.heap_bytes() + 1024;
        let per_record = b.heap_bytes() as f64 / records as f64;
        assert!(b.heap_bytes() <= bound, "{per_record:.3} B per record");
    }

    /// Strided flow ids — multiples of 2^22, or consecutive — spread over
    /// the low bits a hash table indexes by, as random keys would.
    #[test]
    fn flow_hash_spreads_strided_ids() {
        for stride in [1u32, 1 << 12, 1 << 22] {
            let buckets: std::collections::BTreeSet<u64> = (0..1024u32)
                .map(|i| {
                    let mut h = FlowHasher::default();
                    h.write_u32(i.wrapping_mul(stride));
                    h.finish() & 1023
                })
                .collect();
            assert!(buckets.len() > 550, "stride {stride}: {} of 1024 buckets", buckets.len());
        }
    }
}
