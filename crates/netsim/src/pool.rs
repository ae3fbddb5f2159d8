//! Slab arena for in-flight packets.
//!
//! Every packet that exists inside the fabric — queued at a switch port,
//! riding a propagation event, staged in a host NIC — lives in one
//! [`PacketPool`] owned by the simulator, and moves through the hot path as
//! an 8-byte [`PktRef`] instead of a ~200-byte struct. That keeps event
//! wheel nodes and `VecDeque` rotations down to handle-sized memcpys,
//! which is where the event-loop working set comes from at 256-host CLOS
//! scale.
//!
//! # Determinism
//!
//! The free-list is a LIFO `Vec`: `take`/`release` push the slot index,
//! `insert` pops it. Slot assignment is therefore a pure function of the
//! order of pool calls, which is itself a pure function of event order —
//! same-seed runs recycle identical slots in identical order, so traces
//! stay byte-identical (asserted by `pool_free_list_is_deterministic` and
//! the repo-wide determinism suite).
//!
//! # Handle safety
//!
//! `PktRef` carries the slot's generation; `insert` bumps it each time a
//! slot is recycled. Debug builds check the generation on every access, so
//! use-after-free (touching a handle after `take`/`release`) panics instead
//! of silently reading whatever packet now occupies the slot. Release
//! builds skip the check on the hot path; the quiescence leak check
//! (`Simulator::check_conservation`) still catches handles that were never
//! returned.

use crate::packet::Packet;

/// Generational handle to a pooled [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktRef {
    idx: u32,
    gen: u32,
}

impl PktRef {
    /// Slot index — for diagnostics only; the pool is the sole authority.
    pub fn idx(self) -> u32 {
        self.idx
    }
}

struct Slot {
    gen: u32,
    pkt: Option<Packet>,
}

/// Slab arena with a LIFO free-list; owns every in-flight [`Packet`].
#[derive(Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl PacketPool {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        PacketPool { slots: Vec::with_capacity(n), free: Vec::with_capacity(n), live: 0 }
    }

    /// Moves `pkt` into the pool and returns its handle. Recycles the most
    /// recently freed slot first (LIFO — deterministic and cache-warm).
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PktRef {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.pkt.is_none(), "free-list slot still occupied");
                slot.pkt = Some(pkt);
                PktRef { idx, gen: slot.gen }
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, pkt: Some(pkt) });
                PktRef { idx, gen: 0 }
            }
        }
    }

    /// Moves the packet out of the pool, freeing the slot. The handle (and
    /// any copy of it) is dead afterwards.
    ///
    /// # Panics
    /// Debug builds panic on a stale or double-taken handle.
    #[inline]
    pub fn take(&mut self, r: PktRef) -> Packet {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert_eq!(slot.gen, r.gen, "stale PktRef: slot {} was recycled", r.idx);
        let pkt = slot.pkt.take().expect("PktRef points at an empty slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        pkt
    }

    /// Frees the slot, dropping the packet (a switch drop decision).
    #[inline]
    pub fn release(&mut self, r: PktRef) {
        let _ = self.take(r);
    }

    /// Borrows the packet behind `r`.
    #[inline]
    pub fn get(&self, r: PktRef) -> &Packet {
        let slot = &self.slots[r.idx as usize];
        debug_assert_eq!(slot.gen, r.gen, "stale PktRef: slot {} was recycled", r.idx);
        slot.pkt.as_ref().expect("PktRef points at an empty slot")
    }

    /// Mutably borrows the packet behind `r` (trim-in-place, ECN marking).
    #[inline]
    pub fn get_mut(&mut self, r: PktRef) -> &mut Packet {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert_eq!(slot.gen, r.gen, "stale PktRef: slot {} was recycled", r.idx);
        slot.pkt.as_mut().expect("PktRef points at an empty slot")
    }

    /// Number of live (inserted, not yet taken) packets.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no packet is in flight — the quiescence invariant.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever created (high-water mark of in-flight packets).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl std::ops::Index<PktRef> for PacketPool {
    type Output = Packet;

    #[inline]
    fn index(&self, r: PktRef) -> &Packet {
        self.get(r)
    }
}

impl std::ops::IndexMut<PktRef> for PacketPool {
    #[inline]
    fn index_mut(&mut self, r: PktRef) -> &mut Packet {
        self.get_mut(r)
    }
}

impl std::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("live", &self.live)
            .field("slots", &self.slots.len())
            .field("free", &self.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PktDesc, PktExt};
    use dcp_rdma::headers::*;

    fn pkt(uid: u64) -> Packet {
        Packet {
            uid,
            flow: FlowId(1),
            header: PacketHeader {
                eth: EthHeader::new(MacAddr::from_host(0), MacAddr::from_host(1)),
                ip: Ipv4Header::new(5, 9, DcpTag::Data, 0),
                udp: UdpHeader::roce(100, 0),
                bth: Bth { opcode: RdmaOpcode::WriteOnly, dest_qpn: 1, psn: 7, ack_req: false },
                dcp: None,
                reth: None,
                aeth: None,
            },
            payload_len: 0,
            desc: PktDesc::NONE,
            ext: PktExt::None,
            sent_at: 0,
            is_retx: false,
            retx_cause: dcp_telemetry::RetxCause::Unknown,
            ingress: 0,
        }
    }

    #[test]
    fn handle_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<PktRef>(), 8);
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool[a].uid, 1);
        assert_eq!(pool.take(b).uid, 2);
        assert_eq!(pool.take(a).uid, 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn free_list_is_lifo_and_deterministic() {
        let run = || {
            let mut pool = PacketPool::new();
            let a = pool.insert(pkt(1));
            let b = pool.insert(pkt(2));
            pool.release(a);
            pool.release(b);
            // LIFO: b's slot comes back first, then a's.
            let c = pool.insert(pkt(3));
            let d = pool.insert(pkt(4));
            (c.idx(), d.idx(), b.idx(), a.idx())
        };
        let (c1, d1, b1, a1) = run();
        assert_eq!((c1, d1), (b1, a1), "most recently freed slot is reused first");
        assert_eq!(run(), run(), "same call order recycles identical slots");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PktRef")]
    fn stale_handle_panics_in_debug() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        pool.release(a);
        let _b = pool.insert(pkt(2)); // recycles a's slot with a new gen
        let _ = pool[a]; // use-after-free
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn double_take_panics_in_debug() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let _ = pool.take(a);
        let _ = pool.take(a);
    }

    #[test]
    fn capacity_tracks_high_water_mark() {
        let mut pool = PacketPool::new();
        let refs: Vec<_> = (0..8).map(|i| pool.insert(pkt(i))).collect();
        for r in refs {
            pool.release(r);
        }
        for i in 0..8 {
            pool.insert(pkt(i));
        }
        assert_eq!(pool.capacity(), 8, "steady-state reuse creates no new slots");
    }
}
