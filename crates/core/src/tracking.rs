//! Bitmap-free packet tracking (§4.5): the counting receiver state that
//! replaces per-packet bitmaps.
//!
//! Per tracked message: a multi-bit packet counter, the message-complete
//! flag (`mcf`), the CQE flag (`cf`) and the retry round (`rRetryNo`). Per
//! QP: the expected message sequence number (`eMSN`). Memory per message is
//! a few bytes — Table 3's 32 B/QP — versus the BDP-sized bitmap's 320 B.
//!
//! Soundness rests on the lossless control plane's "exactly-once" delivery:
//! each PSN arrives at most once per retry round, so counting arrivals
//! equals counting distinct packets. The coarse-timeout fallback breaks
//! exactly-once, and the `sRetryNo`/`rRetryNo` handshake restores it by
//! restarting the count for the newest round.
//!
//! A fabric that *duplicates* packets (a flapping LAG member replaying a
//! buffered frame) breaks the assumption a second way the handshake cannot
//! see: two copies of the same current-round packet would count as two
//! distinct packets and could raise `mcf` with a real packet still missing
//! — a completion over a hole. The tracker therefore keeps a per-message
//! *seen-index* set and reports the second copy as [`Track::DupInRound`]
//! instead of counting it. The guard is pure defense: on a non-duplicating
//! fabric it never fires (each PSN arrives at most once per round), so
//! clean-run traces are identical with or without it. The honest cost —
//! per-packet state, exactly what the counting design eliminates — is
//! discussed in DESIGN.md (Findings): DCP's 2 B/message figure holds only
//! on fabrics that may lose or reorder but never duplicate.

/// Outcome of offering a packet to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Counted toward the message.
    Counted,
    /// The packet belongs to an already-completed message (duplicate from a
    /// retry round; harmless).
    Stale,
    /// The packet's retry round is older than the receiver's — ignored.
    OldRound,
    /// A second copy of a packet already counted in the *current* round —
    /// wire duplication. Counting it would risk completing the message with
    /// another packet still missing, so the tracker rejects it.
    DupInRound,
    /// Message table is full; packet cannot be tracked. Hardware would
    /// back-pressure here; the model drops (sender's fallback recovers).
    TableFull,
}

#[derive(Debug, Clone)]
struct MsgTrack {
    /// Packets counted in the current retry round.
    counter: u32,
    /// Total packets in the message; learned from the *last* packet's index
    /// (only the last packet reveals the message length).
    expected: Option<u32>,
    /// Payload bytes implied by the last packet (offset + len).
    bytes: u64,
    /// Message completion flag.
    mcf: bool,
    /// CQE flag — set when the message wants a completion (two-sided ops
    /// and Write-with-Immediate).
    cf: bool,
    /// Immediate value delivered with the completion.
    imm: u32,
    /// Receiver-side retry round (§4.5's rRetryNo).
    rretry: u8,
    /// Packet indices 0..64 counted this round, one bit each — inline so
    /// messages up to 64 packets (256 KB at 4 KB MTU) track without heap
    /// allocation. Defends the count against fabric duplication — see the
    /// module docs for why this re-introduces per-packet state.
    seen0: u64,
    /// Spill bits for indices ≥ 64 (lazily grown; rare for typical MTUs).
    seen_spill: Vec<u64>,
}

impl MsgTrack {
    fn new() -> Self {
        MsgTrack {
            counter: 0,
            expected: None,
            bytes: 0,
            mcf: false,
            cf: false,
            imm: 0,
            rretry: 0,
            seen0: 0,
            seen_spill: Vec::new(),
        }
    }

    /// Marks `index` as seen this round; returns whether it already was.
    fn test_and_set(&mut self, index: u32) -> bool {
        if index < 64 {
            let already = self.seen0 & (1 << index) != 0;
            self.seen0 |= 1 << index;
            return already;
        }
        let (word, bit) = (((index - 64) / 64) as usize, index % 64);
        if self.seen_spill.len() <= word {
            self.seen_spill.resize(word + 1, 0);
        }
        let already = self.seen_spill[word] & (1 << bit) != 0;
        self.seen_spill[word] |= 1 << bit;
        already
    }

    fn clear_seen(&mut self) {
        self.seen0 = 0;
        self.seen_spill.clear();
    }
}

/// A message that completed in eMSN order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedMsg {
    pub msn: u32,
    pub bytes: u64,
    pub cf: bool,
    pub imm: u32,
}

/// The per-QP bitmap-free tracker.
///
/// # Examples
/// Packets of a 3-packet message arriving fully out of order still
/// complete exactly once:
/// ```
/// use dcp_core::tracking::{MsgTracker, Track};
/// let mut t = MsgTracker::new(8);
/// // (msn, retry, is_last, index, end_bytes, wants_cqe, imm)
/// assert_eq!(t.on_packet(0, 0, true, 2, 3072, true, 0), Track::Counted);
/// assert_eq!(t.on_packet(0, 0, false, 0, 0, true, 0), Track::Counted);
/// assert!(t.drain_completed().is_empty(), "one packet still missing");
/// t.on_packet(0, 0, false, 1, 0, true, 0);
/// let done = t.drain_completed();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].bytes, 3072);
/// assert_eq!(t.emsn(), 1);
/// ```
#[derive(Debug)]
pub struct MsgTracker {
    emsn: u32,
    /// Tracks messages `emsn .. emsn + window.len()`; index 0 is `emsn`.
    window: std::collections::VecDeque<MsgTrack>,
    cap: usize,
    /// Duplicate/stale packets observed (diagnostics).
    pub stale_pkts: u64,
}

impl MsgTracker {
    pub fn new(cap: usize) -> Self {
        MsgTracker { emsn: 0, window: std::collections::VecDeque::new(), cap, stale_pkts: 0 }
    }

    pub fn emsn(&self) -> u32 {
        self.emsn
    }

    /// Offers one data packet: `msn`, its `sretry_no`, whether it is the
    /// last packet of the message, its index within the message, the bytes
    /// the message spans if this is the last packet, and completion flags.
    #[allow(clippy::too_many_arguments)]
    pub fn on_packet(
        &mut self,
        msn: u32,
        sretry: u8,
        is_last: bool,
        index: u32,
        end_bytes: u64,
        wants_cqe: bool,
        imm: u32,
    ) -> Track {
        if msn < self.emsn {
            self.stale_pkts += 1;
            return Track::Stale;
        }
        let off = (msn - self.emsn) as usize;
        if off >= self.cap {
            return Track::TableFull;
        }
        while self.window.len() <= off {
            self.window.push_back(MsgTrack::new());
        }
        let t = &mut self.window[off];
        // Retry-round handshake (§4.5): newer round restarts the count,
        // older rounds are ignored.
        if sretry > t.rretry {
            t.rretry = sretry;
            t.counter = 0;
            t.clear_seen();
        } else if sretry < t.rretry {
            self.stale_pkts += 1;
            return Track::OldRound;
        }
        if t.test_and_set(index) {
            self.stale_pkts += 1;
            return Track::DupInRound;
        }
        t.counter += 1;
        if is_last {
            t.expected = Some(index + 1);
            t.bytes = end_bytes;
            t.cf = wants_cqe;
            t.imm = imm;
        }
        if t.expected == Some(t.counter) {
            t.mcf = true;
        }
        Track::Counted
    }

    /// Pops messages completed in eMSN order ("messages are completed in
    /// order", §4.5). An ACK carrying the new eMSN should follow a
    /// non-empty result.
    pub fn drain_completed(&mut self) -> Vec<CompletedMsg> {
        let mut out = Vec::new();
        self.drain_completed_into(&mut out);
        out
    }

    /// Allocation-free variant of [`drain_completed`](Self::drain_completed):
    /// appends to a caller-owned buffer so the delivery hot path can reuse
    /// one Vec across packets.
    pub fn drain_completed_into(&mut self, out: &mut Vec<CompletedMsg>) {
        while let Some(front) = self.window.front() {
            if !front.mcf {
                break;
            }
            let t = self.window.pop_front().unwrap();
            out.push(CompletedMsg { msn: self.emsn, bytes: t.bytes, cf: t.cf, imm: t.imm });
            self.emsn += 1;
        }
    }

    /// Returns the tracker to its initial state while keeping the window's
    /// buffer capacity — the receiver half of connection recycling (the QP
    /// slab reuses endpoint structures across flow lifetimes).
    pub fn reset(&mut self) {
        self.emsn = 0;
        self.window.clear();
        self.stale_pkts = 0;
    }

    /// Current number of tracked (incomplete) messages.
    pub fn tracked(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds all packets of a `pkts`-packet message in the given order.
    fn feed(t: &mut MsgTracker, msn: u32, order: &[u32], pkts: u32) -> Vec<CompletedMsg> {
        let mut done = Vec::new();
        for &i in order {
            let is_last = i == pkts - 1;
            t.on_packet(msn, 0, is_last, i, (pkts as u64) * 1024, true, 0);
            done.extend(t.drain_completed());
        }
        done
    }

    #[test]
    fn in_order_message_completes() {
        let mut t = MsgTracker::new(8);
        let done = feed(&mut t, 0, &[0, 1, 2, 3], 4);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].msn, 0);
        assert_eq!(t.emsn(), 1);
    }

    #[test]
    fn any_arrival_order_completes_without_bitmap() {
        for order in [[3u32, 0, 2, 1], [1, 3, 2, 0], [2, 1, 3, 0]] {
            let mut t = MsgTracker::new(8);
            let done = feed(&mut t, 0, &order, 4);
            assert_eq!(done.len(), 1, "order {order:?}");
        }
    }

    #[test]
    fn out_of_order_message_completion_waits_for_emsn() {
        let mut t = MsgTracker::new(8);
        // Message 1 completes fully before message 0.
        assert!(feed(&mut t, 1, &[0, 1], 2).is_empty());
        let done = feed(&mut t, 0, &[0, 1], 2);
        assert_eq!(
            done.iter().map(|c| c.msn).collect::<Vec<_>>(),
            vec![0, 1],
            "delivered in MSN order"
        );
        assert_eq!(t.emsn(), 2);
        assert_eq!(t.tracked(), 0);
    }

    #[test]
    fn stale_packets_of_completed_messages_are_flagged() {
        let mut t = MsgTracker::new(8);
        feed(&mut t, 0, &[0, 1], 2);
        assert_eq!(t.on_packet(0, 0, true, 1, 2048, true, 0), Track::Stale);
        assert_eq!(t.stale_pkts, 1);
    }

    #[test]
    fn retry_round_restart_recounts() {
        let mut t = MsgTracker::new(8);
        // Round 0: two of four packets arrive, then the sender times out.
        t.on_packet(0, 0, false, 0, 0, true, 0);
        t.on_packet(0, 0, false, 1, 0, true, 0);
        // Round 1 arrives: the counter restarts — old arrivals must not
        // combine with new ones (that would double-count).
        assert_eq!(t.on_packet(0, 1, false, 0, 0, true, 0), Track::Counted);
        // A straggler from round 0 is ignored.
        assert_eq!(t.on_packet(0, 0, false, 2, 0, true, 0), Track::OldRound);
        // Completing round 1 completes the message.
        t.on_packet(0, 1, false, 1, 0, true, 0);
        t.on_packet(0, 1, false, 2, 0, true, 0);
        t.on_packet(0, 1, true, 3, 4096, true, 7);
        let done = t.drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].imm, 7);
        assert_eq!(done[0].bytes, 4096);
    }

    /// The corruption class Finding 1's `sRetryNo` decision defends
    /// against, now for wire duplication: two copies of one current-round
    /// packet must not complete a message that still has a hole.
    #[test]
    fn in_round_duplicate_cannot_complete_over_a_hole() {
        let mut t = MsgTracker::new(8);
        // 3-packet message; packet 1 is lost but packet 0 arrives twice.
        assert_eq!(t.on_packet(0, 0, false, 0, 0, true, 0), Track::Counted);
        assert_eq!(t.on_packet(0, 0, false, 0, 0, true, 0), Track::DupInRound);
        assert_eq!(t.on_packet(0, 0, true, 2, 3072, true, 0), Track::Counted);
        assert!(t.drain_completed().is_empty(), "a duplicate must not fill the hole");
        assert_eq!(t.stale_pkts, 1);
        // The real packet completes it.
        assert_eq!(t.on_packet(0, 0, false, 1, 0, true, 0), Track::Counted);
        assert_eq!(t.drain_completed().len(), 1);
    }

    /// A round bump clears the seen-set: the retransmitted round's copies
    /// are fresh packets, not duplicates of the old round's.
    #[test]
    fn round_restart_clears_duplicate_guard() {
        let mut t = MsgTracker::new(8);
        t.on_packet(0, 0, false, 0, 0, true, 0);
        assert_eq!(t.on_packet(0, 1, false, 0, 0, true, 0), Track::Counted);
        assert_eq!(t.on_packet(0, 1, false, 0, 0, true, 0), Track::DupInRound);
        t.on_packet(0, 1, true, 1, 2048, true, 0);
        assert_eq!(t.drain_completed().len(), 1);
    }

    #[test]
    fn mixed_rounds_never_complete_early() {
        let mut t = MsgTracker::new(8);
        // 3 arrivals of round 0 (of a 4-packet message), then round 1
        // starts: count must be 1, not 4.
        for i in 0..3 {
            t.on_packet(0, 0, false, i, 0, true, 0);
        }
        t.on_packet(0, 1, true, 3, 4096, true, 0);
        assert!(t.drain_completed().is_empty(), "one round-1 packet is not a complete message");
    }

    #[test]
    fn single_packet_message() {
        let mut t = MsgTracker::new(8);
        t.on_packet(0, 0, true, 0, 512, false, 0);
        let done = t.drain_completed();
        assert_eq!(done.len(), 1);
        assert!(!done[0].cf, "unsignalled message carries no CQE flag");
    }

    #[test]
    fn table_full_rejects() {
        let mut t = MsgTracker::new(2);
        assert_eq!(t.on_packet(0, 0, false, 0, 0, true, 0), Track::Counted);
        assert_eq!(t.on_packet(1, 0, false, 0, 0, true, 0), Track::Counted);
        assert_eq!(t.on_packet(2, 0, false, 0, 0, true, 0), Track::TableFull);
    }

    #[test]
    fn interleaved_messages_track_independently() {
        let mut t = MsgTracker::new(8);
        t.on_packet(0, 0, false, 0, 0, true, 0);
        t.on_packet(1, 0, false, 0, 0, true, 0);
        t.on_packet(1, 0, true, 1, 2048, true, 0);
        t.on_packet(0, 0, true, 1, 2048, true, 0);
        let done = t.drain_completed();
        assert_eq!(done.iter().map(|c| c.msn).collect::<Vec<_>>(), vec![0, 1]);
    }
}
