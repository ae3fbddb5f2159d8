//! Queue Pair descriptors: Work Queue Elements, the Receive Queue and the
//! RetransQ entry.
//!
//! A Reliable-Connection QP in this reproduction is the pair of endpoints a
//! transport instance drives. The requester's posted messages live in the
//! transport's send book (`dcp_transport::common::TxBook`) and, under DCP,
//! its host-memory Retransmission Queue (RetransQ, §4.3) is a queue of
//! [`RetransEntry`] in the DCP sender; the responder holds the Receive Queue
//! ([`RecvQueue`]), matched by SSN (§4.4). Completions are reported through
//! the simulator's endpoint interface, not a per-QP Completion Queue.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Queue Pair Number (24 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Qpn(pub u32);

/// The operation a send Work Request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkReqOp {
    /// Two-sided Send: consumes a Receive WQE at the responder.
    Send,
    /// One-sided Write to `remote_addr`.
    Write { remote_addr: u64, rkey: u32 },
    /// One-sided Write that also delivers an immediate value, consuming a
    /// Receive WQE at the responder on completion.
    WriteImm { remote_addr: u64, rkey: u32, imm: u32 },
}

impl WorkReqOp {
    /// True for operations that consume a Receive WQE at the responder and
    /// therefore carry an SSN under DCP (§4.4).
    pub fn consumes_recv_wqe(&self) -> bool {
        !matches!(self, WorkReqOp::Write { .. })
    }
}

/// A send-side Work Queue Element: one message posted to the SQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendWqe {
    /// Application-chosen identifier returned in the completion.
    pub wr_id: u64,
    pub op: WorkReqOp,
    /// Local virtual address of the message payload.
    pub local_addr: u64,
    /// Message length in bytes. Zero-length messages occupy one packet.
    pub len: u64,
    /// Message Sequence Number: posting order in the SQ, assigned at post
    /// time and carried in every packet of the message (Fig. 4a).
    pub msn: u32,
    /// Send Sequence Number for two-sided operations: posting order among
    /// the WQEs that consume Receive WQEs (§4.4). `None` for plain Writes.
    pub ssn: Option<u32>,
    /// Whether the application asked for a completion on this WQE.
    pub signaled: bool,
}

impl SendWqe {
    /// Number of packets this message segments into at the given MTU.
    pub fn packet_count(&self, mtu: usize) -> u32 {
        if self.len == 0 {
            1
        } else {
            self.len.div_ceil(mtu as u64) as u32
        }
    }
}

/// A receive-side Work Queue Element: one buffer posted to the RQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecvWqe {
    pub wr_id: u64,
    pub addr: u64,
    pub len: u64,
}

/// Receive queue: buffers posted by the application, consumed in SSN order.
#[derive(Debug, Default, Clone)]
pub struct RecvQueue {
    entries: VecDeque<RecvWqe>,
    /// SSN of the WQE at the front of the queue.
    front_ssn: u32,
}

impl RecvQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn post(&mut self, wqe: RecvWqe) {
        self.entries.push_back(wqe);
    }

    /// Looks up the Receive WQE matching a given SSN without consuming it —
    /// what the DCP receiver does when an out-of-order Send packet arrives
    /// carrying its SSN (§4.4).
    pub fn by_ssn(&self, ssn: u32) -> Option<&RecvWqe> {
        let ix = ssn.checked_sub(self.front_ssn)? as usize;
        self.entries.get(ix)
    }

    /// Consumes the front WQE once the message with `front_ssn` completes.
    pub fn consume_front(&mut self) -> Option<RecvWqe> {
        let w = self.entries.pop_front()?;
        self.front_ssn += 1;
        Some(w)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the queue and rewinds the SSN cursor, keeping the buffer
    /// capacity — used when a QP slot is recycled for a new connection.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.front_ssn = 0;
    }
}

/// A retransmission entry: the metadata the DCP Rx path extracts from a
/// header-only packet and DMA-writes into the host-memory RetransQ (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransEntry {
    pub msn: u32,
    pub psn: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_rounds_up_and_handles_zero_len() {
        let wqe = SendWqe {
            wr_id: 0,
            op: WorkReqOp::Send,
            local_addr: 0,
            len: 2049,
            msn: 0,
            ssn: Some(0),
            signaled: true,
        };
        assert_eq!(wqe.packet_count(1024), 3);
        let zero = SendWqe { len: 0, ..wqe };
        assert_eq!(zero.packet_count(1024), 1);
        let exact = SendWqe { len: 2048, ..wqe };
        assert_eq!(exact.packet_count(1024), 2);
    }

    #[test]
    fn recv_queue_matches_by_ssn_and_consumes_in_order() {
        let mut rq = RecvQueue::new();
        for i in 0..3u64 {
            rq.post(RecvWqe { wr_id: i, addr: i * 0x1000, len: 0x1000 });
        }
        assert_eq!(rq.by_ssn(2).unwrap().wr_id, 2);
        assert_eq!(rq.by_ssn(3), None);
        assert_eq!(rq.consume_front().unwrap().wr_id, 0);
        // After consuming SSN 0, SSN 1 is at the front.
        assert_eq!(rq.by_ssn(1).unwrap().wr_id, 1);
        assert_eq!(rq.by_ssn(0), None, "consumed SSN no longer matches");
    }
}
