//! Counters collected by the fabric and by transports, plus the
//! flow-conservation checker that cross-validates them.
//!
//! Counter structs are generated by the `counters!` macro so the merge
//! function, the field-name table and the `(name, value)` iterator can never
//! drift from the struct definition — adding a counter is one line, and a
//! size regression test pins `size_of == 8 × FIELDS.len()` so a field that
//! bypasses the macro is caught at test time.

use crate::packet::Packet;
use dcp_rdma::headers::DcpTag;
use serde::{Deserialize, Serialize};

/// Declares a counter struct of `u64` fields with a derived `merge`, a
/// `FIELDS` name table and a `fields()` iterator over `(name, value)`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Field names, in declaration order (mirrors [`Self::fields`]).
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Adds every counter of `o` into `self`.
            pub fn merge(&mut self, o: &$name) {
                $( self.$field += o.$field; )+
            }

            /// `(name, value)` pairs in declaration order — structured
            /// export renders these without hand-listing fields.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$( (stringify!($field), self.$field) ),+].into_iter()
            }
        }
    };
}

counters! {
    /// Fabric-side counters, aggregated across all switches.
    #[derive(Debug, Default, Clone, Serialize, Deserialize)]
    pub struct NetStats {
        /// Data packets trimmed to header-only by the DCP trimming module.
        pub trims: u64,
        /// Data packets dropped (threshold exceeded without trimming, or the
        /// forced-loss injector fired on a non-DCP packet).
        pub data_drops: u64,
        /// Header-only packets dropped — violations of the lossless control
        /// plane (Table 5 measures this).
        pub ho_drops: u64,
        /// ACK/CNP-class packets dropped at an over-threshold data queue.
        pub ack_drops: u64,
        /// Data packets killed by *injected* faults — wire corruption past
        /// recovery, downed links, failed switches draining their queues.
        /// Booked separately from congestion `data_drops` so fault
        /// experiments can tell the two apart; faulted header-only packets
        /// stay in `ho_drops` (the Table 5 quantity) and faulted ACKs in
        /// `ack_drops`.
        pub fault_drops: u64,
        /// Packets dropped because the shared buffer was exhausted.
        pub buffer_drops: u64,
        /// The data-packet subset of `buffer_drops` (conservation math
        /// needs drops split by class; HO buffer drops are in `ho_drops`).
        pub buffer_drops_data: u64,
        /// Header-only packets that traversed the fabric.
        pub ho_forwarded: u64,
        /// ECN CE marks applied.
        pub ecn_marks: u64,
        /// PFC PAUSE frames emitted.
        pub pauses_sent: u64,
        /// PFC RESUME frames emitted.
        pub resumes_sent: u64,
        /// Total data packets forwarded by switches.
        pub data_forwarded: u64,
        /// Extra data-packet copies materialized by a `Duplicate` fault
        /// verdict. Injected copies enter the fabric without a sender
        /// transmission, so conservation adds them to the sent side.
        pub dup_data_injected: u64,
        /// Extra header-only copies materialized by a `Duplicate` fault
        /// verdict (counted into the HO identity's supply side).
        pub dup_ho_injected: u64,
    }
}

impl NetStats {
    /// Books a packet killed by an injected fault by what it is: a
    /// header-only packet in `ho_drops` (the Table 5 quantity), a
    /// payload-bearing one in `fault_drops`, an ACK-class one in
    /// `ack_drops`.
    pub(crate) fn count_fault_drop(&mut self, pkt: &Packet) {
        if pkt.dcp_tag() == DcpTag::HeaderOnly {
            self.ho_drops += 1;
        } else if pkt.is_data() {
            self.fault_drops += 1;
        } else {
            self.ack_drops += 1;
        }
    }
}

counters! {
    /// Transport-side counters every endpoint exposes, used by the
    /// experiment harness (retransmission ratios in Fig. 1, timeout counts
    /// in Fig. 2, …).
    #[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
    pub struct TransportStats {
        /// First-transmission data packets sent.
        pub data_pkts: u64,
        /// Retransmitted data packets sent.
        pub retx_pkts: u64,
        /// Retransmission timeouts fired.
        pub timeouts: u64,
        /// Header-only loss notifications received (DCP sender).
        pub ho_received: u64,
        /// Duplicate data packets observed (receiver side) — every duplicate
        /// is a spurious retransmission that reached the receiver.
        pub duplicates: u64,
        /// Data packets received (including duplicates).
        pub pkts_received: u64,
        /// Data packets the receiver refused and expelled from accounting
        /// (MP-RDMA's out-of-order-window rejection) — the receiver drops
        /// these as if the fabric had, so conservation must count them.
        pub ooo_rejected: u64,
        /// Bytes of application payload delivered (first copies only).
        pub goodput_bytes: u64,
        /// CNPs received (DCQCN senders).
        pub cnps: u64,
    }
}

impl TransportStats {
    /// Ratio of retransmitted packets to first-transmission packets —
    /// the y-axis of Fig. 1a.
    pub fn retx_ratio(&self) -> f64 {
        if self.data_pkts == 0 {
            0.0
        } else {
            self.retx_pkts as f64 / self.data_pkts as f64
        }
    }
}

/// End-of-run flow-conservation report: every data packet a sender emitted
/// must be received, rejected, dropped or trimmed somewhere; every trim must
/// surface as a sender HO notification or an HO drop.
///
/// With `ep` the merge of *all* endpoint stats (both directions):
///
/// ```text
/// data:  data_pkts + retx_pkts + dup_data_injected
///          = pkts_received + ooo_rejected
///          + trims + data_drops + fault_drops + buffer_drops_data
///          (+ in-flight)
/// HO:    trims + dup_ho_injected = ho_received + ho_drops   (+ in-flight)
/// ```
///
/// Fault-injected duplicates count on the supply side: the adversary's
/// extra copy enters the fabric without a sender transmission, so the
/// `dup_*_injected` counters keep a duplicated run strictly balanced.
///
/// The receiver-bounce path cancels out of the HO identity (each bounce
/// consumes one fabric HO and emits one), so it holds both for the paper's
/// deployed design and for `ho_direct_return`.
#[derive(Debug, Clone)]
pub struct Conservation {
    /// Data packets sent but not yet accounted for (negative = violation).
    pub data_in_flight: i64,
    /// Trims not yet surfaced to a sender or dropped (negative = violation).
    pub ho_in_flight: i64,
    /// Human-readable violations; empty means the invariants hold.
    pub violations: Vec<String>,
}

impl Conservation {
    /// Checks the conservation identities. With `quiesced` the fabric is
    /// drained so both in-flight terms must be exactly zero; otherwise they
    /// must merely be non-negative (packets may still be in flight, but the
    /// fabric can never account for *more* packets than were sent).
    pub fn check(net: &NetStats, ep: &TransportStats, quiesced: bool) -> Conservation {
        let sent = ep.data_pkts + ep.retx_pkts + net.dup_data_injected;
        let accounted = ep.pkts_received
            + ep.ooo_rejected
            + net.trims
            + net.data_drops
            + net.fault_drops
            + net.buffer_drops_data;
        let data_in_flight = sent as i64 - accounted as i64;

        let ho_accounted = ep.ho_received + net.ho_drops;
        let ho_in_flight = (net.trims + net.dup_ho_injected) as i64 - ho_accounted as i64;

        let mut violations = Vec::new();
        let bad = |x: i64| if quiesced { x != 0 } else { x < 0 };
        if bad(data_in_flight) {
            violations.push(format!(
                "data conservation: sent {sent} != accounted {accounted} \
                 (rx {} + ooo_rej {} + trims {} + drops {} + faults {} + buf {}), \
                 in-flight {data_in_flight}",
                ep.pkts_received,
                ep.ooo_rejected,
                net.trims,
                net.data_drops,
                net.fault_drops,
                net.buffer_drops_data,
            ));
        }
        if bad(ho_in_flight) {
            violations.push(format!(
                "HO conservation: trims {} + dup_ho {} != ho_received {} + ho_drops {}, \
                 in-flight {ho_in_flight}",
                net.trims, net.dup_ho_injected, ep.ho_received, net.ho_drops,
            ));
        }
        Conservation { data_in_flight, ho_in_flight, violations }
    }

    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = NetStats { trims: 1, ho_drops: 2, ..Default::default() };
        let b = NetStats { trims: 10, data_drops: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.trims, 11);
        assert_eq!(a.data_drops, 5);
        assert_eq!(a.ho_drops, 2);
    }

    #[test]
    fn retx_ratio_handles_zero() {
        let s = TransportStats::default();
        assert_eq!(s.retx_ratio(), 0.0);
        let s = TransportStats { data_pkts: 100, retx_pkts: 25, ..Default::default() };
        assert!((s.retx_ratio() - 0.25).abs() < 1e-12);
    }

    /// Every field must flow through the `counters!` macro: a field added by
    /// hand would change the size without changing `FIELDS`, and a field
    /// of any type but `u64` would break the 8-byte stride.
    #[test]
    fn field_table_matches_struct_layout() {
        assert_eq!(std::mem::size_of::<NetStats>(), NetStats::FIELDS.len() * 8);
        assert_eq!(std::mem::size_of::<TransportStats>(), TransportStats::FIELDS.len() * 8);
    }

    #[test]
    fn fields_iterator_matches_values_and_names() {
        let n = NetStats { trims: 7, data_forwarded: 9, ..Default::default() };
        let got: Vec<(&str, u64)> = n.fields().collect();
        assert_eq!(got.len(), NetStats::FIELDS.len());
        for (i, (name, _)) in got.iter().enumerate() {
            assert_eq!(*name, NetStats::FIELDS[i]);
        }
        assert!(got.contains(&("trims", 7)));
        assert!(got.contains(&("data_forwarded", 9)));
        assert!(got.contains(&("ack_drops", 0)));

        let t = TransportStats { retx_pkts: 3, ..Default::default() };
        let got: Vec<(&str, u64)> = t.fields().collect();
        assert_eq!(got.len(), TransportStats::FIELDS.len());
        assert!(got.contains(&("retx_pkts", 3)));
    }

    #[test]
    fn merge_covers_every_field() {
        // Merging a struct whose fields are all 1 must bump every counter.
        let mut a = NetStats::default();
        let one = NetStats {
            trims: 1,
            data_drops: 1,
            ho_drops: 1,
            ack_drops: 1,
            fault_drops: 1,
            buffer_drops: 1,
            buffer_drops_data: 1,
            ho_forwarded: 1,
            ecn_marks: 1,
            pauses_sent: 1,
            resumes_sent: 1,
            data_forwarded: 1,
            dup_data_injected: 1,
            dup_ho_injected: 1,
        };
        a.merge(&one);
        a.merge(&one);
        assert!(a.fields().all(|(_, v)| v == 2));
    }

    #[test]
    fn conservation_balanced_run_is_ok() {
        let net = NetStats { trims: 10, ho_drops: 2, data_drops: 3, ..Default::default() };
        let ep = TransportStats {
            data_pkts: 100,
            retx_pkts: 13,
            pkts_received: 100,
            ho_received: 8,
            ..Default::default()
        };
        let c = Conservation::check(&net, &ep, true);
        assert!(c.is_ok(), "{:?}", c.violations);
        assert_eq!(c.data_in_flight, 0);
        assert_eq!(c.ho_in_flight, 0);
    }

    #[test]
    fn conservation_flags_leaks_and_overcounts() {
        // One data packet vanished without a drop/trim accounting for it.
        let net = NetStats::default();
        let ep = TransportStats { data_pkts: 5, pkts_received: 4, ..Default::default() };
        let c = Conservation::check(&net, &ep, true);
        assert!(!c.is_ok());
        assert_eq!(c.data_in_flight, 1);
        // Lenient mode tolerates in-flight packets…
        assert!(Conservation::check(&net, &ep, false).is_ok());
        // …but never negative accounting.
        let ep = TransportStats { data_pkts: 5, pkts_received: 7, ..Default::default() };
        assert!(!Conservation::check(&net, &ep, false).is_ok());
    }

    /// Injected fault drops balance the data identity on their own counter,
    /// so a faulted run stays strict without polluting congestion
    /// `data_drops`.
    #[test]
    fn conservation_books_fault_drops_distinctly() {
        let net = NetStats { fault_drops: 3, data_drops: 1, ..Default::default() };
        let ep =
            TransportStats { data_pkts: 10, retx_pkts: 4, pkts_received: 10, ..Default::default() };
        let c = Conservation::check(&net, &ep, true);
        assert!(c.is_ok(), "{:?}", c.violations);
        // Misbooking the same drops as congestion data_drops alone must
        // leave the identity violated when the fault counter is expected.
        let net = NetStats { data_drops: 1, ..Default::default() };
        assert!(!Conservation::check(&net, &ep, true).is_ok());
    }

    /// An adversary-injected duplicate has no sender transmission behind
    /// it; the `dup_*_injected` counters keep the identities strict.
    #[test]
    fn conservation_counts_injected_duplicates() {
        let net = NetStats { dup_data_injected: 2, ..Default::default() };
        let ep = TransportStats { data_pkts: 10, pkts_received: 12, ..Default::default() };
        assert!(Conservation::check(&net, &ep, true).is_ok());
        // Without the counter the same run reads as an overcount.
        assert!(!Conservation::check(&NetStats::default(), &ep, true).is_ok());
        // A duplicated-then-trimmed HO copy balances the HO identity.
        let net = NetStats { trims: 3, dup_ho_injected: 1, ..Default::default() };
        let ep =
            TransportStats { data_pkts: 3, pkts_received: 0, ho_received: 4, ..Default::default() };
        assert!(Conservation::check(&net, &ep, true).is_ok());
    }

    #[test]
    fn conservation_ho_identity() {
        let net = NetStats { trims: 4, ho_drops: 1, ..Default::default() };
        let ep =
            TransportStats { data_pkts: 4, pkts_received: 0, ho_received: 3, ..Default::default() };
        // 4 sent = 0 received + 4 trims; 4 trims = 3 notified + 1 dropped.
        let c = Conservation::check(&net, &ep, true);
        assert!(c.is_ok(), "{:?}", c.violations);
    }
}
