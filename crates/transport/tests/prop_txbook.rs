//! Property tests on sender-side bookkeeping: PSN ranges stay contiguous,
//! `locate` agrees with exhaustive search, and retirement is prefix-only.

use dcp_rdma::qp::WorkReqOp;
use dcp_transport::common::TxBook;
use proptest::prelude::*;

proptest! {
    #[test]
    fn locate_matches_linear_scan(lens in proptest::collection::vec(1u64..20_000, 1..20), probe in 0u32..200) {
        let mut b = TxBook::new();
        for (i, &l) in lens.iter().enumerate() {
            b.post(i as u64, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, l, 1024);
        }
        // Linear reference.
        let mut ranges = Vec::new();
        let mut psn = 0u32;
        for (i, &l) in lens.iter().enumerate() {
            let n = l.div_ceil(1024) as u32;
            ranges.push((i as u32, psn, n));
            psn += n;
        }
        let expect = ranges.iter().find(|&&(_, first, n)| probe >= first && probe < first + n);
        match (b.locate(probe), expect) {
            (Some((m, off)), Some(&(msn, first, _))) => {
                prop_assert_eq!(m.wqe.msn, msn);
                prop_assert_eq!(off, probe - first);
            }
            (None, None) => {}
            (got, want) => prop_assert!(false, "locate {probe}: {:?} vs {:?}", got.map(|(m, o)| (m.wqe.msn, o)), want),
        }
    }

    #[test]
    fn retirement_is_prefix_and_idempotent(
        lens in proptest::collection::vec(1u64..8_000, 1..15),
        cut in 0u32..60,
    ) {
        let mut b = TxBook::new();
        for (i, &l) in lens.iter().enumerate() {
            b.post(i as u64, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, l, 1024);
        }
        let before = b.outstanding();
        let mut done = Vec::new();
        b.retire_psn_below_into(cut, &mut done);
        // Retired messages are a prefix with strictly increasing MSNs.
        for (i, m) in done.iter().enumerate() {
            prop_assert_eq!(m.wqe.msn, i as u32);
            prop_assert!(m.first_psn + m.pkt_count <= cut);
        }
        prop_assert_eq!(done.len() + b.outstanding(), before);
        // Idempotent.
        let mut again = Vec::new();
        b.retire_psn_below_into(cut, &mut again);
        prop_assert!(again.is_empty());
        // The remaining front is not fully covered by `cut`.
        if let Some(m) = b.by_msn(done.len() as u32) {
            prop_assert!(m.first_psn + m.pkt_count > cut);
        }
    }

    #[test]
    fn msn_retirement_matches_count(lens in proptest::collection::vec(1u64..8_000, 1..15), upto in 0u32..20) {
        let mut b = TxBook::new();
        for (i, &l) in lens.iter().enumerate() {
            b.post(i as u64, WorkReqOp::Write { remote_addr: 0, rkey: 0 }, l, 1024);
        }
        let mut done = Vec::new();
        b.retire_below_into(upto, &mut done);
        prop_assert_eq!(done.len(), (upto as usize).min(lens.len()));
        prop_assert_eq!(b.una_msn(), if (upto as usize) < lens.len() { Some(upto) } else { None });
    }
}
