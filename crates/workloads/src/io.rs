//! Result export: per-flow records as CSV,
//! `src,dst,bytes,start_ns,incast,fct_ns,retx,timeouts,duplicates`.

use crate::runner::FlowRecord;

/// Serializes per-flow results as CSV (header included).
pub fn to_csv(records: &[FlowRecord]) -> String {
    let mut s = String::from("src,dst,bytes,start_ns,incast,fct_ns,retx,timeouts,duplicates\n");
    for r in records {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.spec.src,
            r.spec.dst,
            r.spec.bytes,
            r.spec.start,
            r.spec.incast as u8,
            r.fct.map(|f| f.to_string()).unwrap_or_default(),
            r.tx.retx_pkts,
            r.tx.timeouts,
            r.rx.duplicates,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{FlowSpec, TenantId};
    use dcp_netsim::stats::TransportStats;

    #[test]
    fn results_csv_has_header_and_blank_fct_for_unfinished() {
        let rec = FlowRecord {
            spec: FlowSpec {
                src: 0,
                dst: 1,
                bytes: 9,
                start: 7,
                incast: false,
                tenant: TenantId(0),
            },
            fct: None,
            tx: TransportStats { retx_pkts: 3, timeouts: 1, ..Default::default() },
            rx: TransportStats { duplicates: 2, ..Default::default() },
        };
        let csv = to_csv(&[rec]);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("src,dst"));
        assert_eq!(lines.next().unwrap(), "0,1,9,7,0,,3,1,2");
    }
}
