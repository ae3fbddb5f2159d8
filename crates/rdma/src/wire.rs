//! Byte-exact wire encoding of the DCP header stack.
//!
//! The simulator itself moves parsed [`PacketHeader`] structs for speed, but
//! this module keeps the design honest: every header can be rendered to the
//! exact bytes a P4 parser would see, and the round-trip is checked by unit
//! and property tests. It is also what pins the 57-byte trimmed header size.
//!
//! Field widths follow the IBTA/RoCEv2 layouts: QPN, PSN and MSN are 24-bit
//! fields; the DCP extensions are packed exactly as Fig. 4 lays them out
//! (DCP tag in the IPv4 ToS bits and sRetryNo in the low byte of the IPv4
//! identification field, so both survive trimming; MSN after the BTH; SSN
//! after the MSN on full two-sided data packets; RETH after those for
//! one-sided operations; AETH after the BTH for ACKs).

use crate::headers::*;
use bytes::{Bytes, BytesMut};

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the fixed-size header completed.
    Truncated(&'static str),
    /// A field held a value this reproduction does not model.
    Unsupported(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated {what}"),
            WireError::Unsupported(what) => write!(f, "unsupported {what}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u24(buf: &mut BytesMut, v: u32) {
    buf.put_u8((v >> 16) as u8);
    buf.put_u8((v >> 8) as u8);
    buf.put_u8(v as u8);
}

fn get_u24(buf: &mut Bytes) -> u32 {
    let a = buf.get_u8() as u32;
    let b = buf.get_u8() as u32;
    let c = buf.get_u8() as u32;
    (a << 16) | (b << 8) | c
}

/// Encodes a header stack to wire bytes. PSN/QPN/MSN/SSN are masked to their
/// 24-bit wire width; callers who exceed 2^24 in-flight sequence numbers are
/// responsible for their own wrap handling (no experiment in the paper does).
pub fn encode(h: &PacketHeader) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    // Ethernet
    buf.put_slice(&h.eth.dst.0);
    buf.put_slice(&h.eth.src.0);
    buf.put_u16(h.eth.ethertype);
    // IPv4 (20 bytes, no options)
    buf.put_u8(0x45);
    buf.put_u8(h.ip.tos);
    buf.put_u16(h.ip.total_len);
    buf.put_u16(h.ip.identification);
    buf.put_u16(0); // flags + fragment offset
    buf.put_u8(h.ip.ttl);
    buf.put_u8(h.ip.protocol);
    buf.put_u16(0); // checksum: computed by hardware, zero in the model
    buf.put_u32(h.ip.src);
    buf.put_u32(h.ip.dst);
    // UDP
    buf.put_u16(h.udp.src_port);
    buf.put_u16(h.udp.dst_port);
    buf.put_u16(h.udp.len);
    buf.put_u16(0); // checksum
                    // BTH (12 bytes)
    buf.put_u8(h.bth.opcode.wire_code());
    buf.put_u8(if h.bth.ack_req { 0x80 } else { 0x00 }); // SE/M/pad/TVer
    buf.put_u16(0xffff); // P_Key
    buf.put_u8(0); // reserved
    put_u24(&mut buf, h.bth.dest_qpn & 0x00ff_ffff);
    buf.put_u8(0); // A/reserved
    put_u24(&mut buf, h.bth.psn & 0x00ff_ffff);
    let tag = h.ip.dcp_tag();
    if h.bth.opcode == RdmaOpcode::Acknowledge {
        // ACK packets carry only the AETH after the BTH; the eMSN rides in
        // the AETH's 24-bit MSN field (Fig. 4b).
        if let Some(a) = &h.aeth {
            buf.put_u8(a.syndrome);
            put_u24(&mut buf, a.emsn & 0x00ff_ffff);
        }
        return buf.freeze();
    }
    // DCP MSN extension (3 bytes) — part of the 57-byte trimmed header.
    if let Some(d) = &h.dcp {
        put_u24(&mut buf, d.msn & 0x00ff_ffff);
        if tag != DcpTag::HeaderOnly {
            if let Some(ssn) = d.ssn {
                put_u24(&mut buf, ssn & 0x00ff_ffff);
            }
        }
    }
    if tag != DcpTag::HeaderOnly {
        if let Some(r) = &h.reth {
            buf.put_u64(r.vaddr);
            buf.put_u32(r.rkey);
            buf.put_u32(r.dma_len);
        }
        if let Some(a) = &h.aeth {
            buf.put_u8(a.syndrome);
            put_u24(&mut buf, a.emsn & 0x00ff_ffff);
        }
    }
    buf.freeze()
}

/// Decodes a header stack from wire bytes.
///
/// The layout after the BTH is not self-describing on the real wire (it is
/// implied by opcode + DCP tag), and the decoder applies the same rules:
/// ACK opcodes parse an AETH; data opcodes parse MSN, SSN (Send family and
/// immediate-carrying Writes) and RETH (Write family); header-only tags stop
/// at the MSN. sRetryNo has no field of its own: it comes back inside the
/// IPv4 identification field (see [`Ipv4Header::sretry_no`]).
pub fn decode(bytes: &Bytes) -> Result<PacketHeader, WireError> {
    let mut buf = bytes.clone();
    if buf.remaining()
        < EthHeader::WIRE_BYTES + Ipv4Header::WIRE_BYTES + UdpHeader::WIRE_BYTES + Bth::WIRE_BYTES
    {
        return Err(WireError::Truncated("fixed header stack"));
    }
    let mut dst = [0u8; 6];
    let mut src = [0u8; 6];
    buf.copy_to_slice(&mut dst);
    buf.copy_to_slice(&mut src);
    let ethertype = buf.get_u16();
    if ethertype != ETHERTYPE_IPV4 {
        return Err(WireError::Unsupported("ethertype"));
    }
    let vihl = buf.get_u8();
    if vihl != 0x45 {
        return Err(WireError::Unsupported("ip version/ihl"));
    }
    let tos = buf.get_u8();
    let total_len = buf.get_u16();
    let identification = buf.get_u16();
    let _flags = buf.get_u16();
    let ttl = buf.get_u8();
    let protocol = buf.get_u8();
    let _ipsum = buf.get_u16();
    let ip_src = buf.get_u32();
    let ip_dst = buf.get_u32();
    if protocol != IPPROTO_UDP {
        return Err(WireError::Unsupported("ip protocol"));
    }
    let src_port = buf.get_u16();
    let dst_port = buf.get_u16();
    let udp_len = buf.get_u16();
    let _udpsum = buf.get_u16();
    let opcode = RdmaOpcode::from_wire(buf.get_u8()).ok_or(WireError::Unsupported("bth opcode"))?;
    let flags = buf.get_u8();
    let _pkey = buf.get_u16();
    let _rsvd = buf.get_u8();
    let dest_qpn = get_u24(&mut buf);
    let _a = buf.get_u8();
    let psn = get_u24(&mut buf);

    let ip = Ipv4Header { src: ip_src, dst: ip_dst, tos, total_len, ttl, protocol, identification };
    let tag = ip.dcp_tag();
    let mut header = PacketHeader {
        eth: EthHeader { dst: MacAddr(dst), src: MacAddr(src), ethertype },
        ip,
        udp: UdpHeader { src_port, dst_port, len: udp_len },
        bth: Bth { opcode, dest_qpn, psn, ack_req: flags & 0x80 != 0 },
        dcp: None,
        reth: None,
        aeth: None,
    };

    if opcode == RdmaOpcode::Acknowledge {
        if buf.remaining() < Aeth::WIRE_BYTES {
            return Err(WireError::Truncated("aeth"));
        }
        let syndrome = buf.get_u8();
        let emsn = get_u24(&mut buf);
        header.aeth = Some(Aeth { syndrome, emsn });
        return Ok(header);
    }

    // Data-family packets all carry the 3-byte MSN.
    if buf.remaining() < 3 {
        return Err(WireError::Truncated("msn"));
    }
    let msn = get_u24(&mut buf);
    if tag == DcpTag::HeaderOnly {
        header.dcp = Some(DcpDataExt { msn, ssn: None });
        return Ok(header);
    }
    let needs_ssn = opcode.is_send() || opcode.has_immediate();
    let ssn = if needs_ssn {
        if buf.remaining() < 3 {
            return Err(WireError::Truncated("ssn"));
        }
        Some(get_u24(&mut buf))
    } else {
        None
    };
    header.dcp = Some(DcpDataExt { msn, ssn });
    if opcode.is_write() {
        if buf.remaining() < Reth::WIRE_BYTES {
            return Err(WireError::Truncated("reth"));
        }
        let vaddr = buf.get_u64();
        let rkey = buf.get_u32();
        let dma_len = buf.get_u32();
        header.reth = Some(Reth { vaddr, rkey, dma_len });
    }
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(op: RdmaOpcode, tag: DcpTag) -> PacketHeader {
        PacketHeader {
            eth: EthHeader::new(MacAddr::from_host(3), MacAddr::from_host(4)),
            ip: Ipv4Header::new(0x0a00_0003, 0x0a00_0004, tag, 1081),
            udp: UdpHeader::roce(0xd3a1, 1061),
            bth: Bth { opcode: op, dest_qpn: 0x1234, psn: 0x00ab_cdef, ack_req: true },
            dcp: Some(DcpDataExt { msn: 77, ssn: None }),
            reth: None,
            aeth: None,
        }
    }

    #[test]
    fn encode_len_matches_wire_header_bytes() {
        let mut h = base(RdmaOpcode::WriteMiddle, DcpTag::Data);
        h.reth = Some(Reth { vaddr: 0xdead_beef_0000, rkey: 5, dma_len: 1024 });
        assert_eq!(encode(&h).len(), h.wire_header_bytes());
    }

    #[test]
    fn ho_packet_encodes_to_exactly_57_bytes() {
        let mut h = base(RdmaOpcode::WriteMiddle, DcpTag::Data);
        h.reth = Some(Reth { vaddr: 0x1000, rkey: 5, dma_len: 1024 });
        let ho = h.trim_to_header_only();
        assert_eq!(encode(&ho).len(), crate::HO_PACKET_BYTES);
    }

    #[test]
    fn roundtrip_write_packet() {
        let mut h = base(RdmaOpcode::WriteFirst, DcpTag::Data);
        h.reth = Some(Reth { vaddr: 0xfeed_f00d, rkey: 42, dma_len: 512 });
        let decoded = decode(&encode(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_send_packet_with_ssn() {
        let mut h = base(RdmaOpcode::SendLast, DcpTag::Data);
        h.dcp = Some(DcpDataExt { msn: 9, ssn: Some(4) });
        let decoded = decode(&encode(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_write_with_imm_carries_ssn_and_reth() {
        let mut h = base(RdmaOpcode::WriteLastImm, DcpTag::Data);
        h.dcp = Some(DcpDataExt { msn: 6, ssn: Some(3) });
        h.reth = Some(Reth { vaddr: 0xa000, rkey: 7, dma_len: 100 });
        let decoded = decode(&encode(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_ack_packet() {
        let mut h = base(RdmaOpcode::Acknowledge, DcpTag::Ack);
        h.dcp = None; // ACKs carry eMSN in the AETH, not the data-packet MSN ext
        h.aeth = Some(Aeth { syndrome: 0, emsn: 1234 });
        let decoded = decode(&encode(&h)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_header_only() {
        let mut h = base(RdmaOpcode::WriteMiddle, DcpTag::Data);
        h.reth = Some(Reth { vaddr: 0x1000, rkey: 5, dma_len: 1024 });
        let ho = h.trim_to_header_only();
        let decoded = decode(&encode(&ho)).unwrap();
        assert_eq!(decoded, ho);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let h = base(RdmaOpcode::SendOnly, DcpTag::Data);
        let mut ok = base(RdmaOpcode::SendOnly, DcpTag::Data);
        ok.dcp = Some(DcpDataExt { msn: 0, ssn: Some(0) });
        let bytes = encode(&ok);
        for cut in [10, 30, 53, bytes.len() - 1] {
            let slice = bytes.slice(0..cut);
            assert!(decode(&slice).is_err(), "cut at {cut} should fail");
        }
        let _ = h;
    }

    #[test]
    fn psn_masked_to_24_bits() {
        let mut h = base(RdmaOpcode::SendOnly, DcpTag::Data);
        h.bth.psn = 0x0100_0001; // exceeds 24 bits
        h.dcp = Some(DcpDataExt { msn: 0, ssn: Some(0) });
        let decoded = decode(&encode(&h)).unwrap();
        assert_eq!(decoded.bth.psn, 0x0000_0001);
    }
}
