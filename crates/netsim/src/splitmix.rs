//! SplitMix64 (Steele, Lea & Flood, OOPSLA '14): the one stream and the
//! one finalizer behind every private deterministic stream the simulator's
//! users derive — shard seeds ([`crate::shard`]), per-link loss streams
//! (`dcp_faults::link_stream_seed`), the wire adversary's per-link streams
//! (`dcp_check`) and EC's NACK jitter (`dcp_transport::ec`). A stream keyed
//! off a flow or link never consumes the simulator RNG, so one flow's
//! draws cannot shift another's.
//!
//! Two copies of the mix stay where they are: `vendor/rand`'s seeder stands
//! in for the registry `rand` crate, which depends on nothing here, and
//! `dcp_rdma::memory::PatternGen` lives in `dcp-rdma`, a crate below this
//! one in the dependency graph.

/// The stream's per-draw increment, 2⁶⁴/φ rounded to odd.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's finalizer: a bijective mix in which every input bit
/// flips about half the output bits.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: the state advances by [`GAMMA`] per draw, and each
/// draw is the [`mix64`] of the new state.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // The first outputs of the reference C implementation seeded with 0.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s.next_u64(), 0x06c4_5d18_8009_454f);
    }
}
