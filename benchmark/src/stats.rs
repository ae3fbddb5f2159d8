//! Order statistics and the run digest.

/// Median and quartiles of a sample, by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so a spread
/// computed here matches the one the acceptance check computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Quartiles { q1: v[0], median: v[0], q3: v[0], n };
        }
        let cut = |i: usize| {
            // Rank i*(n+1)/4, 1-based; the neighbour pair is clamped to the
            // sample but the weight is not, so tiny samples extrapolate
            // exactly as Python does.
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Quartiles { q1: cut(1), median: cut(2), q3: cut(3), n }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// FNV-1a, the digest `integration_determinism` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
    }
}
