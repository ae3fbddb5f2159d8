//! Self-contained GF(2⁸) Reed–Solomon erasure codec.
//!
//! Systematic (k, m) code: k data shards pass through unchanged, m repair
//! shards are linear combinations over GF(2⁸) (polynomial 0x11d, the
//! AES/QR-code field). The generator is `[I_k; C]` with `C` an m×k Cauchy
//! matrix — every square submatrix of a Cauchy matrix is nonsingular, so
//! any k of the k+m shards reconstruct the data (MDS), for any k+m ≤ 256.
//!
//! The (k, 1) special case degenerates to plain XOR parity — encode is a
//! wordwise XOR fold and single-erasure recovery is another — which is the
//! fast path the transport uses for its smallest generations.
//!
//! The arithmetic tables are built by a `const fn` at compile time: no
//! lazy initialization, no allocation, no synchronization.

/// GF(2⁸) modulus: x⁸ + x⁴ + x³ + x² + 1.
const GF_POLY: u16 = 0x11d;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    // Duplicate the cycle so `exp[log a + log b]` never needs a mod 255.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const EXP: [u8; 512] = TABLES.0;
const LOG: [u8; 256] = TABLES.1;

/// Multiplication in GF(2⁸).
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse in GF(2⁸). Panics on 0.
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(2^8)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Reconstruction failure: fewer than k shards survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyErasures {
    pub present: usize,
    pub needed: usize,
}

impl std::fmt::Display for TooManyErasures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "only {} of the {} shards needed survived", self.present, self.needed)
    }
}

/// A systematic (k, m) Reed–Solomon codec over GF(2⁸).
#[derive(Debug, Clone)]
pub struct RsCodec {
    k: usize,
    m: usize,
    /// The m×k repair generator rows, row-major.
    parity: Vec<u8>,
}

impl RsCodec {
    /// Builds the codec for k data + m repair shards (k ≥ 1, m ≥ 1,
    /// k + m ≤ 256).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1 && m >= 1 && k + m <= 256, "RS({k}, {m}) outside GF(2^8) range");
        let mut parity = vec![1u8; m * k];
        if m > 1 {
            // Cauchy rows c[i][j] = 1/(x_i ⊕ y_j), x_i = k+i, y_j = j: the
            // x and y sets are disjoint, which is what makes [I; C] MDS.
            for (i, row) in parity.chunks_exact_mut(k).enumerate() {
                for (j, c) in row.iter_mut().enumerate() {
                    *c = gf_inv((k + i) as u8 ^ j as u8);
                }
            }
        }
        // For m == 1 the single all-ones row *is* the XOR parity code.
        RsCodec { k, m, parity }
    }

    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Encodes k equal-length data shards into m repair shards.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        let len = data[0].len();
        assert!(data.iter().all(|d| d.len() == len), "shards must be equal length");
        let mut out = vec![vec![0u8; len]; self.m];
        if self.m == 1 {
            // XOR fast path: parity = ⊕ data.
            let p = &mut out[0];
            for d in data {
                for (pb, &db) in p.iter_mut().zip(*d) {
                    *pb ^= db;
                }
            }
            return out;
        }
        for (row, coeffs) in out.iter_mut().zip(self.parity.chunks_exact(self.k)) {
            for (&c, d) in coeffs.iter().zip(data) {
                if c == 0 {
                    continue;
                }
                for (rb, &db) in row.iter_mut().zip(*d) {
                    *rb ^= gf_mul(c, db);
                }
            }
        }
        out
    }

    /// Reconstructs every missing shard in place. `shards` holds the k data
    /// shards followed by the m repair shards, `None` marking erasures; any
    /// k present shards restore all k + m exactly.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), TooManyErasures> {
        let (k, m) = (self.k, self.m);
        assert_eq!(shards.len(), k + m, "expected {} shard slots", k + m);
        let present: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_some()).collect();
        if present.len() < k {
            return Err(TooManyErasures { present: present.len(), needed: k });
        }
        if shards.iter().take(k).all(Option::is_some) {
            self.fill_parity(shards);
            return Ok(());
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if m == 1 {
            // XOR fast path: exactly one data shard is missing and the
            // parity survived; the erasure is the XOR of everything else.
            let gap = (0..k).find(|&i| shards[i].is_none()).unwrap();
            let mut out = vec![0u8; len];
            for s in shards.iter().flatten() {
                for (ob, &sb) in out.iter_mut().zip(s) {
                    *ob ^= sb;
                }
            }
            shards[gap] = Some(out);
            return Ok(());
        }
        // General path: invert the k×k generator submatrix of the first k
        // surviving shards, then each missing data shard is one row of the
        // inverse applied across those survivors.
        let rows = &present[..k];
        let mut a = vec![0u8; k * k];
        for (r, &idx) in rows.iter().enumerate() {
            if idx < k {
                a[r * k + idx] = 1;
            } else {
                let p = &self.parity[(idx - k) * k..(idx - k + 1) * k];
                a[r * k..(r + 1) * k].copy_from_slice(p);
            }
        }
        let inv = invert(&mut a, k).expect("any k rows of an MDS generator are invertible");
        let mut restored: Vec<(usize, Vec<u8>)> = Vec::new();
        for d in 0..k {
            if shards[d].is_some() {
                continue;
            }
            let mut out = vec![0u8; len];
            for (j, &src) in rows.iter().enumerate() {
                let c = inv[d * k + j];
                if c == 0 {
                    continue;
                }
                let s = shards[src].as_ref().unwrap();
                for (ob, &sb) in out.iter_mut().zip(s) {
                    *ob ^= gf_mul(c, sb);
                }
            }
            restored.push((d, out));
        }
        for (d, out) in restored {
            shards[d] = Some(out);
        }
        self.fill_parity(shards);
        Ok(())
    }

    /// Recomputes any missing repair shards once all data shards are present.
    fn fill_parity(&self, shards: &mut [Option<Vec<u8>>]) {
        if shards.iter().skip(self.k).all(Option::is_some) {
            return;
        }
        let data: Vec<&[u8]> =
            shards[..self.k].iter().map(|s| s.as_ref().unwrap().as_slice()).collect();
        let repair = self.encode(&data);
        for (slot, r) in shards[self.k..].iter_mut().zip(repair) {
            if slot.is_none() {
                *slot = Some(r);
            }
        }
    }
}

/// Gauss–Jordan inversion over GF(2⁸); `None` if singular (never for rows
/// of an MDS generator).
fn invert(a: &mut [u8], n: usize) -> Option<Vec<u8>> {
    let mut inv = vec![0u8; n * n];
    for i in 0..n {
        inv[i * n + i] = 1;
    }
    for col in 0..n {
        let piv = (col..n).find(|&r| a[r * n + col] != 0)?;
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
                inv.swap(col * n + j, piv * n + j);
            }
        }
        let pinv = gf_inv(a[col * n + col]);
        for j in 0..n {
            a[col * n + j] = gf_mul(a[col * n + j], pinv);
            inv[col * n + j] = gf_mul(inv[col * n + j], pinv);
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col];
            if f == 0 {
                continue;
            }
            for j in 0..n {
                let av = gf_mul(f, a[col * n + j]);
                a[r * n + j] ^= av;
                let iv = gf_mul(f, inv[col * n + j]);
                inv[r * n + j] ^= iv;
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_set(codec: &RsCodec, data: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let repair = codec.encode(&refs);
        data.iter().cloned().map(Some).chain(repair.into_iter().map(Some)).collect()
    }

    #[test]
    fn gf_field_axioms_hold() {
        // Spot-check the table construction against schoolbook facts.
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
        assert_eq!(gf_mul(2, 0x80), 0x1d, "x * x^7 reduces by the modulus");
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
        }
        // Commutativity + a distributivity probe.
        assert_eq!(gf_mul(0x53, 0xca), gf_mul(0xca, 0x53));
        assert_eq!(gf_mul(7, 0x12 ^ 0x34), gf_mul(7, 0x12) ^ gf_mul(7, 0x34));
    }

    #[test]
    fn xor_special_case_is_plain_parity() {
        let codec = RsCodec::new(4, 1);
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i * 17, i ^ 0x5a, 0, 255]).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = codec.encode(&refs);
        let want: Vec<u8> = (0..4).map(|b| data.iter().fold(0u8, |acc, d| acc ^ d[b])).collect();
        assert_eq!(parity, vec![want]);
        // Erase one data shard; XOR recovery restores it.
        let mut shards = shard_set(&codec, &data);
        shards[2] = None;
        codec.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[2].as_deref(), Some(data[2].as_slice()));
    }

    #[test]
    fn rs_recovers_any_m_erasures() {
        let (k, m) = (6, 3);
        let codec = RsCodec::new(k, m);
        let data: Vec<Vec<u8>> =
            (0..k as u8).map(|i| (0..64u8).map(|b| i.wrapping_mul(37) ^ b).collect()).collect();
        // Every way of erasing exactly m of the k+m shards.
        for a in 0..k + m {
            for b in a + 1..k + m {
                for c in b + 1..k + m {
                    let mut shards = shard_set(&codec, &data);
                    shards[a] = None;
                    shards[b] = None;
                    shards[c] = None;
                    codec.reconstruct(&mut shards).unwrap();
                    for (i, d) in data.iter().enumerate() {
                        assert_eq!(
                            shards[i].as_deref(),
                            Some(d.as_slice()),
                            "erased ({a},{b},{c}), shard {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reconstruct_restores_repair_shards_too() {
        let codec = RsCodec::new(3, 2);
        let data: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i, i + 1, i + 2]).collect();
        let full = shard_set(&codec, &data);
        let mut shards = full.clone();
        shards[1] = None; // one data
        shards[4] = None; // one repair
        codec.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, full);
    }

    #[test]
    fn more_than_m_erasures_is_an_error() {
        let codec = RsCodec::new(4, 2);
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut shards = shard_set(&codec, &data);
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        let err = codec.reconstruct(&mut shards).unwrap_err();
        assert_eq!(err, TooManyErasures { present: 3, needed: 4 });
    }

    #[test]
    fn wide_codec_at_field_limit() {
        // k + m = 256 exercises the full Cauchy construction (x = 250..255).
        let (k, m) = (250, 6);
        let codec = RsCodec::new(k, m);
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![(i * 13 % 251) as u8; 5]).collect();
        let mut shards = shard_set(&codec, &data);
        for gone in [0usize, 99, 249, 251, 253, 255] {
            shards[gone] = None;
        }
        codec.reconstruct(&mut shards).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_deref(), Some(d.as_slice()), "shard {i}");
        }
    }
}
