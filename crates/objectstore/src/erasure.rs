//! Systematic Reed–Solomon erasure coding over GF(2^8).
//!
//! MinIO protects objects by splitting them into `k` data shards and `m`
//! parity shards; any `k` of the `k + m` shards reconstruct the object.
//! We build the standard systematic code: start from an
//! `(k + m) × k` Vandermonde matrix, normalise its top `k × k` block to the
//! identity (so data shards are verbatim slices of the object), and use the
//! remaining `m` rows to produce parity. Decoding inverts the `k × k`
//! submatrix formed by any `k` surviving rows.
//!
//! ## Data-plane fast paths
//!
//! The parity rows' split-nibble [`MulTable`]s are built once at coder
//! construction and cached, so the per-byte encode work is two 16-entry
//! lookups and two XORs with no table rebuilds and no per-byte branches.
//! [`ErasureCoder::encode_into`] / [`ErasureCoder::decode_into`] take
//! caller-owned buffers and perform **zero allocations** once those
//! buffers have warmed up — the shape MinIO's object write path needs when
//! a registry sustains thousands of layer writes per second.

use crate::gf256::{self, MulTable};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Errors from encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// Fewer than `k` shards survive: the object is unrecoverable.
    TooFewShards { have: usize, need: usize },
    /// Shard lengths disagree.
    ShardLengthMismatch,
    /// Invalid code parameters.
    BadParameters(String),
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::TooFewShards { have, need } => {
                write!(f, "only {have} shards survive, need {need}")
            }
            ErasureError::ShardLengthMismatch => write!(f, "shard lengths differ"),
            ErasureError::BadParameters(s) => write!(f, "bad erasure parameters: {s}"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// A `k + m` systematic Reed–Solomon coder.
#[derive(Debug, Clone)]
pub struct ErasureCoder {
    data_shards: usize,
    parity_shards: usize,
    /// Full `(k+m) × k` systematic encoding matrix, row-major.
    matrix: Vec<Vec<u8>>,
    /// Split-nibble tables for the `m` parity rows (`matrix[k..]`), built
    /// once so steady-state encodes never rebuild them. Derived state —
    /// excluded from serialization and equality.
    parity_tables: Vec<Vec<MulTable>>,
}

fn parity_tables_of(matrix: &[Vec<u8>], data_shards: usize) -> Vec<Vec<MulTable>> {
    matrix[data_shards..]
        .iter()
        .map(|row| row.iter().map(|&c| MulTable::new(c)).collect())
        .collect()
}

impl ErasureCoder {
    /// Create a coder with `k` data and `m` parity shards
    /// (`2 ≤ k + m ≤ 256`, both ≥ 1 except `m = 0` which is allowed for
    /// "no redundancy" sets).
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self, ErasureError> {
        if data_shards == 0 {
            return Err(ErasureError::BadParameters("need at least one data shard".into()));
        }
        let n = data_shards + parity_shards;
        if n > 256 {
            return Err(ErasureError::BadParameters(format!(
                "k + m = {n} exceeds GF(256) limit of 256"
            )));
        }
        // Vandermonde rows: row_i = [i^0, i^1, ..., i^(k-1)] for distinct
        // evaluation points i = 0..n. Any k rows are linearly independent.
        let vander: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..data_shards).map(|j| gf256::pow(i as u8, j as u32)).collect())
            .collect();
        // Normalise: multiply by the inverse of the top k×k block so the
        // top becomes the identity (systematic form).
        let top: Vec<Vec<u8>> = vander[..data_shards].to_vec();
        let top_inv = invert(top).ok_or_else(|| {
            ErasureError::BadParameters("vandermonde top block not invertible".into())
        })?;
        let matrix: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..data_shards)
                    .map(|j| {
                        let mut acc = 0u8;
                        for (l, inv_row) in top_inv.iter().enumerate() {
                            acc = gf256::add(acc, gf256::mul(vander[i][l], inv_row[j]));
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        let parity_tables = parity_tables_of(&matrix, data_shards);
        Ok(ErasureCoder { data_shards, parity_shards, matrix, parity_tables })
    }

    /// MinIO's common default: 4 data + 2 parity.
    pub fn minio_default() -> Self {
        ErasureCoder::new(4, 2).expect("4+2 is a valid RS code")
    }

    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// Shard size for an object of `len` bytes (ceil division).
    pub fn shard_len(&self, len: usize) -> usize {
        len.div_ceil(self.data_shards)
    }

    /// Storage overhead factor `(k + m) / k` — the read/write amplification
    /// the regional registry pays for durability.
    pub fn overhead(&self) -> f64 {
        self.total_shards() as f64 / self.data_shards as f64
    }

    /// Split `data` into `k` padded data shards and compute `m` parity
    /// shards. Returns `k + m` shards of equal length.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let mut shards = Vec::with_capacity(self.total_shards());
        self.encode_into(data, &mut shards);
        shards
    }

    /// [`ErasureCoder::encode`] into caller-owned shard buffers. The
    /// buffers are resized/reused, so a steady-state caller (same object
    /// size every call) pays **zero allocations** per encode.
    pub fn encode_into(&self, data: &[u8], shards: &mut Vec<Vec<u8>>) {
        let shard_len = self.shard_len(data.len().max(1));
        shards.resize_with(self.total_shards(), Vec::new);
        // Data shards: verbatim systematic slices, zero-padded.
        for (i, shard) in shards[..self.data_shards].iter_mut().enumerate() {
            let start = (i * shard_len).min(data.len());
            let end = (start + shard_len).min(data.len());
            shard.clear();
            shard.extend_from_slice(&data[start..end]);
            shard.resize(shard_len, 0);
        }
        // Parity shards from the bottom m rows, via the cached tables.
        let (data_shards, parity_shards) = shards.split_at_mut(self.data_shards);
        for (parity, row_tables) in parity_shards.iter_mut().zip(&self.parity_tables) {
            parity.clear();
            parity.resize(shard_len, 0);
            for (shard, table) in data_shards.iter().zip(row_tables) {
                gf256::mul_acc_table(parity, shard, table);
            }
        }
    }

    /// Reconstruct the original `len`-byte object from surviving shards
    /// (`None` marks a lost shard). Any `k` survivors suffice.
    pub fn decode(&self, shards: &[Option<Vec<u8>>], len: usize) -> Result<Vec<u8>, ErasureError> {
        let mut out = Vec::new();
        self.decode_into(shards, len, &mut out)?;
        Ok(out)
    }

    /// [`ErasureCoder::decode`] into a caller-owned output buffer.
    pub fn decode_into(
        &self,
        shards: &[Option<Vec<u8>>],
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ErasureError> {
        let refs: Vec<Option<&[u8]>> = shards.iter().map(|s| s.as_deref()).collect();
        self.decode_refs(&refs, len, out)
    }

    /// Core decode over borrowed shards — lets callers that already hold
    /// shard storage (drive sets) decode without cloning every
    /// surviving shard first.
    pub fn decode_refs(
        &self,
        shards: &[Option<&[u8]>],
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ErasureError> {
        if shards.len() != self.total_shards() {
            return Err(ErasureError::BadParameters(format!(
                "expected {} shard slots, got {}",
                self.total_shards(),
                shards.len()
            )));
        }
        let shard_len = self.shard_len(len.max(1));
        for s in shards.iter().flatten() {
            if s.len() != shard_len {
                return Err(ErasureError::ShardLengthMismatch);
            }
        }
        out.clear();
        // Fast path: all data shards intact — a straight widening copy.
        if shards[..self.data_shards].iter().all(Option::is_some) {
            out.reserve(shard_len * self.data_shards);
            for s in shards[..self.data_shards].iter() {
                out.extend_from_slice(s.expect("checked is_some"));
            }
            out.truncate(len);
            return Ok(());
        }
        let survivors: Vec<usize> =
            shards.iter().enumerate().filter_map(|(i, s)| s.map(|_| i)).collect();
        if survivors.len() < self.data_shards {
            return Err(ErasureError::TooFewShards {
                have: survivors.len(),
                need: self.data_shards,
            });
        }
        // General path: invert the submatrix of the first k surviving rows.
        let rows: Vec<usize> = survivors[..self.data_shards].to_vec();
        let sub: Vec<Vec<u8>> = rows.iter().map(|&r| self.matrix[r].clone()).collect();
        let sub_inv =
            invert(sub).expect("any k rows of a Vandermonde-derived matrix are independent");
        // data_j = Σ_i inv[j][i] * shard[rows[i]] — tables are built once
        // per (j, i) cell and stream whole shards, not per byte.
        out.resize(shard_len * self.data_shards, 0);
        for (j, inv_row) in sub_inv.iter().enumerate() {
            let dst = &mut out[j * shard_len..(j + 1) * shard_len];
            for (&c, &r) in inv_row.iter().zip(&rows) {
                gf256::mul_acc_table(dst, shards[r].expect("survivor"), &MulTable::new(c));
            }
        }
        out.truncate(len);
        Ok(())
    }

    /// Rebuild every missing shard in place (MinIO healing). Requires ≥ k
    /// survivors.
    pub fn reconstruct_shards(
        &self,
        shards: &mut [Option<Vec<u8>>],
        len: usize,
    ) -> Result<(), ErasureError> {
        let padded = self.shard_len(len.max(1)) * self.data_shards;
        let mut data = Vec::new();
        self.decode_into(shards, padded, &mut data)?;
        let mut rebuilt = Vec::new();
        self.encode_into(&data, &mut rebuilt);
        for (slot, shard) in shards.iter_mut().zip(rebuilt) {
            if slot.is_none() {
                *slot = Some(shard);
            }
        }
        Ok(())
    }
}

// The cached tables are derived state: equality and serialization cover
// only the code geometry, and deserialization rebuilds the tables.
impl PartialEq for ErasureCoder {
    fn eq(&self, other: &Self) -> bool {
        self.data_shards == other.data_shards
            && self.parity_shards == other.parity_shards
            && self.matrix == other.matrix
    }
}

impl Eq for ErasureCoder {}

impl Serialize for ErasureCoder {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("data_shards".to_string(), self.data_shards.to_value()),
            ("parity_shards".to_string(), self.parity_shards.to_value()),
            ("matrix".to_string(), self.matrix.to_value()),
        ])
    }
}

impl Deserialize for ErasureCoder {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let data_shards = usize::from_value(v.field("data_shards")?)?;
        let parity_shards = usize::from_value(v.field("parity_shards")?)?;
        let matrix = Vec::<Vec<u8>>::from_value(v.field("matrix")?)?;
        if matrix.len() != data_shards + parity_shards
            || matrix.iter().any(|row| row.len() != data_shards)
        {
            return Err(serde::Error::msg("erasure matrix shape mismatch"));
        }
        let parity_tables = parity_tables_of(&matrix, data_shards);
        Ok(ErasureCoder { data_shards, parity_shards, matrix, parity_tables })
    }
}

/// Gauss–Jordan inversion over GF(2^8). Returns `None` for singular input.
fn invert(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    for row in &m {
        if row.len() != n {
            return None;
        }
    }
    let mut inv: Vec<Vec<u8>> =
        (0..n).map(|i| (0..n).map(|j| u8::from(i == j)).collect()).collect();
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| m[r][col] != 0)?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        // Scale pivot row to 1.
        let p = m[col][col];
        let p_inv = gf256::inv(p);
        for j in 0..n {
            m[col][j] = gf256::mul(m[col][j], p_inv);
            inv[col][j] = gf256::mul(inv[col][j], p_inv);
        }
        // Eliminate other rows.
        for r in 0..n {
            if r != col && m[r][col] != 0 {
                let f = m[r][col];
                for j in 0..n {
                    m[r][j] = gf256::add(m[r][j], gf256::mul(f, m[col][j]));
                    inv[r][j] = gf256::add(inv[r][j], gf256::mul(f, inv[col][j]));
                }
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    /// Encode with the retained scalar oracle: the original per-call
    /// allocation pattern and byte-at-a-time kernels.
    fn encode_scalar(coder: &ErasureCoder, data: &[u8]) -> Vec<Vec<u8>> {
        let shard_len = coder.shard_len(data.len().max(1));
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(coder.total_shards());
        for i in 0..coder.data_shards() {
            let start = i * shard_len;
            let end = (start + shard_len).min(data.len());
            let mut shard = if start < data.len() { data[start..end].to_vec() } else { Vec::new() };
            shard.resize(shard_len, 0);
            shards.push(shard);
        }
        for p in 0..coder.parity_shards() {
            let row = &coder.matrix[coder.data_shards() + p];
            let mut parity = vec![0u8; shard_len];
            for (j, shard) in shards[..coder.data_shards()].iter().enumerate() {
                crate::gf256::scalar::mul_acc(&mut parity, shard, row[j]);
            }
            shards.push(parity);
        }
        shards
    }

    #[test]
    fn encode_is_systematic() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let data = sample(1000, 1);
        let shards = coder.encode(&data);
        assert_eq!(shards.len(), 6);
        let shard_len = coder.shard_len(1000);
        // Data shards are verbatim slices (with padding on the last).
        for (i, shard) in shards.iter().enumerate().take(4) {
            let start = i * shard_len;
            let end = (start + shard_len).min(data.len());
            assert_eq!(&shard[..end - start], &data[start..end], "shard {i}");
        }
    }

    #[test]
    fn fast_encode_matches_scalar_oracle() {
        // Differential test across geometries and awkward sizes, including
        // sizes that don't fill the last shard and sub-word tails.
        for (k, m) in [(1usize, 0usize), (1, 3), (2, 1), (4, 2), (8, 4), (12, 4)] {
            let coder = ErasureCoder::new(k, m).unwrap();
            for len in [0usize, 1, 7, k, k * 8 + 3, 1000, 4096] {
                let data = sample(len, (k * 1000 + m * 10 + len) as u64);
                assert_eq!(
                    coder.encode(&data),
                    encode_scalar(&coder, &data),
                    "k={k} m={m} len={len}"
                );
            }
        }
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_encode() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let mut shards = Vec::new();
        // First call warms the buffers; subsequent calls must not change
        // capacity (zero-allocation steady state).
        coder.encode_into(&sample(4096, 1), &mut shards);
        let caps: Vec<usize> = shards.iter().map(Vec::capacity).collect();
        let ptrs: Vec<*const u8> = shards.iter().map(|s| s.as_ptr()).collect();
        let data = sample(4096, 2);
        coder.encode_into(&data, &mut shards);
        assert_eq!(shards, coder.encode(&data));
        assert_eq!(caps, shards.iter().map(Vec::capacity).collect::<Vec<_>>());
        assert_eq!(ptrs, shards.iter().map(|s| s.as_ptr()).collect::<Vec<_>>());
    }

    #[test]
    fn roundtrip_with_no_loss() {
        let coder = ErasureCoder::minio_default();
        let data = sample(4096, 2);
        let shards: Vec<Option<Vec<u8>>> = coder.encode(&data).into_iter().map(Some).collect();
        assert_eq!(coder.decode(&shards, data.len()).unwrap(), data);
    }

    #[test]
    fn recovers_from_any_m_losses() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let data = sample(777, 3);
        let encoded = coder.encode(&data);
        // Every pair of lost shards must be recoverable.
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                let got = coder.decode(&shards, data.len()).unwrap();
                assert_eq!(got, data, "lost shards {a},{b}");
            }
        }
    }

    #[test]
    fn decode_refs_avoids_owning_shards() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let data = sample(900, 8);
        let encoded = coder.encode(&data);
        let mut refs: Vec<Option<&[u8]>> = encoded.iter().map(|s| Some(s.as_slice())).collect();
        refs[1] = None;
        refs[4] = None;
        let mut out = Vec::new();
        coder.decode_refs(&refs, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn fails_beyond_parity_budget() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let data = sample(100, 4);
        let mut shards: Vec<Option<Vec<u8>>> = coder.encode(&data).into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            coder.decode(&shards, data.len()).unwrap_err(),
            ErasureError::TooFewShards { have: 3, need: 4 }
        );
    }

    #[test]
    fn healing_rebuilds_missing_shards_bit_exact() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let data = sample(5000, 5);
        let encoded = coder.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        shards[1] = None;
        shards[5] = None;
        coder.reconstruct_shards(&mut shards, data.len()).unwrap();
        for (i, (got, want)) in shards.iter().zip(&encoded).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "shard {i}");
        }
    }

    #[test]
    fn various_code_geometries_roundtrip() {
        for (k, m) in [(1, 0), (1, 3), (2, 1), (3, 3), (8, 4), (10, 2)] {
            let coder = ErasureCoder::new(k, m).unwrap();
            let data = sample(k * 37 + 11, (k * 10 + m) as u64);
            let mut shards: Vec<Option<Vec<u8>>> =
                coder.encode(&data).into_iter().map(Some).collect();
            // Drop the last min(m, k+m-k) shards.
            for i in 0..m.min(shards.len() - k) {
                let idx = shards.len() - 1 - i;
                shards[idx] = None;
            }
            assert_eq!(coder.decode(&shards, data.len()).unwrap(), data, "k={k} m={m}");
        }
    }

    #[test]
    fn tiny_and_empty_objects() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        for data in [vec![], vec![0x42], sample(3, 6)] {
            let shards: Vec<Option<Vec<u8>>> = coder.encode(&data).into_iter().map(Some).collect();
            assert_eq!(coder.decode(&shards, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn shard_length_mismatch_detected() {
        let coder = ErasureCoder::new(2, 1).unwrap();
        let data = sample(10, 7);
        let mut shards: Vec<Option<Vec<u8>>> = coder.encode(&data).into_iter().map(Some).collect();
        shards[0].as_mut().unwrap().push(0);
        assert_eq!(
            coder.decode(&shards, data.len()).unwrap_err(),
            ErasureError::ShardLengthMismatch
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(matches!(ErasureCoder::new(0, 2), Err(ErasureError::BadParameters(_))));
        assert!(matches!(ErasureCoder::new(200, 100), Err(ErasureError::BadParameters(_))));
        assert!(ErasureCoder::new(128, 128).is_ok());
    }

    #[test]
    fn overhead_reports_amplification() {
        assert!((ErasureCoder::new(4, 2).unwrap().overhead() - 1.5).abs() < 1e-12);
        assert!((ErasureCoder::new(8, 4).unwrap().overhead() - 1.5).abs() < 1e-12);
        assert!((ErasureCoder::new(1, 3).unwrap().overhead() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip_rebuilds_cached_tables() {
        let coder = ErasureCoder::new(4, 2).unwrap();
        let json = serde_json::to_string(&coder).unwrap();
        let back: ErasureCoder = serde_json::from_str(&json).unwrap();
        assert_eq!(back, coder);
        // The deserialized coder must encode identically (tables rebuilt).
        let data = sample(500, 11);
        assert_eq!(back.encode(&data), coder.encode(&data));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // triple-index matrix math reads best as ranges
    fn matrix_inversion_round_trips() {
        let m = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 10]];
        let inv = invert(m.clone()).unwrap();
        // m * inv = I over GF(256).
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0u8;
                for l in 0..3 {
                    acc = gf256::add(acc, gf256::mul(m[i][l], inv[l][j]));
                }
                assert_eq!(acc, u8::from(i == j), "({i},{j})");
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let m = vec![vec![1, 2], vec![1, 2]];
        assert!(invert(m).is_none());
    }
}
