//! Wide 64-bit content checksums for ETags and bitrot detection.
//!
//! The store's original ETag hash was byte-at-a-time FNV-1a — a
//! strict dependency chain of one XOR and one multiply per *byte*, which
//! caps throughput far below memory bandwidth on multi-megabyte layer
//! blobs. This kernel runs four independent FNV-style lanes over 32-byte
//! blocks (one `u64` word per lane per step), so the four multiplies per
//! step pipeline in parallel, then mixes the lanes and the total length
//! into one 64-bit digest.
//!
//! Not cryptographic — the threat model is bitrot and cache keys, not an
//! adversary (content addressing uses the registry's SHA-256).

const SEED: [u64; 4] = [
    0xcbf29ce484222325, // FNV-1a offset basis
    0x9e3779b97f4a7c15, // golden-ratio increment
    0xa0761d6478bd642f, // wyhash constant
    0x2545f4914f6cdd1d, // xorshift* multiplier
];
const PRIME: u64 = 0x100000001b3;

#[inline]
fn lane_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

/// Final avalanche (splitmix64 finalizer).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Streaming four-lane checksum. Incremental updates produce the same
/// digest as a one-shot pass over the concatenation; [`checksum64`] is the
/// one-shot form.
#[derive(Debug, Clone)]
pub struct Hash64 {
    lanes: [u64; 4],
    buf: [u8; 32],
    buffered: usize,
    length: u64,
}

impl Default for Hash64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hash64 {
    pub fn new() -> Self {
        Hash64 { lanes: SEED, buf: [0; 32], buffered: 0, length: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 32 {
                let block = self.buf;
                self.absorb_block(&block);
                self.buffered = 0;
            }
            if data.is_empty() {
                // Nothing left: the partial buffer (if any) must survive.
                return;
            }
        }
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            self.absorb_block(block.try_into().expect("chunks_exact(32)"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    #[inline]
    fn absorb_block(&mut self, block: &[u8; 32]) {
        // Four independent multiply chains — the CPU overlaps them.
        self.lanes[0] =
            lane_step(self.lanes[0], u64::from_le_bytes(block[0..8].try_into().expect("8")));
        self.lanes[1] =
            lane_step(self.lanes[1], u64::from_le_bytes(block[8..16].try_into().expect("8")));
        self.lanes[2] =
            lane_step(self.lanes[2], u64::from_le_bytes(block[16..24].try_into().expect("8")));
        self.lanes[3] =
            lane_step(self.lanes[3], u64::from_le_bytes(block[24..32].try_into().expect("8")));
    }

    /// Produce the digest (the hasher may keep absorbing afterwards).
    pub fn finish(&self) -> u64 {
        // Tail: zero-pad to a block but bind the true length so trailing
        // zeros and padding are distinguishable.
        let mut lanes = self.lanes;
        if self.buffered > 0 {
            let mut block = [0u8; 32];
            block[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            lanes[0] = lane_step(lanes[0], u64::from_le_bytes(block[0..8].try_into().expect("8")));
            lanes[1] = lane_step(lanes[1], u64::from_le_bytes(block[8..16].try_into().expect("8")));
            lanes[2] =
                lane_step(lanes[2], u64::from_le_bytes(block[16..24].try_into().expect("8")));
            lanes[3] =
                lane_step(lanes[3], u64::from_le_bytes(block[24..32].try_into().expect("8")));
        }
        let combined = mix(lanes[0])
            .wrapping_add(mix(lanes[1]).rotate_left(17))
            .wrapping_add(mix(lanes[2]).rotate_left(31))
            .wrapping_add(mix(lanes[3]).rotate_left(47));
        mix(combined ^ self.length)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h = Hash64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = noise(1000, 1);
        assert_eq!(checksum64(&a), checksum64(&a));
        let mut b = a.clone();
        b[500] ^= 1;
        assert_ne!(checksum64(&a), checksum64(&b));
    }

    #[test]
    fn length_extension_of_zeros_changes_digest() {
        // Zero-padding must not collide with the unpadded content.
        let a = vec![0u8; 31];
        let b = vec![0u8; 32];
        let c = vec![0u8; 33];
        assert_ne!(checksum64(&a), checksum64(&b));
        assert_ne!(checksum64(&b), checksum64(&c));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let msg = noise(257, 3);
        let want = checksum64(&msg);
        for split in [0, 1, 31, 32, 33, 64, 100, 255, 256, 257] {
            let mut h = Hash64::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finish(), want, "split {split}");
        }
        // Byte-at-a-time.
        let mut h = Hash64::new();
        for b in &msg {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Hash64::new();
        h.update(b"part-1");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.update(b"part-2");
        assert_ne!(h.finish(), first);
    }

    #[test]
    fn empty_input_has_stable_digest() {
        assert_eq!(checksum64(&[]), Hash64::new().finish());
    }
}
