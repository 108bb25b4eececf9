//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Docker's entire storage model is content addressing by SHA-256: layer
//! blobs, image configs and manifests are all named by their digest. The
//! workspace has no crypto dependency, so the hash is implemented here and
//! validated against the NIST CAVP short-message vectors plus the classic
//! FIPS examples.
//!
//! ## Kernel layout
//!
//! One portable compression function, the plain FIPS 180-4 loop: a
//! 64-word message schedule built per block, then 64 rounds. Registry
//! inputs are a few hundred bytes (manifest bodies, synthetic layer and
//! config seeds), and publishing hashes a manifest only where a check
//! reads its digest. Whole blocks are compressed **directly from the
//! caller's slice**; the internal buffer is touched only for sub-block
//! tails. Padding in `finalize` is assembled in one stack buffer.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Compress one 64-byte block into `state` (FIPS 180-4 §6.2.2): build
/// the 64-word message schedule, then run the 64 rounds.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (wv, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wv = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(big_s1).wrapping_add(ch).wrapping_add(K[t]).wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block buffer.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length: 0 }
    }

    /// Feed message bytes. Whole blocks are compressed straight from
    /// `data`; only sub-block tails touch the internal buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length =
            self.length.checked_add(data.len() as u64).expect("message longer than 2^64 bytes");
        // Fill a pending partial block first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        let Sha256 { mut state, buffer, buffered, length } = self;
        // Assemble the padded trailer (1 or 2 blocks) in one stack buffer:
        // message tail, 0x80, zeros, 64-bit big-endian bit length.
        let mut trailer = [0u8; 128];
        trailer[..buffered].copy_from_slice(&buffer[..buffered]);
        trailer[buffered] = 0x80;
        let trailer_len = if buffered < 56 { 64 } else { 128 };
        trailer[trailer_len - 8..trailer_len]
            .copy_from_slice(&length.wrapping_mul(8).to_be_bytes());
        let (blocks, _) = trailer[..trailer_len].as_chunks::<64>();
        for block in blocks {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(&state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot helper.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash a logical concatenation without materialising it (the name and
/// size parts of a synthetic layer digest).
pub fn sha256_of_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> [u8; 32] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// Lowercase hex of a digest.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize]);
        out.push(HEX[(b & 0x0f) as usize]);
    }
    String::from_utf8(out).expect("hex is ascii")
}

/// The straightforward padding (whole message copied, padded byte by
/// byte) over the same compression function, retained as the
/// differential-test oracle for the streaming `update` / `finalize`.
#[cfg(test)]
pub mod reference {
    use super::{compress, H0};

    pub fn sha256(data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&bit_len.to_be_bytes());
        for block in message.chunks_exact(64) {
            compress(&mut state, block.try_into().expect("chunks_exact(64)"));
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        to_hex(&sha256(data))
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn fips_one_block_example() {
        assert_eq!(hex(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn fips_two_block_example() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_cavp_short_vectors() {
        // From SHA256ShortMsg.rsp.
        assert_eq!(
            hex(&[0xd3]),
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"
        );
        assert_eq!(
            hex(&[0x5f, 0xd4]),
            "7c4fbf484498d21b487b9d61de8914b2eadaf2698712936d47c3ada2558f6788"
        );
        assert_eq!(
            hex(&[0x74, 0xba, 0x25, 0x21]),
            "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"
        );
        assert_eq!(
            hex(&[0xc2, 0x99, 0x20, 0x96, 0x82]),
            "f0887fe961c9cd3beab957e8222494abb969b1ce4c6557976df8b0f6d20e9166"
        );
        assert_eq!(
            hex(&[0xe1, 0xdc, 0x72, 0x4d, 0x56, 0x21]),
            "eca0a060b489636225b4fa64d267dabbe44273067ac679f20820bddc6b6a90ac"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let msg: Vec<u8> = (0..=255u8).collect();
        let want = sha256(&msg);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 200, 256] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths_are_padded_correctly() {
        // 55/56/57 and 63/64/65 bytes straddle the padding edge cases;
        // verify self-consistency (oneshot == byte-at-a-time).
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let msg: Vec<u8> = (0..len as u8).collect();
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&msg), "len {len}");
        }
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 16) as u8
            })
            .collect()
    }

    #[test]
    fn matches_reference_oracle_over_random_inputs() {
        // Differential test vs the retained straightforward implementation
        // across all padding regimes and multi-block sizes.
        for len in [0usize, 1, 31, 55, 56, 57, 63, 64, 65, 100, 127, 128, 129, 1000, 4096, 8191] {
            let msg = noise(len, len as u64 + 17);
            assert_eq!(sha256(&msg), reference::sha256(&msg), "len {len}");
        }
    }

    #[test]
    fn random_chunkings_match_oneshot() {
        // Feed the same message in pseudo-random chunk sizes.
        let msg = noise(10_000, 99);
        let want = sha256(&msg);
        let mut seed = 0x12345u64;
        for trial in 0..20 {
            let mut h = Sha256::new();
            let mut pos = 0;
            while pos < msg.len() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let take = (seed as usize % 257).min(msg.len() - pos);
                h.update(&msg[pos..pos + take]);
                pos += take;
            }
            assert_eq!(h.finalize(), want, "trial {trial}");
        }
    }

    #[test]
    fn of_parts_equals_concatenation() {
        let parts: Vec<Vec<u8>> = vec![b"manifest".to_vec(), vec![], noise(200, 5), noise(64, 6)];
        let concat: Vec<u8> = parts.iter().flatten().copied().collect();
        assert_eq!(sha256_of_parts(parts.iter().map(Vec::as_slice)), sha256(&concat));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"layer-1"), sha256(b"layer-2"));
        assert_ne!(sha256(b""), sha256(&[0]));
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
    }
}
