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
//! The compression function keeps a **rolling 16-word message schedule**
//! (`w[t & 15]` updated in place) instead of materialising all 64 words,
//! and unrolls the rounds via register renaming so the working variables
//! never shuffle through a rotation loop. Whole blocks are compressed
//! **directly from the caller's slice** (`u32::from_be_bytes` loads, no
//! staging copy); the internal buffer is touched only for sub-block tails.
//! Padding in `finalize` is assembled in one stack buffer and compressed
//! in a single pass.

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

#[inline(always)]
fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// One compression round with the working variables passed by name — the
/// caller permutes the names instead of rotating eight registers.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:expr, $w:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Eight renamed rounds (the naming returns to `a..h` after eight).
macro_rules! round8 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $base:expr, $w:expr) => {{
        round!($a, $b, $c, $d, $e, $f, $g, $h, K[$base], $w[$base & 15]);
        round!($h, $a, $b, $c, $d, $e, $f, $g, K[$base + 1], $w[($base + 1) & 15]);
        round!($g, $h, $a, $b, $c, $d, $e, $f, K[$base + 2], $w[($base + 2) & 15]);
        round!($f, $g, $h, $a, $b, $c, $d, $e, K[$base + 3], $w[($base + 3) & 15]);
        round!($e, $f, $g, $h, $a, $b, $c, $d, K[$base + 4], $w[($base + 4) & 15]);
        round!($d, $e, $f, $g, $h, $a, $b, $c, K[$base + 5], $w[($base + 5) & 15]);
        round!($c, $d, $e, $f, $g, $h, $a, $b, K[$base + 6], $w[($base + 6) & 15]);
        round!($b, $c, $d, $e, $f, $g, $h, $a, K[$base + 7], $w[($base + 7) & 15]);
    }};
}

/// Compress one 64-byte block into `state` with the rolling schedule.
#[inline]
fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 16];
    for (wv, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wv = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    round8!(a, b, c, d, e, f, g, h, 0, w);
    round8!(a, b, c, d, e, f, g, h, 8, w);
    for base in [16usize, 24, 32, 40, 48, 56] {
        // Roll the schedule forward 8 words, then run 8 renamed rounds.
        for j in 0..8 {
            let t = (base + j) & 15;
            w[t] = w[t]
                .wrapping_add(small_sigma0(w[(t + 1) & 15]))
                .wrapping_add(w[(t + 9) & 15])
                .wrapping_add(small_sigma1(w[(t + 14) & 15]));
        }
        round8!(a, b, c, d, e, f, g, h, base, w);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Whether the CPU has the SHA extensions the hardware path needs.
fn have_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse4.1")
                && std::arch::is_x86_feature_detected!("ssse3")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Compress every whole 64-byte block of `data`, returning the tail.
/// Dispatches to the SHA-NI kernel when the CPU has it.
#[inline]
fn compress_blocks<'a>(state: &mut [u32; 8], data: &'a [u8]) -> &'a [u8] {
    let tail_start = data.len() & !63;
    #[cfg(target_arch = "x86_64")]
    if have_sha_ni() {
        // SAFETY: feature availability checked by `have_sha_ni`.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress_blocks(state, &data[..tail_start])
        };
        return &data[tail_start..];
    }
    for block in data[..tail_start].chunks_exact(64) {
        compress_block(state, block);
    }
    &data[tail_start..]
}

/// Hardware SHA-256 rounds (Intel SHA extensions). Follows the canonical
/// two-lane state layout — `STATE0 = ABEF`, `STATE1 = CDGH` — with the
/// message schedule advanced four words at a time by `sha256msg1/msg2`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Four rounds: add round constants to the schedule words, then two
    /// `sha256rnds2` (each consumes two words).
    macro_rules! rounds4 {
        ($state0:ident, $state1:ident, $msg:expr, $k:expr) => {{
            let mut wk = _mm_add_epi32($msg, _mm_loadu_si128(K.as_ptr().add($k) as *const __m128i));
            $state1 = _mm_sha256rnds2_epu32($state1, $state0, wk);
            wk = _mm_shuffle_epi32(wk, 0x0E);
            $state0 = _mm_sha256rnds2_epu32($state0, $state1, wk);
        }};
    }

    /// Schedule step: `m0 ← σ-expanded next four words` from the rolling
    /// window `m0..m3`.
    macro_rules! sched {
        ($m0:ident, $m1:ident, $m2:ident, $m3:ident) => {{
            let tmp = _mm_alignr_epi8($m3, $m2, 4);
            $m0 = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32($m0, $m1), tmp), $m3);
        }};
    }

    /// # Safety
    /// Caller must ensure the `sha`, `sse4.1`, and `ssse3` features are
    /// available and `data.len()` is a multiple of 64.
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Big-endian word loads as one byte shuffle.
        let swap_mask = _mm_set_epi64x(0x0c0d0e0f08090a0bu64 as i64, 0x0405060700010203u64 as i64);
        // Pack [a,b,c,d,e,f,g,h] into the ABEF/CDGH lane layout.
        let abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let efgh = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let tmp = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, efgh, 8);
        let mut state1 = _mm_blend_epi16(efgh, tmp, 0xF0);

        for block in data.chunks_exact(64) {
            let saved0 = state0;
            let saved1 = state1;
            let p = block.as_ptr() as *const __m128i;
            let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(p), swap_mask);
            let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), swap_mask);
            let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), swap_mask);
            let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), swap_mask);

            rounds4!(state0, state1, m0, 0);
            rounds4!(state0, state1, m1, 4);
            rounds4!(state0, state1, m2, 8);
            rounds4!(state0, state1, m3, 12);
            sched!(m0, m1, m2, m3);
            rounds4!(state0, state1, m0, 16);
            sched!(m1, m2, m3, m0);
            rounds4!(state0, state1, m1, 20);
            sched!(m2, m3, m0, m1);
            rounds4!(state0, state1, m2, 24);
            sched!(m3, m0, m1, m2);
            rounds4!(state0, state1, m3, 28);
            sched!(m0, m1, m2, m3);
            rounds4!(state0, state1, m0, 32);
            sched!(m1, m2, m3, m0);
            rounds4!(state0, state1, m1, 36);
            sched!(m2, m3, m0, m1);
            rounds4!(state0, state1, m2, 40);
            sched!(m3, m0, m1, m2);
            rounds4!(state0, state1, m3, 44);
            sched!(m0, m1, m2, m3);
            rounds4!(state0, state1, m0, 48);
            sched!(m1, m2, m3, m0);
            rounds4!(state0, state1, m1, 52);
            sched!(m2, m3, m0, m1);
            rounds4!(state0, state1, m2, 56);
            sched!(m3, m0, m1, m2);
            rounds4!(state0, state1, m3, 60);

            state0 = _mm_add_epi32(state0, saved0);
            state1 = _mm_add_epi32(state1, saved1);
        }

        // Unpack ABEF/CDGH back to [a..h].
        let tmp = _mm_shuffle_epi32(state0, 0x1B);
        let state1 = _mm_shuffle_epi32(state1, 0xB1);
        let abcd = _mm_blend_epi16(tmp, state1, 0xF0);
        let efgh = _mm_alignr_epi8(state1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
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
            if self.buffered == 64 {
                let block = self.buffer;
                compress_block(&mut self.state, &block);
                self.buffered = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        // Zero-copy path: all whole blocks directly from the caller's
        // slice, one pass.
        let tail = compress_blocks(&mut self.state, data);
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
        let rest = compress_blocks(&mut state, &trailer[..trailer_len]);
        debug_assert!(rest.is_empty());
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

/// Hash a logical concatenation without materialising it — the manifest +
/// layer-list digests the registry computes on every push and pull.
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

/// The original straightforward implementation (64-word schedule built per
/// block, byte-wise padding), retained as the differential-test oracle.
#[cfg(test)]
pub mod reference {
    use super::{H0, K};

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

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
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
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
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
    fn portable_rounds_match_dispatched_rounds() {
        // Whatever `compress_blocks` dispatches to (SHA-NI on capable
        // x86), the portable rolling-schedule compression must agree.
        for blocks in [1usize, 2, 3, 7] {
            let msg = noise(blocks * 64, blocks as u64);
            let mut dispatched = H0;
            let rest = compress_blocks(&mut dispatched, &msg);
            assert!(rest.is_empty());
            let mut portable = H0;
            for block in msg.chunks_exact(64) {
                compress_block(&mut portable, block);
            }
            assert_eq!(dispatched, portable, "blocks {blocks}");
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
