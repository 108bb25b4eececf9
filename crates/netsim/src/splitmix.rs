//! The workspace's one seed-stream mixer.

/// splitmix64 (Steele, Lea & Flood): add the golden-ratio gamma to `x`
/// and avalanche the sum. Keyed draws mix their key directly; a running
/// stream keeps a state and steps it with
/// `out = splitmix64(state); state = state.wrapping_add(0x9E37_79B9_7F4A_7C15)`,
/// which yields the published sequence.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of `bits`, one
/// mixer output: every unit draw of the workspace goes through here.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_running_stream_reproduces_the_published_seed_zero_vector() {
        let mut state = 0u64;
        let stream: Vec<u64> = (0..3)
            .map(|_| {
                let out = splitmix64(state);
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                out
            })
            .collect();
        assert_eq!(stream, [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]);
    }
}
