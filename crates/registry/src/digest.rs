//! Content digests in Docker's `sha256:<hex>` notation.

use crate::sha256::{sha256, sha256_of_parts, to_hex};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// A SHA-256 content digest.
///
/// The hex is shared: a clone (every cache, manifest and peer view holds
/// its layers' digests) bumps a reference count and copies no bytes.
/// Equality, ordering and hashing are the hex string's, so a digest
/// hashes as its [`Digest::hex`] does, a digest-keyed table can be
/// looked up by the bare hex (`Borrow<str>`), and it serializes as the
/// bare hex.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(Arc<str>);

impl Borrow<str> for Digest {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// The hasher of every digest-keyed table ([`DigestSet`], [`DigestMap`]).
///
/// A digest feeds a hasher what its hex string does: the hex bytes, then
/// a `0xff` terminator. A SHA-256 hex is uniform already, so the keyed
/// rounds of the standard library's SipHash buy nothing there. This
/// hasher folds the bytes eight at a time with one multiply-rotate each
/// and mixes the result once in [`Hasher::finish`]. A tail shorter than
/// eight bytes is zero-padded and folded with its length, so a digest of
/// any length (a deserialized one may be short or long) hashes
/// consistently with its equality. Unlike SipHash it is unkeyed, so hex
/// strings crafted to collide would slow a table down; the tables hold
/// digests the program computed or read back from its own registries.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestHasher(u64);

impl DigestHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("an eight-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word) ^ (tail.len() as u64) << 56);
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.fold(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        deep_netsim::splitmix64(self.0)
    }
}

/// The [`std::hash::BuildHasher`] of every digest-keyed table.
pub type DigestState = BuildHasherDefault<DigestHasher>;

/// A set of digests hashed by [`DigestHasher`].
pub type DigestSet = HashSet<Digest, DigestState>;

/// A map keyed by digest, hashed by [`DigestHasher`].
pub type DigestMap<V> = HashMap<Digest, V, DigestState>;

impl Serialize for Digest {
    fn to_value(&self) -> Value {
        self.hex().to_value()
    }
}

impl Deserialize for Digest {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        v.as_str().map(|hex| Digest(hex.into()))
    }
}

impl Digest {
    /// Digest of `content`.
    pub fn of(content: &[u8]) -> Self {
        Digest(to_hex(&sha256(content)).into())
    }

    /// Digest of a logical concatenation, streamed part by part — lets a
    /// synthetic layer digest hash its name and size without assembling
    /// the concatenated seed.
    pub fn of_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Self {
        Digest(to_hex(&sha256_of_parts(parts)).into())
    }

    /// The 64-char lowercase hex, without the `sha256:` prefix.
    pub fn hex(&self) -> &str {
        &self.0
    }

    /// Canonical `sha256:<hex>` string.
    pub fn to_canonical(&self) -> String {
        format!("sha256:{}", self.0)
    }

    /// A digest from its bare hex, as [`Digest::hex`] returns it: `None`
    /// unless it is 64 lowercase hex chars.
    pub(crate) fn from_hex(hex: &str) -> Option<Self> {
        is_hex(hex).then(|| Digest(hex.into()))
    }

    /// Short prefix for human-readable logs (like `docker images` output).
    pub fn short(&self) -> &str {
        &self.0[..12]
    }
}

/// Whether `hex` is a digest's bare hex: 64 lowercase hex chars.
pub(crate) fn is_hex(hex: &str) -> bool {
    hex.len() == 64 && hex.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha256:{}", self.0)
    }
}

/// Error parsing a digest string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDigestError(String);

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digest: {}", self.0)
    }
}

impl std::error::Error for ParseDigestError {}

impl FromStr for Digest {
    type Err = ParseDigestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex = s
            .strip_prefix("sha256:")
            .ok_or_else(|| ParseDigestError(format!("{s:?} lacks sha256: prefix")))?;
        Digest::from_hex(hex)
            .ok_or_else(|| ParseDigestError(format!("{s:?} is not 64 lowercase hex chars")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_known_content() {
        let d = Digest::of(b"abc");
        assert_eq!(d.hex(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_eq!(
            d.to_canonical(),
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(d.short(), "ba7816bf8f01");
    }

    #[test]
    fn same_content_same_digest() {
        assert_eq!(Digest::of(b"layer"), Digest::of(b"layer"));
        assert_ne!(Digest::of(b"layer"), Digest::of(b"other"));
    }

    #[test]
    fn parse_round_trip() {
        let d = Digest::of(b"x");
        let parsed: Digest = d.to_canonical().parse().unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("md5:abcd".parse::<Digest>().is_err());
        assert!("sha256:short".parse::<Digest>().is_err());
        assert!(format!("sha256:{}", "G".repeat(64)).parse::<Digest>().is_err());
        assert!(format!("sha256:{}", "AB".repeat(32)).parse::<Digest>().is_err(), "uppercase");
    }

    #[test]
    fn display_matches_canonical() {
        let d = Digest::of(b"y");
        assert_eq!(format!("{d}"), d.to_canonical());
    }

    #[test]
    fn serializes_as_the_bare_hex() {
        let d = Digest::of(b"abc");
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, r#""ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad""#);
        assert_eq!(serde_json::from_str::<Digest>(&json).unwrap(), d);
    }

    #[test]
    fn hashes_and_sorts_as_its_hex() {
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        let digests: Vec<Digest> = (0u8..32).map(|i| Digest::of(&[i])).collect();
        for d in &digests {
            assert_eq!(state.hash_one(d), state.hash_one(d.hex()));
        }
        let mut by_digest = digests.clone();
        by_digest.sort();
        let mut by_hex: Vec<&str> = digests.iter().map(Digest::hex).collect();
        by_hex.sort();
        assert_eq!(by_digest.iter().map(Digest::hex).collect::<Vec<_>>(), by_hex);
        let set: std::collections::BTreeSet<Digest> = digests.iter().cloned().collect();
        assert!(set.iter().map(Digest::hex).eq(by_hex.iter().copied()));
    }

    #[test]
    fn digest_tables_hash_equal_digests_equally_and_look_up_by_hex() {
        use std::hash::BuildHasher;
        let state = DigestState::default();
        let a = Digest::of(b"layer");
        let parsed: Digest = a.to_canonical().parse().unwrap();
        assert!(!std::ptr::eq(a.hex(), parsed.hex()), "two allocations of one hex");
        assert_eq!(state.hash_one(&a), state.hash_one(&parsed));
        assert_eq!(state.hash_one(&a), state.hash_one(a.hex()));
        assert_ne!(state.hash_one(&a), state.hash_one(Digest::of(b"other")));
        let set: DigestSet = [a.clone()].into_iter().collect();
        assert!(set.contains(a.hex()) && set.contains(&parsed));
        assert!(!set.contains(Digest::of(b"other").hex()));
    }

    #[test]
    fn clones_share_the_hex() {
        let d = Digest::of(b"layer");
        let c = d.clone();
        assert!(std::ptr::eq(d.hex(), c.hex()), "a clone copies no bytes");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn digest_round_trip(content in proptest::collection::vec(any::<u8>(), 0..256)) {
            let d = Digest::of(&content);
            prop_assert_eq!(d.hex().len(), 64);
            let parsed: Digest = d.to_canonical().parse().expect("canonical digests parse");
            prop_assert_eq!(parsed, d);
        }

        /// [`DigestSet`] and [`DigestMap`] against the standard
        /// library's SipHash tables on random inserts, removes and
        /// lookups, over SHA-256 digests and deserialized digests of
        /// every length class the hasher folds differently.
        #[test]
        fn digest_tables_match_std_tables(ops in proptest::collection::vec(any::<u64>(), 1..200)) {
            let mut pool: Vec<Digest> = (0u8..8).map(|i| Digest::of(&[i])).collect();
            for len in [0usize, 1, 15, 16, 63, 64, 100] {
                for last in ["a", "b"] {
                    let hex = format!("{}{last}", "0".repeat(len.saturating_sub(1)));
                    let hex = if len == 0 { String::new() } else { hex };
                    let json = format!("\"{hex}\"");
                    pool.push(serde_json::from_str::<Digest>(&json).expect("any string deserializes"));
                }
            }
            let mut set = DigestSet::default();
            let mut map: DigestMap<u64> = DigestMap::default();
            let mut std_set = std::collections::HashSet::new();
            let mut std_map = std::collections::HashMap::new();
            for op in ops {
                let d = &pool[(op >> 8) as usize % pool.len()];
                let value = op >> 32;
                match op % 7 {
                    0 => prop_assert_eq!(set.insert(d.clone()), std_set.insert(d.clone())),
                    1 => prop_assert_eq!(set.remove(d), std_set.remove(d)),
                    2 => prop_assert_eq!(set.contains(d.hex()), std_set.contains(d)),
                    3 => prop_assert_eq!(map.insert(d.clone(), value), std_map.insert(d.clone(), value)),
                    4 => prop_assert_eq!(map.remove(d), std_map.remove(d)),
                    5 => prop_assert_eq!(map.get(d.hex()), std_map.get(d)),
                    _ => {
                        let fresh: Digest = serde_json::from_str(&format!("\"{}\"", d.hex())).unwrap();
                        prop_assert_eq!(set.contains(&fresh), std_set.contains(&fresh));
                        prop_assert_eq!(map.get(&fresh), std_map.get(&fresh));
                    }
                }
                prop_assert_eq!(set.len(), std_set.len());
                prop_assert_eq!(map.len(), std_map.len());
            }
            let mut got: Vec<&Digest> = set.iter().collect();
            let mut want: Vec<&Digest> = std_set.iter().collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
            let mut got: Vec<(&Digest, &u64)> = map.iter().collect();
            let mut want: Vec<(&Digest, &u64)> = std_map.iter().collect();
            got.sort();
            want.sort();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn digest_is_deterministic_and_sensitive(content in proptest::collection::vec(any::<u8>(), 1..128)) {
            prop_assert_eq!(Digest::of(&content), Digest::of(&content));
            let mut flipped = content.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(Digest::of(&content), Digest::of(&flipped));
        }
    }
}
