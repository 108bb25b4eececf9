//! Content digests in Docker's `sha256:<hex>` notation.

use crate::sha256::{sha256, sha256_of_parts, to_hex};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A SHA-256 content digest.
///
/// The hex is shared: a clone (every cache, manifest and peer view holds
/// its layers' digests) bumps a reference count and copies no bytes.
/// Equality, ordering and hashing are the hex string's, so a digest
/// hashes as its [`Digest::hex`] does, and it serializes as the bare hex.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(Arc<str>);

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
        let valid = hex.len() == 64
            && hex.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase());
        valid.then(|| Digest(hex.into()))
    }

    /// Short prefix for human-readable logs (like `docker images` output).
    pub fn short(&self) -> &str {
        &self.0[..12]
    }
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

        #[test]
        fn digest_is_deterministic_and_sensitive(content in proptest::collection::vec(any::<u8>(), 1..128)) {
            prop_assert_eq!(Digest::of(&content), Digest::of(&content));
            let mut flipped = content.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(Digest::of(&content), Digest::of(&flipped));
        }
    }
}
