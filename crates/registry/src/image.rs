//! Image references and platforms.
//!
//! Table I names images as `sina88/vp-transcode` (Docker Hub) and
//! `dcloud2.itec.aau.at/aau/vp-transcode` (regional), each tagged `amd64`
//! and `arm64` for the two testbed architectures.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Target hardware architecture of an image variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// x86-64 (the medium Intel device).
    Amd64,
    /// 64-bit ARM (the small Raspberry Pi device).
    Arm64,
}

impl Platform {
    pub(crate) fn all() -> [Platform; 2] {
        [Platform::Amd64, Platform::Arm64]
    }

    /// The tag string the paper uses.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Platform::Amd64 => "amd64",
            Platform::Arm64 => "arm64",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A parsed image reference: `[host/]repository[:tag]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reference {
    /// Registry host; `docker.io` when omitted (Docker's default).
    pub host: String,
    /// Repository path, e.g. `sina88/vp-transcode` or `aau/tp-retrieve`.
    pub repository: String,
    /// Tag; `latest` when omitted.
    pub tag: String,
}

impl Reference {
    pub fn new(host: &str, repository: &str, tag: &str) -> Self {
        Reference { host: host.into(), repository: repository.into(), tag: tag.into() }
    }

    /// Full canonical form `host/repository:tag`.
    pub(crate) fn canonical(&self) -> String {
        format!("{}/{}:{}", self.host, self.repository, self.tag)
    }
}

impl fmt::Display for Reference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Reference parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReferenceError(String);

impl fmt::Display for ParseReferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid image reference: {}", self.0)
    }
}

impl std::error::Error for ParseReferenceError {}

impl FromStr for Reference {
    type Err = ParseReferenceError;

    /// Parse Docker-style references. The first path component is a host
    /// only if it contains a dot or colon (Docker's own disambiguation
    /// rule); otherwise the host defaults to `docker.io`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseReferenceError("empty".into()));
        }
        let (path, tag) = match s.rsplit_once(':') {
            // A colon inside the last path segment is a tag separator; a
            // colon before a slash would be a port, which we treat as part
            // of the host.
            Some((p, t)) if !t.contains('/') => (p, t.to_string()),
            _ => (s, "latest".to_string()),
        };
        if tag.is_empty() {
            return Err(ParseReferenceError(format!("{s:?} has empty tag")));
        }
        let (host, repository) = match path.split_once('/') {
            Some((first, rest)) if first.contains('.') || first.contains(':') => {
                (first.to_string(), rest.to_string())
            }
            _ => ("docker.io".to_string(), path.to_string()),
        };
        if repository.is_empty() {
            return Err(ParseReferenceError(format!("{s:?} has empty repository")));
        }
        Ok(Reference { host, repository, tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hub_image() {
        let r: Reference = "sina88/vp-transcode:amd64".parse().unwrap();
        assert_eq!(r.host, "docker.io");
        assert_eq!(r.repository, "sina88/vp-transcode");
        assert_eq!(r.tag, "amd64");
    }

    #[test]
    fn parses_regional_image() {
        let r: Reference = "dcloud2.itec.aau.at/aau/vp-frame:arm64".parse().unwrap();
        assert_eq!(r.host, "dcloud2.itec.aau.at");
        assert_eq!(r.repository, "aau/vp-frame");
        assert_eq!(r.tag, "arm64");
    }

    #[test]
    fn default_tag_is_latest() {
        let r: Reference = "library/alpine".parse().unwrap();
        assert_eq!(r.tag, "latest");
        assert_eq!(r.host, "docker.io");
    }

    #[test]
    fn host_with_port() {
        let r: Reference = "dcloud2.itec.aau.at:9001/aau/tp-retrieve:amd64".parse().unwrap();
        assert_eq!(r.host, "dcloud2.itec.aau.at:9001");
        assert_eq!(r.repository, "aau/tp-retrieve");
    }

    #[test]
    fn canonical_round_trip() {
        let r = Reference::new("docker.io", "sina88/tp-decompress", "arm64");
        let back: Reference = r.canonical().parse().unwrap();
        assert_eq!(back, r);
        assert_eq!(format!("{r}"), "docker.io/sina88/tp-decompress:arm64");
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!("".parse::<Reference>().is_err());
        assert!("img:".parse::<Reference>().is_err());
    }

    #[test]
    fn platform_tags() {
        assert_eq!(Platform::Amd64.tag(), "amd64");
        assert_eq!(Platform::Arm64.tag(), "arm64");
        assert_eq!(Platform::all().len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any reference built from sane components survives a
        /// canonicalise → parse round trip.
        #[test]
        fn reference_round_trip(
            host_has_dot in any::<bool>(),
            repo in "[a-z][a-z0-9-]{0,12}(/[a-z][a-z0-9-]{0,12})?",
            tag in "[a-z0-9][a-z0-9._-]{0,12}"
        ) {
            let host = if host_has_dot { "registry.example.com" } else { "docker.io" };
            let r = Reference::new(host, &repo, &tag);
            let parsed: Reference = r.canonical().parse().expect("canonical form parses");
            prop_assert_eq!(parsed, r);
        }
    }
}
