//! Per-device layer cache with LRU eviction under a storage quota.
//!
//! A device that already holds a layer (from any earlier pull, of any
//! image, from either registry — layers are content-addressed) skips its
//! download. The paper's deployment-time term only charges for
//! "downloading a containerized microservice `m_i` of size `Size_mi` *not
//! already existing on a device*"; this cache is that mechanism.

use crate::digest::{Digest, DigestMap};
use deep_netsim::DataSize;

/// An LRU layer cache bounded by a byte quota (the device's image storage).
///
/// The cache holds digests, not layer bytes: an entry shares its
/// digest's hex with every manifest and peer view naming the layer (a
/// [`Digest`] clone is a reference count), and the table hashes it with
/// `crate::digest::DigestHasher`, so a pull's per-layer lookups and
/// inserts neither copy nor SipHash a digest.
#[derive(Debug, Clone)]
pub struct LayerCache {
    capacity: DataSize,
    used: DataSize,
    /// digest → (size, last-use tick).
    entries: DigestMap<(DataSize, u64)>,
    clock: u64,
}

impl LayerCache {
    /// A cache bounded by `capacity` bytes.
    pub fn new(capacity: DataSize) -> Self {
        LayerCache { capacity, used: DataSize::ZERO, entries: DigestMap::default(), clock: 0 }
    }

    /// Storage quota.
    pub fn capacity(&self) -> DataSize {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> DataSize {
        self.used
    }

    /// Number of cached layers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a layer is present (refreshes recency).
    pub(crate) fn touch(&mut self, digest: &Digest) -> bool {
        self.clock += 1;
        if let Some((_, tick)) = self.entries.get_mut(digest) {
            *tick = self.clock;
            true
        } else {
            false
        }
    }

    /// Presence check without recency side-effect.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.entries.contains_key(digest)
    }

    /// Iterate cached layer digests (arbitrary order, no recency
    /// side-effect) — the snapshot a peer-cache mesh source is built from.
    pub fn digests(&self) -> impl Iterator<Item = &Digest> {
        self.entries.keys()
    }

    /// Insert a layer, evicting least-recently-used layers as needed.
    ///
    /// Returns `false` (and caches nothing) when the layer alone exceeds
    /// the quota — the pull still works, Docker just can't keep the layer.
    pub fn insert(&mut self, digest: Digest, size: DataSize) -> bool {
        self.clock += 1;
        if size > self.capacity {
            return false;
        }
        if let Some((old, tick)) = self.entries.get_mut(&digest) {
            // Same digest, same content: refresh recency only.
            debug_assert_eq!(*old, size, "digest collision with different sizes");
            *tick = self.clock;
            return true;
        }
        while self.used + size > self.capacity {
            self.evict_lru();
        }
        self.used += size;
        self.entries.insert(digest, (size, self.clock));
        true
    }

    fn evict_lru(&mut self) -> Digest {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (_, tick))| *tick)
            .map(|(d, _)| d.clone())
            .expect("evict_lru called on non-empty cache");
        let (size, _) = self.entries.remove(&victim).expect("victim exists");
        self.used = self.used.saturating_sub(size);
        victim
    }

    /// Shrink usage to at most `keep` bytes by LRU eviction, returning
    /// the evicted digests (in eviction order). This is the
    /// cache-pressure chaos event: the caller must retract the victims'
    /// peer advertisements, since fleet peers may still believe this
    /// device holds them.
    pub fn evict_to(&mut self, keep: DataSize) -> Vec<Digest> {
        let mut evicted = Vec::new();
        while self.used > keep {
            evicted.push(self.evict_lru());
        }
        evicted
    }

    /// Drop everything (device reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = DataSize::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u32) -> Digest {
        Digest::of(&n.to_be_bytes())
    }

    fn mb(v: f64) -> DataSize {
        DataSize::megabytes(v)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = LayerCache::new(mb(100.0));
        assert!(c.insert(digest(1), mb(40.0)));
        assert!(c.contains(&digest(1)));
        assert!(!c.contains(&digest(2)));
        assert_eq!(c.used(), mb(40.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_insert_does_not_double_count() {
        let mut c = LayerCache::new(mb(100.0));
        c.insert(digest(1), mb(40.0));
        c.insert(digest(1), mb(40.0));
        assert_eq!(c.used(), mb(40.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LayerCache::new(mb(100.0));
        c.insert(digest(1), mb(40.0));
        c.insert(digest(2), mb(40.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.touch(&digest(1)));
        c.insert(digest(3), mb(40.0));
        assert!(c.contains(&digest(1)));
        assert!(!c.contains(&digest(2)), "LRU layer evicted");
        assert!(c.contains(&digest(3)));
        assert_eq!(c.used(), mb(80.0));
    }

    #[test]
    fn oversized_layer_rejected_without_eviction() {
        let mut c = LayerCache::new(mb(50.0));
        c.insert(digest(1), mb(30.0));
        assert!(!c.insert(digest(2), mb(60.0)));
        assert!(c.contains(&digest(1)), "existing content untouched");
        assert_eq!(c.used(), mb(30.0));
    }

    #[test]
    fn eviction_frees_exactly_enough() {
        let mut c = LayerCache::new(mb(100.0));
        c.insert(digest(1), mb(30.0));
        c.insert(digest(2), mb(30.0));
        c.insert(digest(3), mb(30.0));
        // 90 used; inserting 20 evicts only digest(1).
        c.insert(digest(4), mb(20.0));
        assert!(!c.contains(&digest(1)));
        assert!(c.contains(&digest(2)));
        assert_eq!(c.used(), mb(80.0));
    }

    #[test]
    fn touch_misses_report_false() {
        let mut c = LayerCache::new(mb(10.0));
        assert!(!c.touch(&digest(9)));
    }

    #[test]
    fn clear_resets() {
        let mut c = LayerCache::new(mb(10.0));
        c.insert(digest(1), mb(5.0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), DataSize::ZERO);
        assert_eq!(c.capacity(), mb(10.0));
    }

    #[test]
    fn evict_to_shrinks_lru_first_and_reports_victims() {
        let mut c = LayerCache::new(mb(100.0));
        c.insert(digest(1), mb(30.0));
        c.insert(digest(2), mb(30.0));
        c.insert(digest(3), mb(30.0));
        c.touch(&digest(1)); // 2 becomes the LRU victim
        let evicted = c.evict_to(mb(40.0));
        assert_eq!(evicted, vec![digest(2), digest(3)]);
        assert!(c.contains(&digest(1)));
        assert_eq!(c.used(), mb(30.0));
        // Already under the target: no-op.
        assert!(c.evict_to(mb(40.0)).is_empty());
    }

    #[test]
    fn exact_fit_requires_no_eviction() {
        let mut c = LayerCache::new(mb(100.0));
        c.insert(digest(1), mb(60.0));
        assert!(c.insert(digest(2), mb(40.0)));
        assert!(c.contains(&digest(1)) && c.contains(&digest(2)));
    }
}
