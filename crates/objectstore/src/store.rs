//! Buckets and objects: the S3 surface used by the regional registry.
//!
//! The store enforces a capacity quota — the paper notes the regional
//! MinIO registry is "provisioned on a local server with a specific
//! storage capacity according to the user's requirements (e.g., 100 GB)".

use bytes::Bytes;
use deep_netsim::DataSize;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Errors from bucket/object operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Bucket already exists.
    BucketExists(String),
    /// Bucket not found.
    NoSuchBucket(String),
    /// Object key not found.
    NoSuchKey(String),
    /// The put would exceed the store's provisioned capacity.
    QuotaExceeded { requested: u64, available: u64 },
    /// Bucket still contains objects.
    BucketNotEmpty(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BucketExists(b) => write!(f, "bucket {b:?} already exists"),
            StoreError::NoSuchBucket(b) => write!(f, "no such bucket {b:?}"),
            StoreError::NoSuchKey(k) => write!(f, "no such key {k:?}"),
            StoreError::QuotaExceeded { requested, available } => {
                write!(f, "quota exceeded: requested {requested} B, available {available} B")
            }
            StoreError::BucketNotEmpty(b) => write!(f, "bucket {b:?} is not empty"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Metadata returned by stat/list operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    pub key: String,
    pub size: DataSize,
}

/// One S3 bucket: an ordered key → object body map.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    objects: BTreeMap<String, Bytes>,
}

impl Bucket {
    /// The objects whose keys start with `prefix`, in key order, as
    /// `(key, size)` pairs borrowed from the bucket: a listing that copies
    /// no key.
    pub fn list<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, DataSize)> + 'a {
        self.objects
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(key, _)| key.starts_with(prefix))
            .map(|(key, body)| (key.as_str(), DataSize::bytes(body.len() as u64)))
    }

    /// The keys of [`Bucket::list`].
    pub fn keys<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.list(prefix).map(|(key, _)| key)
    }
}

/// The MinIO-like store: named buckets under a global capacity quota.
/// Cloning shares the underlying storage (like handles to one server).
#[derive(Debug, Clone)]
pub struct ObjectStore {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug, Clone)]
struct Inner {
    /// Each bucket is shared copy-on-write with every fork of the store:
    /// writes reach it through [`Arc::make_mut`], which copies the bucket
    /// first while a fork still holds it.
    buckets: BTreeMap<String, Arc<Bucket>>,
    capacity: DataSize,
    /// Bytes stored across all buckets, kept current by every put and
    /// delete so quota checks never walk the objects.
    used: u64,
}

impl ObjectStore {
    /// A store provisioned with `capacity` bytes (e.g. the paper's 100 GB).
    pub fn with_capacity(capacity: DataSize) -> Self {
        let inner = Inner { buckets: BTreeMap::new(), capacity, used: 0 };
        ObjectStore { inner: Arc::new(RwLock::new(inner)) }
    }

    /// The paper's example provisioning: 100 GB.
    pub fn paper_default() -> Self {
        Self::with_capacity(DataSize::gigabytes(100.0))
    }

    /// An independent copy of the store's current state. Unlike
    /// [`Clone`] — which hands out another handle to the *same* server
    /// — the fork has its own buckets: mutations on either side are
    /// invisible to the other. The buckets are shared copy-on-write, so
    /// a fork costs one reference count per bucket; the first write to a
    /// shared bucket on either side copies that bucket's key map (object
    /// bodies are refcounted [`Bytes`] and are never copied). This is
    /// what lets a soak harness stamp out per-replication registries
    /// from one built prototype.
    pub fn fork(&self) -> ObjectStore {
        ObjectStore { inner: Arc::new(RwLock::new(self.inner.read().clone())) }
    }

    /// Provisioned capacity.
    pub fn capacity(&self) -> DataSize {
        self.inner.read().capacity
    }

    /// Bytes currently stored across all buckets.
    pub fn used(&self) -> DataSize {
        DataSize::bytes(self.inner.read().used)
    }

    /// Remaining quota.
    pub fn available(&self) -> DataSize {
        self.capacity().saturating_sub(self.used())
    }

    /// Create a bucket.
    pub fn create_bucket(&self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        if inner.buckets.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_string()));
        }
        inner.buckets.insert(name.to_string(), Arc::default());
        Ok(())
    }

    /// Delete an empty bucket.
    pub fn delete_bucket(&self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        match inner.buckets.get(name) {
            None => Err(StoreError::NoSuchBucket(name.to_string())),
            Some(b) if !b.objects.is_empty() => Err(StoreError::BucketNotEmpty(name.to_string())),
            Some(_) => {
                inner.buckets.remove(name);
                Ok(())
            }
        }
    }

    /// List bucket names.
    pub fn list_buckets(&self) -> Vec<String> {
        self.inner.read().buckets.keys().cloned().collect()
    }

    /// Put an object, replacing any existing value under the key. The
    /// quota check accounts for the bytes freed by the replacement.
    pub fn put_object(
        &self,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.inner.write();
        let Inner { buckets, capacity, used } = &mut *inner;
        let b =
            buckets.get_mut(bucket).ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        let replaced = b.objects.get(key).map_or(0, |o| o.len() as u64);
        let kept = *used - replaced;
        let capacity = capacity.as_bytes();
        if kept + data.len() as u64 > capacity {
            return Err(StoreError::QuotaExceeded {
                requested: data.len() as u64,
                available: capacity.saturating_sub(kept),
            });
        }
        *used = kept + data.len() as u64;
        let size = DataSize::bytes(data.len() as u64);
        Arc::make_mut(b).objects.insert(key.to_string(), data);
        Ok(ObjectMeta { key: key.to_string(), size })
    }

    /// Get an object's bytes.
    pub fn get_object(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        let inner = self.inner.read();
        let b = inner
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        b.objects.get(key).cloned().ok_or_else(|| StoreError::NoSuchKey(key.to_string()))
    }

    /// Stat an object.
    pub fn head_object(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let inner = self.inner.read();
        let b = inner
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        b.objects
            .get(key)
            .map(|o| ObjectMeta { key: key.to_string(), size: DataSize::bytes(o.len() as u64) })
            .ok_or_else(|| StoreError::NoSuchKey(key.to_string()))
    }

    /// Whether `bucket` holds `key`: [`ObjectStore::head_object`]`.is_ok()`
    /// without building an [`ObjectMeta`] (no allocation), for callers
    /// that only test presence.
    pub fn contains_object(&self, bucket: &str, key: &str) -> bool {
        self.inner.read().buckets.get(bucket).is_some_and(|b| b.objects.contains_key(key))
    }

    /// Delete an object.
    pub fn delete_object(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let Inner { buckets, used, .. } = &mut *inner;
        let b =
            buckets.get_mut(bucket).ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        // Look up before `make_mut`: a miss must not copy a shared bucket.
        let Some(size) = b.objects.get(key).map(|o| o.len() as u64) else {
            return Err(StoreError::NoSuchKey(key.to_string()));
        };
        Arc::make_mut(b).objects.remove(key);
        *used -= size;
        Ok(())
    }

    /// List objects in a bucket with an optional key prefix, in key order.
    pub fn list_objects(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        let inner = self.inner.read();
        let b = inner
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        Ok(b.list(prefix).map(|(key, size)| ObjectMeta { key: key.to_string(), size }).collect())
    }

    /// A point-in-time view of one bucket, for listings that borrow their
    /// keys ([`Bucket::keys`]) instead of copying each into an
    /// [`ObjectMeta`]. The view shares the bucket copy-on-write, like a
    /// fork does: later writes never reach it, and a write to the bucket
    /// while the view is alive copies the bucket's key map first, so drop
    /// the view before writing.
    pub fn bucket_snapshot(&self, bucket: &str) -> Result<Arc<Bucket>, StoreError> {
        let inner = self.inner.read();
        inner
            .buckets
            .get(bucket)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        let s = ObjectStore::with_capacity(DataSize::megabytes(1.0));
        s.create_bucket("images").unwrap();
        s
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        let meta = s.put_object("images", "layer/abc", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(meta.size, DataSize::bytes(5));
        assert_eq!(s.get_object("images", "layer/abc").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.head_object("images", "layer/abc").unwrap(), meta);
    }

    #[test]
    fn quota_enforced_and_replacement_credited() {
        let s = ObjectStore::with_capacity(DataSize::bytes(10));
        s.create_bucket("b").unwrap();
        s.put_object("b", "x", Bytes::from_static(b"12345678")).unwrap();
        // 8 used; a 3-byte new object exceeds capacity 10.
        let err = s.put_object("b", "y", Bytes::from_static(b"abc")).unwrap_err();
        assert!(matches!(err, StoreError::QuotaExceeded { .. }));
        // Replacing x with 10 bytes is fine: 8 freed, 10 used.
        s.put_object("b", "x", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(s.used(), DataSize::bytes(10));
        assert_eq!(s.available(), DataSize::ZERO);
    }

    #[test]
    fn missing_bucket_and_key_errors() {
        let s = store();
        assert_eq!(s.get_object("nope", "k").unwrap_err(), StoreError::NoSuchBucket("nope".into()));
        assert_eq!(s.get_object("images", "k").unwrap_err(), StoreError::NoSuchKey("k".into()));
        assert_eq!(s.delete_object("images", "k").unwrap_err(), StoreError::NoSuchKey("k".into()));
    }

    #[test]
    fn bucket_lifecycle() {
        let s = store();
        assert_eq!(
            s.create_bucket("images").unwrap_err(),
            StoreError::BucketExists("images".into())
        );
        s.put_object("images", "k", Bytes::from_static(b"data")).unwrap();
        assert_eq!(
            s.delete_bucket("images").unwrap_err(),
            StoreError::BucketNotEmpty("images".into())
        );
        s.delete_object("images", "k").unwrap();
        s.delete_bucket("images").unwrap();
        assert!(s.list_buckets().is_empty());
    }

    #[test]
    fn prefix_listing_is_ordered() {
        let s = store();
        for key in ["blobs/sha256/cc", "blobs/sha256/aa", "manifests/v1", "blobs/sha256/bb"] {
            s.put_object("images", key, Bytes::from_static(b"x")).unwrap();
        }
        let listed = s.list_objects("images", "blobs/").unwrap();
        let keys: Vec<&str> = listed.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys, vec!["blobs/sha256/aa", "blobs/sha256/bb", "blobs/sha256/cc"]);
        assert_eq!(s.list_objects("images", "zzz").unwrap().len(), 0);
        let view = s.bucket_snapshot("images").unwrap();
        assert_eq!(view.keys("blobs/").collect::<Vec<_>>(), keys);
        assert_eq!(view.keys("zzz").count(), 0);
        // The view is a snapshot: later writes never reach it.
        s.put_object("images", "blobs/sha256/dd", Bytes::from_static(b"x")).unwrap();
        assert_eq!(view.keys("blobs/").count(), 3);
        assert!(matches!(s.bucket_snapshot("nope"), Err(StoreError::NoSuchBucket(_))));
    }

    #[test]
    fn clones_share_state() {
        let s = store();
        let s2 = s.clone();
        s.put_object("images", "shared", Bytes::from_static(b"1")).unwrap();
        assert!(s2.get_object("images", "shared").is_ok());
    }

    #[test]
    fn usage_accounting() {
        let s = store();
        assert_eq!(s.used(), DataSize::ZERO);
        s.put_object("images", "a", Bytes::from(vec![0u8; 1000])).unwrap();
        s.put_object("images", "b", Bytes::from(vec![0u8; 500])).unwrap();
        assert_eq!(s.used(), DataSize::bytes(1500));
        s.delete_object("images", "a").unwrap();
        assert_eq!(s.used(), DataSize::bytes(500));
    }

    /// Every object of every bucket as `(bucket, key, bytes)`.
    fn snapshot(s: &ObjectStore) -> Vec<(String, String, Bytes)> {
        let mut out = Vec::new();
        for bucket in s.list_buckets() {
            for meta in s.list_objects(&bucket, "").unwrap() {
                let data = s.get_object(&bucket, &meta.key).unwrap();
                out.push((bucket.clone(), meta.key, data));
            }
        }
        out
    }

    #[test]
    fn fork_writes_stay_on_the_fork() {
        let source = store();
        source.create_bucket("blobs").unwrap();
        for (bucket, key) in [("images", "a"), ("images", "b"), ("blobs", "c")] {
            source.put_object(bucket, key, Bytes::from(format!("{bucket}/{key}"))).unwrap();
        }
        let before = snapshot(&source);
        let fork = source.fork();
        let sibling = source.fork();
        fork.put_object("images", "a", Bytes::from_static(b"rewritten")).unwrap();
        fork.put_object("images", "new", Bytes::from_static(b"added")).unwrap();
        fork.delete_object("blobs", "c").unwrap();
        assert_eq!(snapshot(&source), before);
        assert_eq!(snapshot(&sibling), before);
        assert_eq!(source.used(), sibling.used());
        assert_ne!(snapshot(&fork), before);
        // And the other way round: the source's writes miss both forks.
        let fork_state = snapshot(&fork);
        source.delete_object("images", "b").unwrap();
        assert_eq!(snapshot(&fork), fork_state);
        assert_eq!(snapshot(&sibling), before);
    }

    /// Reference model of one store: `(bucket, key) → bytes`, with usage
    /// and quota recomputed from scratch on every call.
    #[derive(Clone)]
    struct Model {
        buckets: Vec<String>,
        objects: BTreeMap<(String, String), Vec<u8>>,
        capacity: u64,
    }

    impl Model {
        fn used(&self) -> u64 {
            self.objects.values().map(|v| v.len() as u64).sum()
        }

        fn put(&mut self, bucket: &str, key: &str, data: &[u8]) -> Result<(), StoreError> {
            if !self.buckets.iter().any(|b| b == bucket) {
                return Err(StoreError::NoSuchBucket(bucket.to_string()));
            }
            let id = (bucket.to_string(), key.to_string());
            let kept = self.used() - self.objects.get(&id).map_or(0, |v| v.len() as u64);
            if kept + data.len() as u64 > self.capacity {
                return Err(StoreError::QuotaExceeded {
                    requested: data.len() as u64,
                    available: self.capacity.saturating_sub(kept),
                });
            }
            self.objects.insert(id, data.to_vec());
            Ok(())
        }

        /// `bucket`'s keys under `prefix` with their sizes, in key order.
        fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<(String, DataSize)>, StoreError> {
            if !self.buckets.iter().any(|b| b == bucket) {
                return Err(StoreError::NoSuchBucket(bucket.to_string()));
            }
            Ok(self
                .objects
                .iter()
                .filter(|((b, k), _)| b == bucket && k.starts_with(prefix))
                .map(|((_, k), v)| (k.clone(), DataSize::bytes(v.len() as u64)))
                .collect())
        }

        fn delete(&mut self, bucket: &str, key: &str) -> Result<(), StoreError> {
            if !self.buckets.iter().any(|b| b == bucket) {
                return Err(StoreError::NoSuchBucket(bucket.to_string()));
            }
            match self.objects.remove(&(bucket.to_string(), key.to_string())) {
                Some(_) => Ok(()),
                None => Err(StoreError::NoSuchKey(key.to_string())),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random put / replace / delete / fork sequences: every store's
        /// running `used()` equals a recomputed sum, every outcome (quota
        /// errors included) equals the reference model's, every store
        /// holds exactly its model's objects, `list_objects` lists its
        /// model's keys and sizes in key order, and `contains_object`
        /// answers `head_object(..).is_ok()` for every key.
        #[test]
        fn running_usage_matches_a_recomputed_reference(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..160),
        ) {
            const BUCKETS: [&str; 3] = ["a", "b", "missing"];
            let root = ObjectStore::with_capacity(DataSize::bytes(96));
            root.create_bucket("a").unwrap();
            root.create_bucket("b").unwrap();
            let model = Model {
                buckets: vec!["a".into(), "b".into()],
                objects: BTreeMap::new(),
                capacity: 96,
            };
            let mut stores = vec![(root, model)];
            for op in ops {
                let target = (op >> 8) as usize % stores.len();
                let bucket = BUCKETS[(op >> 16) as usize % 7 / 3];
                let key = format!("k{}", (op >> 24) % 6);
                match op % 8 {
                    0..=4 => {
                        let len = (op >> 32) as usize % 40;
                        let data = vec![(op >> 40) as u8; len];
                        let (s, m) = &mut stores[target];
                        let got = s.put_object(bucket, &key, Bytes::from(data.clone())).map(|_| ());
                        proptest::prop_assert_eq!(got, m.put(bucket, &key, &data));
                    }
                    5 | 6 => {
                        let (s, m) = &mut stores[target];
                        proptest::prop_assert_eq!(s.delete_object(bucket, &key), m.delete(bucket, &key));
                    }
                    _ => {
                        let (s, m) = &stores[target];
                        let fork = (s.fork(), m.clone());
                        stores.push(fork);
                    }
                }
                for (s, m) in &stores {
                    proptest::prop_assert_eq!(s.used(), DataSize::bytes(m.used()));
                    for bucket in BUCKETS {
                        for k in 0..6 {
                            let key = format!("k{k}");
                            proptest::prop_assert_eq!(
                                s.contains_object(bucket, &key),
                                s.head_object(bucket, &key).is_ok()
                            );
                            proptest::prop_assert_eq!(
                                s.contains_object(bucket, &key),
                                m.objects.contains_key(&(bucket.to_string(), key))
                            );
                        }
                    }
                    for bucket in BUCKETS {
                        for prefix in ["", "k3"] {
                            let listed = s.list_objects(bucket, prefix).map(|metas| {
                                metas.into_iter().map(|o| (o.key, o.size)).collect::<Vec<_>>()
                            });
                            proptest::prop_assert_eq!(listed, m.list(bucket, prefix));
                        }
                    }
                    let held: BTreeMap<(String, String), Vec<u8>> = snapshot(s)
                        .into_iter()
                        .map(|(b, k, data)| ((b, k), data.to_vec()))
                        .collect();
                    proptest::prop_assert_eq!(&held, &m.objects);
                }
            }
        }
    }
}
