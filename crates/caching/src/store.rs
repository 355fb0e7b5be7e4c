//! Per-node cache stores.

use std::collections::HashMap;

use omn_sim::{SimDuration, SimTime};

use crate::item::{DataItem, DataItemId};
use crate::policy::{CachePolicy, VictimCandidate};

/// One cached copy of a data item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// The cached item id.
    pub item: DataItemId,
    /// Version number held (source versions start at 0 and increment per
    /// refresh).
    pub version: u64,
    /// When this copy (of this version) was obtained.
    pub fetched_at: SimTime,
    /// Last read.
    pub last_access: SimTime,
    /// Read count.
    pub access_count: u64,
}

/// A bounded per-node cache with pluggable replacement.
#[derive(Debug)]
pub struct CacheStore {
    capacity: usize,
    entries: HashMap<DataItemId, CacheEntry>,
    evictions: u64,
}

impl CacheStore {
    /// Creates a cache holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> CacheStore {
        assert!(capacity > 0, "CacheStore: zero capacity");
        CacheStore {
            capacity,
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    /// Number of cached items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The configured capacity (maximum items held at once).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if a copy of `item` is cached.
    #[must_use]
    pub fn contains(&self, item: DataItemId) -> bool {
        self.entries.contains_key(&item)
    }

    /// The entry for `item`, without touching access statistics.
    #[must_use]
    pub fn peek(&self, item: DataItemId) -> Option<&CacheEntry> {
        self.entries.get(&item)
    }

    /// Reads `item` at `now`, updating access statistics.
    pub fn access(&mut self, item: DataItemId, now: SimTime) -> Option<&CacheEntry> {
        let e = self.entries.get_mut(&item)?;
        e.last_access = now;
        e.access_count += 1;
        Some(e)
    }

    /// Inserts (or refreshes) a copy of `item` with the given version.
    ///
    /// If the item is already cached, the entry is updated in place when the
    /// incoming version is newer (keeping access statistics), and ignored
    /// otherwise. If the cache is full, `policy` selects a victim.
    /// Returns `true` if the copy was stored or refreshed.
    pub fn put<P: CachePolicy + ?Sized>(
        &mut self,
        item: &DataItem,
        version: u64,
        now: SimTime,
        policy: &P,
    ) -> bool {
        if let Some(existing) = self.entries.get_mut(&item.id()) {
            if version > existing.version {
                existing.version = version;
                existing.fetched_at = now;
                return true;
            }
            return false;
        }
        if self.entries.len() >= self.capacity {
            let candidates: Vec<VictimCandidate> = self
                .sorted_entries()
                .iter()
                .map(|e| VictimCandidate {
                    item: e.item,
                    last_access: e.last_access,
                    access_count: e.access_count,
                })
                .collect();
            let victim = candidates[policy.victim(&candidates, now)].item;
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            item.id(),
            CacheEntry {
                item: item.id(),
                version,
                fetched_at: now,
                last_access: now,
                access_count: 0,
            },
        );
        true
    }

    /// Removes the copy of `item`, if cached.
    pub fn remove(&mut self, item: DataItemId) -> Option<CacheEntry> {
        self.entries.remove(&item)
    }

    /// Refreshes an already-cached copy of `item` in place to `version`
    /// (stamping `fetched_at`), without inserting, evicting, or touching
    /// access statistics. A node that never cached the item does not gain a
    /// copy, which is what distinguishes this from [`CacheStore::put`].
    /// Returns `true` if the entry existed and held an older version.
    pub fn refresh(&mut self, item: DataItemId, version: u64, now: SimTime) -> bool {
        match self.entries.get_mut(&item) {
            Some(e) if version > e.version => {
                e.version = version;
                e.fetched_at = now;
                true
            }
            _ => false,
        }
    }

    /// Drops copies older than their item lifetime; `lifetime_of` maps an
    /// item to its lifetime. Returns the number dropped.
    pub fn purge_expired<F>(&mut self, now: SimTime, lifetime_of: F) -> usize
    where
        F: Fn(DataItemId) -> SimDuration,
    {
        let before = self.entries.len();
        self.entries
            .retain(|&id, e| now.saturating_since(e.fetched_at) <= lifetime_of(id));
        before - self.entries.len()
    }

    /// Entries in item-id order (deterministic iteration for protocols).
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<CacheEntry> {
        let mut es: Vec<CacheEntry> = self.entries.values().copied().collect();
        es.sort_by_key(|e| e.item);
        es
    }

    /// Total evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Ewma, Lru};
    use omn_contacts::NodeId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn item(id: u32) -> DataItem {
        DataItem::new(
            DataItemId(id),
            NodeId(0),
            100,
            SimDuration::from_secs(60.0),
            SimDuration::from_secs(120.0),
        )
    }

    #[test]
    fn put_and_access() {
        let mut s = CacheStore::new(4);
        assert!(s.put(&item(1), 0, t(0.0), &Lru));
        assert!(s.contains(DataItemId(1)));
        let e = s.access(DataItemId(1), t(5.0)).unwrap();
        assert_eq!(e.access_count, 1);
        assert_eq!(e.last_access, t(5.0));
        assert!(s.access(DataItemId(9), t(5.0)).is_none());
    }

    #[test]
    fn newer_version_refreshes_in_place() {
        let mut s = CacheStore::new(4);
        s.put(&item(1), 0, t(0.0), &Lru);
        s.access(DataItemId(1), t(1.0));
        assert!(s.put(&item(1), 2, t(10.0), &Lru));
        let e = s.peek(DataItemId(1)).unwrap();
        assert_eq!(e.version, 2);
        assert_eq!(e.fetched_at, t(10.0));
        assert_eq!(e.access_count, 1, "stats preserved");
        // Older or equal version ignored.
        assert!(!s.put(&item(1), 1, t(20.0), &Lru));
        assert_eq!(s.peek(DataItemId(1)).unwrap().version, 2);
    }

    #[test]
    fn eviction_uses_policy() {
        let mut s = CacheStore::new(2);
        s.put(&item(1), 0, t(0.0), &Lru);
        s.put(&item(2), 0, t(1.0), &Lru);
        s.access(DataItemId(1), t(5.0)); // 2 becomes LRU
        s.put(&item(3), 0, t(10.0), &Lru);
        assert!(s.contains(DataItemId(1)));
        assert!(!s.contains(DataItemId(2)));
        assert!(s.contains(DataItemId(3)));
        assert_eq!(s.evictions(), 1);
    }

    /// A near-infinite EWMA decay scale ranks by access count alone.
    #[test]
    fn lfu_policy_in_store() {
        let by_count = Ewma::new(SimDuration::from_secs(1e12));
        let mut s = CacheStore::new(2);
        s.put(&item(1), 0, t(0.0), &by_count);
        s.put(&item(2), 0, t(1.0), &by_count);
        s.access(DataItemId(2), t(2.0));
        s.access(DataItemId(2), t(3.0));
        s.access(DataItemId(1), t(4.0));
        s.put(&item(3), 0, t(10.0), &by_count);
        assert!(!s.contains(DataItemId(1)), "item 1 had fewer accesses");
        assert!(s.contains(DataItemId(2)));
    }

    #[test]
    fn purge_expired() {
        let mut s = CacheStore::new(4);
        s.put(&item(1), 0, t(0.0), &Lru);
        s.put(&item(2), 0, t(100.0), &Lru);
        let dropped = s.purge_expired(t(130.0), |_| SimDuration::from_secs(120.0));
        assert_eq!(dropped, 1);
        assert!(!s.contains(DataItemId(1)));
        assert!(s.contains(DataItemId(2)));
    }

    #[test]
    fn sorted_entries_order() {
        let mut s = CacheStore::new(4);
        for id in [3u32, 1, 2] {
            s.put(&item(id), 0, t(0.0), &Lru);
        }
        let ids: Vec<u32> = s.sorted_entries().iter().map(|e| e.item.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
