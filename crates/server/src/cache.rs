//! Bounded LRU cache of built [`CoreCells`](dbscan_core::CoreCells)
//! structures, keyed by `(dataset hash, n, dim, eps, min_pts)`.
//!
//! The grid + core-label structure is the expensive, parameter-dependent part
//! of every request; repeat queries over the same dataset and `(ε, MinPts)` —
//! including an exact query re-asked at some ρ, or a ρ sweep — skip the
//! rebuild entirely. Entries are type-erased (`Arc<dyn Any>`) because the
//! dimensionality is a const generic; the monomorphized job runner downcasts.
//! Memory is bounded by evicting least-recently-used entries until the new
//! entry fits; a single entry larger than the whole budget is simply not
//! cached (a hot tenant cannot blow the budget).
//!
//! The `data_hash` key component, the job's dataset hash
//! ([`fnv1a_f64s`](dbscan_core::hash::fnv1a_f64s)), is *non-cryptographic*, so an
//! adversarial tenant could engineer a colliding key and try to have its
//! structure served for another tenant's dataset. Every entry therefore
//! retains the full flattened coordinates it was built from, and a hit
//! requires the stored data to match the request's data exactly — a key
//! collision with different data is counted in `collisions` and treated as a
//! miss (and an insert under a colliding key replaces the stale entry), never
//! served cross-tenant.

use std::any::Any;
use std::sync::Arc;

/// Cache key. `eps` is keyed by bit pattern: params are compared exactly, not
/// by epsilon-tolerance — a different `eps` is a different structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheKey {
    pub data_hash: u64,
    pub n: usize,
    pub dim: usize,
    pub eps_bits: u64,
    pub min_pts: usize,
}

struct Entry {
    key: CacheKey,
    /// The exact flattened coordinates the structure was built from; compared
    /// on every hit so a hash collision can never serve cross-tenant data.
    points: Arc<Vec<f64>>,
    cells: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    last_used: u64,
}

/// Snapshot of the cache counters for the stats envelope.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Key matches whose stored data differed from the request's (engineered
    /// or accidental hash collisions); served as misses, never cross-tenant.
    pub collisions: u64,
    pub entries: usize,
    pub bytes: u64,
    pub budget_bytes: u64,
}

pub struct CellsCache {
    budget: u64,
    bytes: u64,
    clock: u64,
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl CellsCache {
    pub fn new(budget_bytes: u64) -> Self {
        CellsCache {
            budget: budget_bytes,
            bytes: 0,
            clock: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a verified hit. A hit
    /// requires both the key *and* the stored coordinates to match `points`
    /// exactly; a colliding key with different data is a miss. The linear
    /// scan is deliberate: entry counts are small (each entry is a whole
    /// built index).
    pub fn get(&mut self, key: &CacheKey, points: &[f64]) -> Option<Arc<dyn Any + Send + Sync>> {
        self.clock += 1;
        match self.entries.iter_mut().find(|e| e.key == *key) {
            Some(e) if e.points.as_slice() == points => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&e.cells))
            }
            Some(_) => {
                self.collisions += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a built structure (`cells_bytes` is its footprint; the
    /// retained verification copy of `points` is charged on top), evicting
    /// LRU entries until it fits. Re-inserting a key that already holds the
    /// same data is a no-op (two racing builders: first insert wins, both
    /// results are identical); a colliding key holding *different* data is
    /// replaced, so an engineered collision cannot pin the slot.
    pub fn insert(
        &mut self,
        key: CacheKey,
        points: Arc<Vec<f64>>,
        cells: Arc<dyn Any + Send + Sync>,
        cells_bytes: u64,
    ) {
        let bytes = cells_bytes + (points.len() * std::mem::size_of::<f64>()) as u64;
        if bytes > self.budget {
            return;
        }
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            if self.entries[i].points == points {
                return;
            }
            let stale = self.entries.swap_remove(i);
            self.bytes -= stale.bytes;
            self.evictions += 1;
        }
        while self.bytes + bytes > self.budget {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("bytes > 0 implies entries is non-empty");
            let evicted = self.entries.swap_remove(lru);
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.push(Entry {
            key,
            points,
            cells,
            bytes,
            last_used: self.clock,
        });
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            entries: self.entries.len(),
            bytes: self.bytes,
            budget_bytes: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            data_hash: tag,
            n: 10,
            dim: 2,
            eps_bits: 1.0f64.to_bits(),
            min_pts: 4,
        }
    }

    fn entry() -> Arc<dyn Any + Send + Sync> {
        Arc::new(42u32)
    }

    fn pts(tag: u64) -> Arc<Vec<f64>> {
        Arc::new(vec![tag as f64])
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let mut c = CellsCache::new(100);
        // Each entry charges 32 for the cells + 8 for its one retained f64.
        c.insert(key(1), pts(1), entry(), 32);
        c.insert(key(2), pts(2), entry(), 32);
        assert!(c.get(&key(1), &[1.0]).is_some()); // refresh 1: now 2 is LRU
        c.insert(key(3), pts(3), entry(), 32); // evicts 2
        assert!(c.get(&key(1), &[1.0]).is_some());
        assert!(c.get(&key(2), &[2.0]).is_none());
        assert!(c.get(&key(3), &[3.0]).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 80);
        assert!(s.bytes <= s.budget_bytes);
    }

    #[test]
    fn oversized_entries_are_never_cached() {
        let mut c = CellsCache::new(100);
        c.insert(key(1), pts(1), entry(), 101);
        assert_eq!(c.stats().entries, 0);
        assert!(c.get(&key(1), &[1.0]).is_none());
    }

    #[test]
    fn downcast_roundtrip() {
        let mut c = CellsCache::new(100);
        c.insert(
            key(1),
            pts(1),
            Arc::new(7u32) as Arc<dyn Any + Send + Sync>,
            4,
        );
        let got = c.get(&key(1), &[1.0]).unwrap().downcast::<u32>().unwrap();
        assert_eq!(*got, 7);
    }

    #[test]
    fn colliding_key_with_different_data_is_never_served() {
        let mut c = CellsCache::new(100);
        // Tenant A's structure, stored under key(1) with A's data.
        c.insert(
            key(1),
            pts(1),
            Arc::new(7u32) as Arc<dyn Any + Send + Sync>,
            4,
        );
        // Tenant B's request hashes to the same key but carries other data:
        // a verified miss, not A's structure.
        assert!(c.get(&key(1), &[2.0]).is_none());
        assert_eq!(c.stats().collisions, 1);
        // B's insert under the colliding key replaces A's stale entry ...
        c.insert(
            key(1),
            pts(2),
            Arc::new(9u32) as Arc<dyn Any + Send + Sync>,
            4,
        );
        assert_eq!(c.stats().entries, 1);
        let got = c.get(&key(1), &[2.0]).unwrap().downcast::<u32>().unwrap();
        assert_eq!(*got, 9);
        // ... while a same-data re-insert stays first-wins.
        c.insert(
            key(1),
            pts(2),
            Arc::new(11u32) as Arc<dyn Any + Send + Sync>,
            4,
        );
        let again = c.get(&key(1), &[2.0]).unwrap().downcast::<u32>().unwrap();
        assert_eq!(*again, 9);
    }
}
