//! Capacity-bounded LRU model of **switching-key residency** for the
//! multi-tenant serving loop.
//!
//! Switching keys are the dominant memory object of CKKS serving: one
//! hybrid key at Set-D top level is hundreds of megabytes
//! (`cross_ckks::costs::switching_key_bytes`), and a server holding
//! a relin key plus a rotation key per step for *every* tenant cannot
//! keep them all chip-resident. This module models that budget the
//! same way the cost model treats everything else — in modeled
//! seconds, not host allocations:
//!
//! * every keyed [`crate::sched::FusedBatch`] names the one switching
//!   key its ops share ([`KeyRef`], tenant-qualified by the serving
//!   loop);
//! * before executing the batch, the loop `touch`es that key. A
//!   **hit** adds no charge of its own, but it is not free: every
//!   keyed op already pays, inside `charge_op_pod`, each core's HBM
//!   read of its limb shard of the key *and* an ICI scatter of the
//!   whole key (about 216 µs of a 733 µs Set D HE-Mult on v6e-8), as
//!   if no core held it. A **miss** additionally bills the re-admission
//!   ([`cross_ckks::costs::key_admit_s`]: an HBM DMA of the whole key
//!   plus the same scatter again) onto the dispatch's modeled wall
//!   clock and admits the key, evicting least-recently-used keys until
//!   the configured byte capacity holds. So a resident key is billed
//!   the interconnect on every op and a missed one twice; ROADMAP
//!   item 14 owns making residency save that traffic.
//!
//! The cache is a *residency model*: the functional executor always
//! replays against host-resident key material, so eviction can never
//! corrupt a result — it only makes the modeled schedule honestly
//! slower for tenants whose keys went cold. Bit-exactness across
//! evictions and re-admissions is pinned by `tests/serve_tenants.rs`.

use crate::queue::TenantId;
use cross_ckks::costs;
use cross_tpu::TpuGeneration;
use std::collections::BTreeMap;

/// Which switching key an op (or a whole fused batch — members share
/// it by construction) loads. Tenant-qualified at the cache boundary:
/// two tenants' `Relin` keys are distinct cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyRef {
    /// The relinearization/key-switching key (`Mult`, standalone
    /// `KeySwitch`, `Bootstrap`).
    Relin,
    /// The rotation key for this step count (`Rotate`,
    /// `HoistedRotate`).
    Rotation(usize),
}

/// Lifetime counters of a [`KeyCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyCacheStats {
    /// Touches that found the key resident.
    pub hits: u64,
    /// Touches that had to (re-)admit the key.
    pub misses: u64,
    /// Keys evicted to make room.
    pub evictions: u64,
    /// Total modeled re-admission seconds billed across all misses.
    pub admit_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: f64,
    last_used: u64,
}

/// LRU cache of `(tenant, key)` residency under a byte capacity, with
/// memoized re-admission cost probes.
#[derive(Debug, Clone)]
pub struct KeyCache {
    gen: TpuGeneration,
    cores: u32,
    capacity_bytes: f64,
    entries: BTreeMap<(TenantId, KeyRef), Entry>,
    resident_bytes: f64,
    clock: u64,
    stats: KeyCacheStats,
    /// `key_admit_s` probes memoized by byte size (the charge is pure
    /// and levels repeat, so the probe pod is built a handful of times
    /// regardless of traffic volume).
    admit_memo: BTreeMap<u64, f64>,
}

impl KeyCache {
    /// A cache of `capacity_bytes` of key residency on a
    /// `cores`-core pod of `gen` (the pod shape sets the miss cost).
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is not strictly positive.
    pub(crate) fn new(gen: TpuGeneration, cores: u32, capacity_bytes: f64) -> Self {
        assert!(capacity_bytes > 0.0, "key cache capacity must be positive");
        Self {
            gen,
            cores,
            capacity_bytes,
            entries: BTreeMap::new(),
            resident_bytes: 0.0,
            clock: 0,
            stats: KeyCacheStats::default(),
            admit_memo: BTreeMap::new(),
        }
    }

    /// Marks `(tenant, key)` used ahead of a keyed dispatch and
    /// returns the modeled seconds the touch costs: `0.0` on a hit;
    /// on a miss, the re-admission charge
    /// ([`cross_ckks::costs::key_admit_s`] for `bytes` of key
    /// material) after evicting least-recently-used keys until the
    /// capacity holds. A key larger than the whole capacity still
    /// admits (alone) — the server never refuses to serve, it just
    /// pays the miss on every touch.
    pub(crate) fn touch(&mut self, tenant: TenantId, key: KeyRef, bytes: f64) -> f64 {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&(tenant, key)) {
            e.last_used = self.clock;
            self.stats.hits += 1;
            return 0.0;
        }
        while !self.entries.is_empty() && self.resident_bytes + bytes > self.capacity_bytes {
            let coldest = *self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
                .expect("non-empty");
            let evicted = self.entries.remove(&coldest).expect("present");
            self.resident_bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
        self.entries.insert(
            (tenant, key),
            Entry {
                bytes,
                last_used: self.clock,
            },
        );
        self.resident_bytes += bytes;
        let (gen, cores) = (self.gen, self.cores);
        let admit = *self
            .admit_memo
            .entry(bytes.to_bits())
            .or_insert_with(|| costs::key_admit_s(gen, cores, bytes));
        self.stats.misses += 1;
        self.stats.admit_s += admit;
        admit
    }

    /// Whether `(tenant, key)` is currently resident.
    #[cfg(test)]
    pub(crate) fn contains(&self, tenant: TenantId, key: KeyRef) -> bool {
        self.entries.contains_key(&(tenant, key))
    }

    /// Resident fraction of capacity, in `[0, 1]` except for the
    /// single-oversized-key case [`touch`](Self::touch) documents.
    pub(crate) fn occupancy(&self) -> f64 {
        self.resident_bytes / self.capacity_bytes
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> KeyCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: f64 = 100.0;

    fn cache(capacity: f64) -> KeyCache {
        KeyCache::new(TpuGeneration::V6e, 4, capacity)
    }

    #[test]
    fn hit_after_admit_is_free() {
        let mut c = cache(KEY * 4.0);
        let miss = c.touch(1, KeyRef::Relin, KEY);
        assert!(miss > 0.0, "first touch pays admission");
        let hit = c.touch(1, KeyRef::Relin, KEY);
        assert_eq!(hit, 0.0, "resident key costs nothing");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().admit_s - miss).abs() < 1e-18);
    }

    #[test]
    fn admit_cost_is_deterministic_and_memoized() {
        let mut c = cache(KEY); // every touch of a new key evicts
        let a = c.touch(1, KeyRef::Relin, KEY);
        let b = c.touch(2, KeyRef::Relin, KEY);
        let a2 = c.touch(1, KeyRef::Relin, KEY);
        assert_eq!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn capacity_bound_holds_under_many_tenants() {
        let mut c = cache(KEY * 3.0);
        for tenant in 0..32 {
            c.touch(tenant, KeyRef::Relin, KEY);
            c.touch(tenant, KeyRef::Rotation(1), KEY);
            assert!(c.resident_bytes <= c.capacity_bytes);
            assert!(c.occupancy() <= 1.0);
        }
        assert_eq!(c.entries.len(), 3);
        assert_eq!(c.stats().evictions, 64 - 3);
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let mut c = cache(KEY * 2.0);
        c.touch(1, KeyRef::Relin, KEY);
        c.touch(2, KeyRef::Relin, KEY);
        c.touch(1, KeyRef::Relin, KEY); // warm tenant 1 again
        c.touch(3, KeyRef::Relin, KEY); // must displace tenant 2
        assert!(c.contains(1, KeyRef::Relin));
        assert!(!c.contains(2, KeyRef::Relin));
        assert!(c.contains(3, KeyRef::Relin));
    }

    #[test]
    fn oversized_key_admits_alone() {
        let mut c = cache(KEY);
        c.touch(1, KeyRef::Relin, KEY / 2.0);
        let s = c.touch(1, KeyRef::Rotation(1), KEY * 10.0);
        assert!(s > 0.0);
        assert_eq!(c.entries.len(), 1, "everything else evicted");
        assert!(c.contains(1, KeyRef::Rotation(1)));
    }
}
