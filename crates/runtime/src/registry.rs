//! Remap-as-a-service: a sharded, LRU-bounded, runtime-wide registry of
//! compiled remap artifacts.
//!
//! Every [`crate::ArrayRt`] keeps a private plan cache, which is the
//! right *view* but the wrong *owner*: two arrays, two programs, or two
//! interpreter sessions bouncing over the same (src, dst) mapping pair
//! would compile the identical plan → caterpillar schedule →
//! [`crate::CopyProgram`] pipeline twice. The [`PlanRegistry`] owns
//! that pipeline once per distinct pair and serves shared
//! [`Arc<PlannedRemap>`]s to every client; per-array caches become thin
//! first-level views that seed from and publish to it.
//!
//! # Identity, not equality
//!
//! Entries are keyed by **mapping-pair identity**: the pointer of the
//! hash-consed [`hpfc_mapping::intern`] pair (plus the element size,
//! which the plan bakes into its schedule). Each entry's
//! `PlannedRemap` holds a strong reference to its pair, so a key
//! pointer can never dangle or be recycled while the entry lives; when
//! an entry is evicted and the last plan drops, the pair dies with it
//! and a later request re-interns and re-registers from scratch.
//!
//! # Concurrency and eviction
//!
//! The table is sharded by key hash; each shard is a `Mutex` around a
//! small map with LRU stamps. A miss computes the full pipeline
//! *under the shard lock*, so N sessions racing on one cold pair
//! produce exactly one `plans_computed` — the many-session harness
//! pins `plans_computed == distinct pairs`, not `× sessions`. Lookups
//! of a warm entry are allocation-free (stack-hashed key, in-place
//! probe, `Arc` clone out), preserving the zero-allocation cached
//! bounce pinned by the counting-allocator test.
//!
//! # Locks
//!
//! Shard state is a map of immutable `Arc`s, and a compile runs to
//! completion before its insert, so a thread that panics while holding
//! a shard lock leaves the map consistent. Every lock is taken through
//! one helper that accepts a poisoned guard
//! (`lock().unwrap_or_else(PoisonError::into_inner)`), so one crashed
//! session does not deny the registry to the others.
//!
//! # Configuration
//!
//! The process-wide instance behind [`PlanRegistry::global`] has 8
//! shards and room for 4096 entries. A machine that must not share
//! artifacts (a "solo" session, or a test pinning exact counters) is
//! handed a private [`PlanRegistry::new`] instead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

use hpfc_mapping::intern;
use hpfc_mapping::NormalizedMapping;

use crate::group::PlannedGroup;
use crate::redist::plan_redistribution;
use crate::status::PlannedRemap;

/// Lock shards of the process-wide registry.
const GLOBAL_SHARDS: usize = 8;
/// Entry capacity of the process-wide registry: far beyond any workload
/// in the repo, so eviction only happens when a registry is explicitly
/// built small (tests) or under true pressure.
const GLOBAL_CAP: usize = 4096;

/// What one registry access did, for the caller's [`crate::NetStats`]
/// bookkeeping (`registry_hits` / `registry_misses` /
/// `registry_evictions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryOutcome {
    /// The artifact was served from the registry (no compilation).
    pub hit: bool,
    /// How many LRU entries this access pushed out.
    pub evicted: u64,
}

/// Key of one entry: the interned pair's pointer (identity) plus the
/// element size the plan was computed for.
type PlanKey = (usize, u64);

struct Entry {
    planned: Arc<PlannedRemap>,
    /// LRU recency stamp from the owning shard's clock.
    stamp: u64,
}

struct Shard {
    map: HashMap<PlanKey, Entry>,
    clock: u64,
}

struct GroupEntry {
    planned: Arc<PlannedGroup>,
    stamp: u64,
}

/// Group entries are keyed by the ordered member identities — groups
/// are built cold (lowering), so the boxed key allocation is off the
/// replay path.
struct GroupShard {
    map: HashMap<Box<[PlanKey]>, GroupEntry>,
    clock: u64,
}

/// The shared, concurrent, LRU-bounded plan registry. See the module
/// docs for the design; see [`PlanRegistry::global`] for the
/// process-wide instance every [`crate::Machine`] attaches to by
/// default.
pub struct PlanRegistry {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry cap (total cap divided across shards).
    shard_cap: usize,
    /// Directive-level groups, one unsharded table (cold path only).
    groups: Mutex<GroupShard>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRegistry")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl PlanRegistry {
    /// A registry with `shards` lock shards and room for `cap` solo
    /// entries in total (each shard gets at least one slot).
    pub fn new(shards: usize, cap: usize) -> PlanRegistry {
        let shards = shards.max(1);
        let shard_cap = cap.div_ceil(shards).max(1);
        PlanRegistry {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
                .collect(),
            shard_cap,
            groups: Mutex::new(GroupShard { map: HashMap::new(), clock: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide registry (8 shards × 4096 entries), created on
    /// first use. Every [`crate::Machine::new`] and every lowering
    /// shares it.
    pub fn global() -> &'static Arc<PlanRegistry> {
        static GLOBAL: LazyLock<Arc<PlanRegistry>> =
            LazyLock::new(|| Arc::new(PlanRegistry::new(GLOBAL_SHARDS, GLOBAL_CAP)));
        &GLOBAL
    }

    fn shard_of(&self, key: PlanKey) -> &Mutex<Shard> {
        // The key's pointer component is allocation-aligned; mix the
        // low bits away so consecutive allocations spread over shards.
        let mixed = mix64(key.0 as u64 ^ key.1.rotate_left(32));
        &self.shards[(mixed as usize) % self.shards.len()]
    }

    fn key_of(planned: &PlannedRemap) -> Option<PlanKey> {
        let pair = planned.plan.mappings.as_ref()?;
        Some((Arc::as_ptr(pair) as usize, planned.plan.elem_size))
    }

    /// Evict least-recently-used entries until the shard fits its cap;
    /// returns how many were dropped. The entry just touched carries
    /// the newest stamp, so it is never the victim.
    fn evict_over_cap(shard: &mut Shard, cap: usize) -> u64 {
        let mut evicted = 0;
        while shard.map.len() > cap {
            let Some(victim) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k)
            else {
                break;
            };
            shard.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// The shared plan → schedule → program artifact for `(src, dst)`
    /// at `elem_size`: served from the registry when present (a *hit*,
    /// allocation-free), otherwise interned, compiled once under the
    /// shard lock, and registered (a *miss*). Concurrent requests for
    /// the same cold pair serialize on the shard and compile exactly
    /// once.
    pub fn get_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) -> (Arc<PlannedRemap>, RegistryOutcome) {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let mut shard = lock(self.shard_of(key));
        let mut out = RegistryOutcome::default();
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(&e.planned), out);
        }
        // Compile the whole pipeline under the shard lock: a second
        // session asking for this pair waits here and then hits.
        // (`plan_redistribution` re-interns the pair — a pure lookup,
        // returning the same pointer we key by.)
        let planned = Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, elem_size)));
        shard.map.insert(key, Entry { planned: Arc::clone(&planned), stamp });
        out.evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// Publish an artifact compiled elsewhere (lowering, a seeded
    /// session). If the pair is already registered the **existing**
    /// artifact wins and is returned — callers must adopt the returned
    /// `Arc` as canonical. Plans without a mapping pair (enumeration
    /// oracles) cannot be keyed and pass through untouched.
    pub fn adopt(&self, planned: Arc<PlannedRemap>) -> (Arc<PlannedRemap>, RegistryOutcome) {
        let Some(key) = Self::key_of(&planned) else {
            return (planned, RegistryOutcome::default());
        };
        let mut shard = lock(self.shard_of(key));
        let mut out = RegistryOutcome::default();
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(&e.planned), out);
        }
        shard.map.insert(key, Entry { planned: Arc::clone(&planned), stamp });
        out.evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (planned, out)
    }

    /// The shared directive-level group artifact for `members` (in
    /// order): served if a group over identical member artifacts is
    /// registered, otherwise compiled and registered. Group identity is
    /// the sequence of member pair identities, so two programs lowering
    /// the same directive share one [`PlannedGroup`]. Members without a
    /// mapping pair make the group unkeyable; it is compiled solo.
    pub fn get_or_compile_group(
        &self,
        members: Vec<Arc<PlannedRemap>>,
    ) -> (Arc<PlannedGroup>, RegistryOutcome) {
        let keys: Option<Box<[PlanKey]>> = members.iter().map(|m| Self::key_of(m)).collect();
        let Some(keys) = keys else {
            return (Arc::new(PlannedGroup::compile(members)), RegistryOutcome::default());
        };
        let mut groups = lock(&self.groups);
        let mut out = RegistryOutcome::default();
        groups.clock += 1;
        let stamp = groups.clock;
        if let Some(e) = groups.map.get_mut(&keys[..]) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Arc::clone(&e.planned), out);
        }
        let planned = Arc::new(PlannedGroup::compile(members));
        groups.map.insert(keys, GroupEntry { planned: Arc::clone(&planned), stamp });
        // Groups share the per-shard cap: they are few (one per lowered
        // directive shape) and each pins its members' pairs alive.
        let mut evicted = 0;
        while groups.map.len() > self.shard_cap {
            let Some(victim) =
                groups.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            groups.map.remove(&victim);
            evicted += 1;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        out.evicted = evicted;
        (planned, out)
    }

    /// Registered solo entries across all shards (groups not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether no solo entry is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count (solo + group), registry-wide.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (solo + group), registry-wide.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime LRU eviction count, registry-wide.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Lock `m`, accepting a poisoned guard (see "Locks" in the module
/// docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One 64-bit mixing step (splitmix64 finalizer), spreading
/// allocation-aligned key pointers over the shards.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::testing::mapping_1d;
    use hpfc_mapping::DimFormat;

    // Extents unique to this module so the process-wide interner and
    // registry of the unit-test binary never collide with other tests.
    fn pair_for(n: u64) -> (NormalizedMapping, NormalizedMapping) {
        (mapping_1d(n, 4, DimFormat::Block(None)), mapping_1d(n, 4, DimFormat::Cyclic(Some(2))))
    }

    #[test]
    fn second_request_hits_and_shares_the_artifact() {
        let reg = PlanRegistry::new(2, 64);
        let (src, dst) = pair_for(5003);
        let (p1, o1) = reg.get_or_compile(&src, &dst, 8);
        assert!(!o1.hit);
        let (p2, o2) = reg.get_or_compile(&src, &dst, 8);
        assert!(o2.hit);
        assert!(Arc::ptr_eq(&p1, &p2), "hit must serve the registered Arc");
        // Same pair at a different element size is a distinct artifact.
        let (p3, o3) = reg.get_or_compile(&src, &dst, 4);
        assert!(!o3.hit);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!((reg.hits(), reg.misses(), reg.len()), (1, 2, 2));
    }

    #[test]
    fn adopt_keeps_the_first_publisher() {
        let reg = PlanRegistry::new(1, 64);
        let (src, dst) = pair_for(5009);
        let a = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
        let b = Arc::new(PlannedRemap::compile(plan_redistribution(&src, &dst, 8)));
        assert!(!Arc::ptr_eq(&a, &b));
        let (ca, oa) = reg.adopt(Arc::clone(&a));
        let (cb, ob) = reg.adopt(Arc::clone(&b));
        assert!(!oa.hit && ob.hit);
        assert!(Arc::ptr_eq(&ca, &a) && Arc::ptr_eq(&cb, &a), "first publisher wins");
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        // One shard, two slots: a third distinct artifact evicts the
        // least recently used one.
        let reg = PlanRegistry::new(1, 2);
        let (s1, d1) = pair_for(5011);
        let (s2, d2) = pair_for(5021);
        let (s3, d3) = pair_for(5023);
        let (p1, _) = reg.get_or_compile(&s1, &d1, 8);
        let (_p2, _) = reg.get_or_compile(&s2, &d2, 8);
        // Touch pair 1 so pair 2 is the LRU victim.
        let (p1b, o) = reg.get_or_compile(&s1, &d1, 8);
        assert!(o.hit && Arc::ptr_eq(&p1, &p1b));
        let (_, o3) = reg.get_or_compile(&s3, &d3, 8);
        assert_eq!(o3.evicted, 1);
        assert_eq!(reg.len(), 2);
        // Pair 1, touched, survived the eviction...
        let (_, o1c) = reg.get_or_compile(&s1, &d1, 8);
        assert!(o1c.hit);
        // ...while pair 2 — the least recently used — did not: asking
        // again recompiles, and that insert evicts once more (pair 3,
        // now the coldest) to stay at cap.
        let (_, o2b) = reg.get_or_compile(&s2, &d2, 8);
        assert!(!o2b.hit);
        assert_eq!(o2b.evicted, 1);
        assert_eq!(reg.evictions(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn groups_are_shared_by_member_identity() {
        let reg = PlanRegistry::new(2, 64);
        let (s1, d1) = pair_for(5051);
        let (s2, d2) = pair_for(5059);
        let (m1, _) = reg.get_or_compile(&s1, &d1, 8);
        let (m2, _) = reg.get_or_compile(&s2, &d2, 8);
        let (g1, o1) = reg.get_or_compile_group(vec![Arc::clone(&m1), Arc::clone(&m2)]);
        let (g2, o2) = reg.get_or_compile_group(vec![Arc::clone(&m1), Arc::clone(&m2)]);
        assert!(!o1.hit && o2.hit);
        assert!(Arc::ptr_eq(&g1, &g2));
        // Member order is part of the identity.
        let (g3, o3) = reg.get_or_compile_group(vec![m2, m1]);
        assert!(!o3.hit && !Arc::ptr_eq(&g1, &g3));
    }
}
