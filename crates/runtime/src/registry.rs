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
//! # Corruption does not fan out
//!
//! PR 6's fingerprinted programs and recovery ladder are what make a
//! *shared* registry safe: a poisoned entry served to any session is
//! detected by its fingerprint, recompiled once, and the healthy
//! artifact is re-[`install`](PlanRegistry::install)ed registry-wide —
//! later sessions are never handed the corrupt artifact.
//!
//! # Neither do panics
//!
//! Shared state must also survive *misbehaving clients*. Two layers:
//!
//! * **Lock-poison recovery** — a thread that panics while holding a
//!   shard `Mutex` poisons it; every lock here recovers via
//!   `into_inner` (counted in
//!   [`lock_recoveries`](PlanRegistry::lock_recoveries)) instead of
//!   `unwrap`-panicking, so one crashed session can never deny service
//!   to the rest of the process. This is sound because shard state is
//!   a map of immutable `Arc`s: a panic mid-update can at worst lose an
//!   insertion, which the next miss recompiles.
//! * **Contained compiles** — the compile-under-lock is wrapped in
//!   `catch_unwind`, so a panicking compile surfaces as a typed
//!   [`crate::CompileDecline::Panicked`]
//!   ([`try_get_or_compile`](PlanRegistry::try_get_or_compile)) with
//!   the shard lock released healthy.
//!
//! # Configuration
//!
//! The process-wide instance behind [`PlanRegistry::global`] has 8
//! shards and room for 4096 entries. A machine that must not share
//! artifacts (a "solo" session, or a test pinning exact counters) is
//! handed a private [`PlanRegistry::new`] instead.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

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
    /// How many poisoned locks this access recovered via `into_inner`
    /// (folded into `NetStats::lock_poison_recoveries`).
    pub lock_recoveries: u64,
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
    poison_recoveries: AtomicU64,
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
            poison_recoveries: AtomicU64::new(0),
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

    /// Lock `m`, recovering from poisoning via `into_inner` instead of
    /// propagating the panic. Sound for every lock here: shard state is
    /// maps of immutable `Arc`s plus monotone counters, and the only
    /// panics possible under a lock (compile panics are caught before
    /// they unwind past the guard) leave at worst a missing insertion,
    /// which the next miss recompiles. Returns the recovery count
    /// (0 or 1) for the caller's [`RegistryOutcome`].
    fn lock_recover<'a, T>(&self, m: &'a Mutex<T>) -> (MutexGuard<'a, T>, u64) {
        match m.lock() {
            Ok(g) => (g, 0),
            Err(poisoned) => {
                // Clear the flag so one panic is one recovery, not one
                // per access forever after.
                m.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                (poisoned.into_inner(), 1)
            }
        }
    }

    fn shard_of(&self, key: PlanKey) -> &Mutex<Shard> {
        // The key's pointer component is allocation-aligned; mix the
        // low bits away so consecutive allocations spread over shards.
        let mixed = crate::exec::mix64(key.0 as u64 ^ key.1.rotate_left(32));
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
        match self.lookup_or_compile(src, dst, elem_size, false) {
            (Ok(planned), out) => (planned, out),
            // A genuinely panicking compile: re-raise it *outside* the
            // shard lock, so the registry stays healthy for everyone
            // else even on this legacy infallible-signature path.
            (Err(payload), _) => std::panic::resume_unwind(payload),
        }
    }

    /// [`PlanRegistry::get_or_compile`] with compile panics contained:
    /// a panicking compile (injected via `force_panic`, or real) is
    /// caught by `catch_unwind` *inside* the critical section, so the
    /// shard `Mutex` is released healthy — never poisoned — and the
    /// caller gets a typed [`crate::CompileDecline::Panicked`] to
    /// recover from (a clean solo compile). Nothing is registered and
    /// no miss is counted for a declined compile.
    pub fn try_get_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
        force_panic: bool,
    ) -> (Result<Arc<PlannedRemap>, crate::CompileDecline>, RegistryOutcome) {
        let (res, out) = self.lookup_or_compile(src, dst, elem_size, force_panic);
        (res.map_err(|_| crate::CompileDecline::Panicked), out)
    }

    /// Common body of the two lookups; `Err` carries the caught panic
    /// payload (the shard guard is already dropped, unpoisoned).
    #[allow(clippy::type_complexity)]
    fn lookup_or_compile(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
        force_panic: bool,
    ) -> (Result<Arc<PlannedRemap>, Box<dyn std::any::Any + Send>>, RegistryOutcome) {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        let mut out = RegistryOutcome { lock_recoveries: rec, ..Default::default() };
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(e) = shard.map.get_mut(&key) {
            e.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            out.hit = true;
            return (Ok(Arc::clone(&e.planned)), out);
        }
        // Compile the whole pipeline under the shard lock: a second
        // session asking for this pair waits here and then hits.
        // (`plan_redistribution` re-interns the pair — a pure lookup,
        // returning the same pointer we key by.) The `catch_unwind`
        // stops a panicking compile before it unwinds past the guard —
        // the lock is never poisoned by a compile.
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            if force_panic {
                std::panic::panic_any(crate::fault::InjectedPanic);
            }
            Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, elem_size)))
        }));
        let planned = match compiled {
            Ok(p) => p,
            Err(payload) => {
                drop(shard);
                return (Err(payload), out);
            }
        };
        shard.map.insert(key, Entry { planned: Arc::clone(&planned), stamp });
        out.evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(out.evicted, Ordering::Relaxed);
        (Ok(planned), out)
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
        let (mut shard, rec) = self.lock_recover(self.shard_of(key));
        let mut out = RegistryOutcome { lock_recoveries: rec, ..Default::default() };
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

    /// Replace the registered artifact for `planned`'s pair —
    /// unconditionally. This is the repair (and fault-injection) hook:
    /// when a session detects a poisoned program and recompiles it, the
    /// healthy artifact is installed registry-wide so no later session
    /// is served the corrupt one. Counts neither hit nor miss.
    pub fn install(&self, planned: Arc<PlannedRemap>) {
        let Some(key) = Self::key_of(&planned) else { return };
        let (mut shard, _) = self.lock_recover(self.shard_of(key));
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, Entry { planned, stamp });
        let evicted = Self::evict_over_cap(&mut shard, self.shard_cap);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
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
        let (mut groups, rec) = self.lock_recover(&self.groups);
        let mut out = RegistryOutcome { lock_recoveries: rec, ..Default::default() };
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
        self.shards.iter().map(|s| self.lock_recover(s).0.map.len()).sum()
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

    /// Lifetime poisoned-lock recoveries, registry-wide.
    pub fn lock_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Chaos hook: panic while holding the shard lock that owns
    /// `(src, dst, elem_size)`, poisoning that `Mutex` exactly as a
    /// client panicking mid-critical-section would. Call it from a
    /// scratch thread and join the (expected) panic; the next access to
    /// the shard recovers via `into_inner` and is counted in
    /// [`PlanRegistry::lock_recoveries`].
    pub fn poison_shard_lock_for_tests(
        &self,
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
        elem_size: u64,
    ) {
        let pair = intern::pair(src, dst);
        let key: PlanKey = (Arc::as_ptr(&pair) as usize, elem_size);
        let _guard = self.lock_recover(self.shard_of(key)).0;
        panic!("injected shard-lock poison (test hook)");
    }
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
    fn install_replaces_registry_wide() {
        let reg = PlanRegistry::new(2, 64);
        let (src, dst) = pair_for(5039);
        let (p1, _) = reg.get_or_compile(&src, &dst, 8);
        let replacement = Arc::new(PlannedRemap::clone(&p1));
        reg.install(Arc::clone(&replacement));
        let (served, o) = reg.get_or_compile(&src, &dst, 8);
        assert!(o.hit);
        assert!(Arc::ptr_eq(&served, &replacement) && !Arc::ptr_eq(&served, &p1));
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

    #[test]
    fn poisoned_shard_lock_recovers_and_is_counted() {
        let reg = Arc::new(PlanRegistry::new(1, 64));
        let (src, dst) = pair_for(5077);
        let (p1, _) = reg.get_or_compile(&src, &dst, 8);
        // Poison the (only) shard from a scratch thread.
        let r2 = Arc::clone(&reg);
        let (s2, d2) = (src.clone(), dst.clone());
        let joined = std::thread::spawn(move || r2.poison_shard_lock_for_tests(&s2, &d2, 8)).join();
        assert!(joined.is_err(), "the hook must panic while holding the lock");
        // The next access is served — no unwrap panic — and reports the
        // recovery both per-call and registry-wide.
        let (p2, o) = reg.get_or_compile(&src, &dst, 8);
        assert!(o.hit && Arc::ptr_eq(&p1, &p2));
        assert_eq!(o.lock_recoveries, 1);
        assert_eq!(reg.lock_recoveries(), 1);
        // The poison is cleared by the first recovery, not re-counted.
        let (_, o2) = reg.get_or_compile(&src, &dst, 8);
        assert_eq!(o2.lock_recoveries, 0);
    }

    #[test]
    fn contained_compile_panic_declines_without_poisoning() {
        let reg = PlanRegistry::new(1, 64);
        let (src, dst) = pair_for(5081);
        let (res, out) = reg.try_get_or_compile(&src, &dst, 8, true);
        assert_eq!(res.unwrap_err(), crate::CompileDecline::Panicked);
        assert!(!out.hit);
        assert_eq!(reg.misses(), 0, "a declined compile is not a miss");
        assert_eq!(reg.len(), 0, "nothing registered");
        // The shard lock survived the panicking compile: the clean
        // retry compiles and registers normally with zero recoveries.
        let (res2, out2) = reg.try_get_or_compile(&src, &dst, 8, false);
        assert!(res2.is_ok() && !out2.hit && out2.lock_recoveries == 0);
        assert_eq!((reg.misses(), reg.len()), (1, 1));
    }
}
