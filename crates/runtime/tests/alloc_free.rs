//! The zero-allocation contract of the steady-state remap path.
//!
//! After the first remap in each direction has populated the plan
//! cache, a remap bounce must perform **no heap allocation at all** in
//! the data-movement path: the cached [`hpfc_runtime::CopyProgram`] is
//! replayed triple by triple, schedule accounting runs in the machine's
//! reusable scratch arena, and the cache lookup hands out an `Arc`
//! clone (a refcount bump, not an allocation).
//!
//! Pinned with a counting global allocator. Everything lives in ONE
//! `#[test]` on purpose: the counter is process-global, and the test
//! harness would otherwise interleave allocations from sibling tests.
//! Only the test thread's allocations are counted (a thread-local
//! opt-in flag): the libtest harness thread lazily initializes its own
//! channel machinery (`std::sync::mpmc` thread-locals) at an arbitrary
//! moment, and a measured window must not fail because that one-time
//! setup landed inside it. The whole measured path (serial replay) runs
//! on the test thread, so the contract is unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use hpfc_mapping::{testing::mapping_1d as mk, DimFormat};
use hpfc_runtime::{
    plan_redistribution, remap_group, ArrayRt, CommSchedule, CopyProgram, ExecMode, GroupMember,
    Machine, PlanRegistry, PlannedGroup, PlannedRemap, VersionData,
};

/// `System`, with every allocation on the opted-in thread counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Set on the test thread only; allocator callbacks on other
    /// threads (the harness) leave the counter alone. `const` init so
    /// reading the flag never itself allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: TLS may be unavailable during thread teardown.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_remap_allocates_nothing() {
    COUNTED.with(|c| c.set(true));
    // The zero-allocation contract below holds for the DISABLED
    // fault/validation configuration — the default. With a FaultPlan or
    // a validation level configured, remaps take the guarded recovery
    // path instead, which may allocate (checksum walks, recompiles,
    // table fallbacks) by design. Pin the precondition so a future
    // default change trips loudly here rather than silently weakening
    // the measured windows.
    {
        let m = Machine::new(4);
        assert!(m.faults.is_none(), "fault injection must default off");
        assert_eq!(
            m.validation,
            hpfc_runtime::ValidationLevel::Off,
            "validation must default off"
        );
    }
    let n = 4096u64;
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));

    // --- 1. Bare program replay is allocation-free. -------------------
    let plan = plan_redistribution(&src, &dst, 8);
    // Positive control: the thread-gated counter sees the planner's
    // allocations, so the zero-delta windows below are meaningful.
    assert!(allocations() > 0, "counter is live on the test thread");
    let schedule = CommSchedule::from_plan(&plan);
    let program = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
    let mut a = VersionData::new(src.clone(), 8);
    a.fill(|p| p[0] as f64);
    let mut b = VersionData::new(dst.clone(), 8);
    b.copy_values_from_program(&a, &program, ExecMode::Serial); // touch once
    let before = allocations();
    for _ in 0..8 {
        b.copy_values_from_program(&a, &program, ExecMode::Serial);
    }
    assert_eq!(
        allocations(),
        before,
        "CopyProgram serial replay must not allocate"
    );
    assert_eq!(a.to_dense(), b.to_dense(), "and it still moves the data");

    // --- 2. The whole cached remap path is allocation-free. -----------
    // remap = status check + cache lookup (Arc clone) + schedule
    // accounting (machine scratch arena) + program replay. The registry
    // is isolated per section so the exact plans_computed assertions
    // cannot be satisfied by another section's registrations.
    let mut machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::new(PlanRegistry::new(2, 64)));
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    // Warm up: allocate both copies, populate the plan cache both
    // directions, grow the accounting scratch.
    for _ in 0..2 {
        rt.remap(&mut machine, 1, &keep, false);
        rt.set(&[0], 1.0); // stale the other copy: data moves each bounce
        rt.remap(&mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        rt.remap(&mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        rt.remap(&mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "remap {i} ->0 allocated");
    }
    // All twenty measured remaps really moved data through the engine.
    assert_eq!(machine.stats.remaps_performed, performed + 20);
    assert_eq!(machine.stats.plans_computed, 2, "planned once per direction");

    // --- 3. The Fig. 18 restore path is allocation-free too. ----------
    // A save/restore loop: the array is remapped to the callee's
    // version (the ArgIn copy), written there (so the saved copy goes
    // stale and the restore must move data), then restored to the saved
    // tag. `ArrayRt::restore` is a tag-dispatched `remap_guarded`: with
    // the plan cache warm it is a status check + Arc clone + compiled
    // program replay — no heap allocation, exactly like a plain cached
    // remap bounce.
    let saved: u32 = 0; // the tag SaveStatus recorded before the call
    let dummy: u32 = 1; // the callee's version
    let mut machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::new(PlanRegistry::new(2, 64)));
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, saved).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [saved, dummy].into_iter().collect();
    // Warm up: populate the plan cache in both directions.
    for _ in 0..2 {
        rt.remap(&mut machine, dummy, &keep, false);
        rt.set(&[0], 2.0); // the callee writes through the dummy copy
        rt.restore(&mut machine, saved, &keep, false);
        rt.set(&[1], 2.0);
    }
    let restored = machine.stats.restores_replayed;
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        rt.remap(&mut machine, dummy, &keep, false);
        assert_eq!(allocations(), before, "restore bounce {i}: argin remap allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        rt.restore(&mut machine, saved, &keep, false);
        assert_eq!(allocations(), before, "restore bounce {i}: restore allocated");
    }
    assert_eq!(machine.stats.restores_replayed, restored + 10);
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.plans_computed, 2, "restore replays never plan");

    // --- 4. A cached remap GROUP bounce is allocation-free too, under
    // both engines. Two arrays remapped by one directive share merged
    // caterpillar rounds: the coalesced path is eligibility checks
    // (mask bits), masked accounting in the machine scratch arena, and
    // a round-by-round replay of the precompiled group program. At
    // n = 4096 every merged round is below the parallel inline
    // threshold, so ExecMode::Parallel(4) replays inline — the
    // steady-state contract holds for both engines.
    for mode in [ExecMode::Serial, ExecMode::Parallel(4)] {
        let src = mk(n, 4, DimFormat::Block(None));
        let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
        let mut machine = Machine::new(4).with_exec_mode(mode);
        let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
        a.current(&mut machine, 0).fill(|p| p[0] as f64);
        b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
        let solo = |s: &_, d: &_| {
            std::sync::Arc::new(PlannedRemap::compile(plan_redistribution(s, d, 8)))
        };
        let fwd = PlannedGroup::compile(vec![solo(&src, &dst), solo(&src, &dst)]);
        let back = PlannedGroup::compile(vec![solo(&dst, &src), solo(&dst, &src)]);
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        // Warm up: allocate both versions of both arrays, seed the
        // caches, grow the accounting scratch.
        for _ in 0..2 {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd);
            a.set(&[0], 1.0);
            b.set(&[0], 1.0);
            let mut members = [
                GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &back);
            a.set(&[1], 1.0);
            b.set(&[1], 1.0);
        }
        let groups = machine.stats.remap_groups_coalesced;
        let performed = machine.stats.remaps_performed;
        for i in 0..10u64 {
            a.set(&[0], i as f64); // outside the measured window
            b.set(&[0], i as f64);
            let before = allocations();
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd);
            assert_eq!(allocations(), before, "group bounce {i} ({mode:?}) ->1 allocated");
            a.set(&[1], i as f64);
            b.set(&[1], i as f64);
            let before = allocations();
            let mut members = [
                GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &back);
            assert_eq!(allocations(), before, "group bounce {i} ({mode:?}) ->0 allocated");
        }
        // Every measured bounce coalesced both arrays' movement.
        assert_eq!(machine.stats.remap_groups_coalesced, groups + 20);
        assert_eq!(machine.stats.remaps_performed, performed + 40);
        assert_eq!(machine.stats.plans_computed, 0, "group members were precompiled");
    }

    // --- 5. A registry-HIT bounce is allocation-free too. -------------
    // The local plan-cache entry is evicted before every measured remap,
    // so each one takes the full shared-service path: stack-hash the
    // mapping pair, probe the interner (a hit returns an existing Arc),
    // lock the registry shard, touch the LRU stamp, clone the artifact
    // out, and re-seed the local view (BTreeMap leaf reuse — the key
    // was just removed). None of it may heap-allocate, and the data a
    // registry-served session produces must be byte-identical to the
    // solo path's.
    let registry = std::sync::Arc::new(PlanRegistry::new(4, 64));
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::clone(&registry));
    // The solo baseline plans into a registry of its own.
    let mut solo_machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::new(PlanRegistry::new(1, 64)));
    let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
    let mut solo = ArrayRt::new("s", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| (7 * p[0] + 3) as f64);
    solo.current(&mut solo_machine, 0).fill(|p| (7 * p[0] + 3) as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    // Warm up: registers both directions, grows scratch, seeds locals.
    for _ in 0..2 {
        for (r, m) in [(&mut rt, &mut machine), (&mut solo, &mut solo_machine)] {
            r.remap(m, 1, &keep, false);
            r.set(&[0], 1.0);
            r.remap(m, 0, &keep, false);
            r.set(&[1], 1.0);
        }
    }
    let hits = machine.stats.registry_hits;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        solo.set(&[0], i as f64);
        rt.plan_cache.remove(&(0, 1)); // evict the local view: the registry serves
        let before = allocations();
        rt.remap(&mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "registry-hit remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        solo.set(&[1], i as f64);
        rt.plan_cache.remove(&(1, 0));
        let before = allocations();
        rt.remap(&mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "registry-hit remap {i} ->0 allocated");
        solo.remap(&mut solo_machine, 1, &keep, false);
        solo.remap(&mut solo_machine, 0, &keep, false);
    }
    // Every measured remap was really served by the registry...
    assert_eq!(machine.stats.registry_hits, hits + 20);
    assert_eq!(machine.stats.plans_computed, 2, "compiled once per direction, ever");
    assert_eq!(machine.stats.registry_misses, 2);
    assert_eq!(solo_machine.stats.plans_computed, 2, "the solo baseline plans itself");
    // ...and the served artifact moves bytes identically to the solo
    // path.
    for i in 0..n {
        assert_eq!(rt.get(&[i]), solo.get(&[i]), "registry and solo paths diverge at {i}");
    }

    // --- 6. The transactional happy path is allocation-free too. ------
    // With a validation level configured the remap runs guarded and
    // ARMED: a rollback record (status, live flags, the destination
    // runs the compiled program will write) is captured into the
    // machine's scratch arena before the replay and dropped on commit.
    // Warm-up grows the scratch once per direction; after that every
    // snapshot + commit cycle reuses its capacity — zero allocations
    // per cached bounce, and the happy path never rolls back.
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(Some(3)));
    let mut machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::new(PlanRegistry::new(1, 64)))
        .with_validation(hpfc_runtime::ValidationLevel::Counts);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    // Warm up: both copies allocated, both directions' programs cached,
    // the snapshot scratch grown to both directions' run counts.
    for _ in 0..2 {
        rt.remap(&mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        rt.remap(&mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        rt.remap(&mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "transactional remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        rt.remap(&mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "transactional remap {i} ->0 allocated");
    }
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.rollbacks, 0, "the happy path never rolls back");
    assert_eq!(machine.stats.plans_computed, 2);

    // --- 7. Strided-kernel replay is allocation-free too. -------------
    // cyclic(1) destinations compile to pure Gather stride families
    // (zero residual triples): the cached bounce exercises the family
    // walk in the replay, the per-unit run accounting, and — armed by
    // the validation level — the strided TxnScratch capture. All of it
    // must reuse warm capacity, exactly like the triple path above.
    let src = mk(n, 4, DimFormat::Block(None));
    let dst = mk(n, 4, DimFormat::Cyclic(None));
    let mut machine = Machine::new(4)
        .with_exec_mode(ExecMode::Serial)
        .with_registry(std::sync::Arc::new(PlanRegistry::new(1, 64)))
        .with_validation(hpfc_runtime::ValidationLevel::Counts);
    let mut rt = ArrayRt::new("a", vec![src, dst], 8);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for _ in 0..2 {
        rt.remap(&mut machine, 1, &keep, false);
        rt.set(&[0], 1.0);
        rt.remap(&mut machine, 0, &keep, false);
        rt.set(&[1], 1.0);
    }
    // Pin the premise: the cached forward program really is family-only
    // with Gather kernels — otherwise this section silently degenerates
    // into another triple-path measurement.
    {
        let cached = rt.plan_cache.get(&(0, 1)).expect("warmed");
        let prog = &cached.program;
        assert!(!prog.fams.is_empty(), "stride families drive this shape");
        assert!(prog.runs.is_empty(), "no residual triples for cyclic(1)");
        assert!(
            prog.local.iter().chain(prog.rounds.iter().flatten()).all(|u| matches!(
                u.kernel,
                hpfc_runtime::Kernel::Gather
            )),
            "every unit dispatches the gather kernel"
        );
    }
    let performed = machine.stats.remaps_performed;
    for i in 0..10u64 {
        rt.set(&[0], i as f64); // outside the measured window
        let before = allocations();
        rt.remap(&mut machine, 1, &keep, false);
        assert_eq!(allocations(), before, "strided-kernel remap {i} ->1 allocated");
        rt.set(&[1], i as f64);
        let before = allocations();
        rt.remap(&mut machine, 0, &keep, false);
        assert_eq!(allocations(), before, "strided-kernel remap {i} ->0 allocated");
    }
    assert_eq!(machine.stats.remaps_performed, performed + 20, "every bounce moved data");
    assert_eq!(machine.stats.rollbacks, 0, "the happy path never rolls back");
    assert_eq!(machine.stats.plans_computed, 2, "planned once per direction");
}
