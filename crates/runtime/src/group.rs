//! Directive-level remap groups: several arrays remapped by **one**
//! directive, moved over **one** aggregated caterpillar schedule.
//!
//! When a `distribute`/`align` directive hits a template, *every* array
//! aligned to it remaps at the same program vertex (the paper's Fig. 3
//! template-impact situation). Scheduled independently, each array pays
//! the full per-pair round latency on the same processor pairs, N times
//! over. A [`PlannedGroup`] instead merges the member plans' messages:
//! same-pair messages share a caterpillar round and a wire buffer
//! ([`CommSchedule::from_plans`]), so the group's makespan is one round
//! sweep — never more rounds than the members' solo sum, and strictly
//! fewer whenever two members talk over the same pairs.
//!
//! [`remap_group`] is the executable form: it checks, per member, that
//! the exact compile-time-planned copy is the one the runtime would
//! perform (current status is the planned source, target copy not
//! live). Members that would not move data (status noop, live-copy
//! reuse, partial-impact skip, first instantiation) remap on their own
//! and are **masked out** of the accounting — the coalesced wire
//! buffers simply shrink — while the remaining movers are costed over
//! the merged rounds ([`CommSchedule::round_triples_masked`]) and
//! replayed round by round from the group's compiled
//! [`GroupCopyProgram`].
//!
//! A solo remap is the one-member case of the same machinery: one
//! transaction (`transact`), one recovery driver
//! ([`crate::fault`]), one round replay (`exec::replay_round`),
//! called with one mover for a solo remap and with the masked members
//! for a group. The replay is allocation-free in steady state and safe
//! under [`crate::ExecMode::Parallel`]: within a merged round, every
//! receiving *block* is written by exactly one unit — receivers are
//! distinct per member, and different members write different arrays'
//! storage.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::exec::{GroupCopyProgram, Movers};
use crate::fault::{poison_program, ExecError};
use crate::machine::Machine;
use crate::redist::RedistPlan;
use crate::schedule::CommSchedule;
use crate::status::{version_pair, ArrayRt, PlannedRemap};
use crate::store::TxnScratch;

/// The compile-time artifact of one directive's remap group: the
/// members' solo plans (shared `Arc`s with each member's own
/// [`PlannedRemap`], so nothing is planned twice), their messages
/// merged into one aggregated caterpillar schedule, and the group copy
/// program that replays every member's units round by round.
#[derive(Debug, Clone)]
pub struct PlannedGroup {
    /// The member remaps, in group order (one per array, each with its
    /// own plan + solo schedule + solo program — the fallback path).
    pub members: Vec<Arc<PlannedRemap>>,
    /// The merged schedule: all members' same-pair messages share
    /// rounds and wire buffers.
    pub schedule: CommSchedule,
    /// The group replay program, round-aligned to `schedule`.
    pub program: GroupCopyProgram,
}

impl PlannedGroup {
    /// Merge the members' plans into the aggregated schedule and
    /// compile the group program. The members' plans are borrowed, not
    /// replanned.
    pub fn compile(members: Vec<Arc<PlannedRemap>>) -> PlannedGroup {
        let plans: Vec<&RedistPlan> = members.iter().map(|m| &m.plan).collect();
        let schedule = CommSchedule::from_plans(&plans);
        let program = GroupCopyProgram::compile(&plans, &schedule);
        PlannedGroup { members, schedule, program }
    }

    /// Sum of the members' *solo* round counts — what the same remaps
    /// would cost in rounds if scheduled one array at a time. The
    /// merged schedule has `schedule.n_rounds() <=` this, strictly less
    /// whenever members share processor pairs.
    pub fn solo_rounds(&self) -> usize {
        self.members.iter().map(|m| m.schedule.n_rounds()).sum()
    }
}

/// One member's runtime binding for [`remap_group`]: the array's
/// runtime descriptor plus the compile-time facts of its remap op
/// (single planned source, target, liveness sets — the fields of
/// `hpfc-codegen`'s `RemapOp` the runtime needs).
pub struct GroupMember<'a> {
    /// The array's runtime state.
    pub rt: &'a mut ArrayRt,
    /// The single compile-time-planned source version of this member's
    /// copy.
    pub src: u32,
    /// Target version.
    pub target: u32,
    /// Copies to keep alive past the remap (`M_A(v)`).
    pub may_live: &'a BTreeSet<u32>,
    /// Partial-impact guard: statuses under which this member skips.
    pub skip_if_current: &'a BTreeSet<u32>,
}

impl<'a> GroupMember<'a> {
    /// Would this member, right now, perform exactly its planned copy
    /// (source → target data movement)? Everything else — status noop,
    /// live-copy reuse, partial-impact skip, first instantiation —
    /// moves no data and is handled by the ordinary remap path.
    fn moves_data(&self) -> bool {
        self.rt.status == Some(self.src)
            && !self.rt.live[self.target as usize]
            && !self.skip_if_current.contains(&self.src)
    }
}

/// Execute one directive's remap group.
///
/// Members whose state matches their compile-time-planned copy are
/// moved **coalesced**: one masked accounting sweep over the merged
/// caterpillar rounds (each communicating pair pays one latency per
/// round, not one per array), one round-by-round replay of the group
/// copy program. All other members (and every member, if fewer than two
/// would move data) remap on their own, exactly like
/// [`ArrayRt::remap_guarded`] — with their solo plan seeded into the
/// array's cache first, so even the fallback never plans at run time.
///
/// `members` must be in group order (matching `planned.members`).
/// Groups larger than 64 members never coalesce (the mover mask is a
/// `u64`); lowering emits groups of at most 64, so lowered programs
/// never hit that fallback. Returns the number of members that moved
/// through the coalesced path (0 when the group fell back entirely).
pub fn remap_group(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
) -> usize {
    match try_remap_group(machine, members, planned) {
        Ok(n) => n,
        Err(e) => panic!("remap group: {e}"),
    }
}

/// [`remap_group`] returning a typed [`ExecError`] instead of
/// panicking: a member-count mismatch with the planned group and any
/// unrecoverable member remap surface as errors. With faults or
/// validation configured on the machine, the coalesced replay runs
/// through the same recovery driver as a solo remap (retry failed
/// rounds → recompile the group program → typed error), with worker
/// panics degrading the round to serial.
///
/// **Atomic**: the group commits all members or none — see
/// `transact`, the one remap transaction, which a solo remap also
/// runs as a one-member group.
pub fn try_remap_group(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
) -> Result<usize, ExecError> {
    if members.len() != planned.members.len() {
        return Err(ExecError::GroupMismatch {
            planned: planned.members.len(),
            got: members.len(),
        });
    }
    // Seed every member's solo plan (a no-op when already present),
    // publishing through the machine's shared registry so sessions
    // executing the same group converge on one artifact per member:
    // whichever path executes below, nothing plans at run time.
    for (i, m) in members.iter_mut().enumerate() {
        m.rt.seed_plan_shared(machine, m.src, m.target, Arc::clone(&planned.members[i]));
    }
    let mut mask = 0u64;
    if members.len() <= 64 {
        for (i, m) in members.iter().enumerate() {
            if m.moves_data() {
                mask |= 1 << i;
            }
        }
    }
    if mask.count_ones() < 2 {
        mask = 0; // nothing to coalesce: every member remaps on its own
    }
    transact(machine, members, |machine, members, snaps| {
        remap_group_body(machine, members, planned, mask, snaps)
    })
}

/// The one remap transaction, run by every remap group and by every
/// solo remap as a one-member group: the members commit all together
/// or not at all.
///
/// On the guarded path each member's array state (status, live flags,
/// whether the target copy exists) is recorded before anything
/// executes, and each mover adds the destination bytes its replay
/// overwrites right before replaying. Liveness cleaning is deferred
/// until every member committed (cleaning frees copies a rollback could
/// not restore), and any member's terminal error rolls *every* member —
/// already-replayed siblings included — back to its byte-identical
/// pre-remap state before the error surfaces (`NetStats::rollbacks`).
/// The unguarded path captures nothing: with no faults injected and no
/// validation demanded, its replay cannot fail after writes begin.
pub(crate) fn transact<'m, T>(
    machine: &mut Machine,
    members: &mut [GroupMember<'m>],
    body: impl FnOnce(
        &mut Machine,
        &mut [GroupMember<'m>],
        Option<&mut [TxnScratch]>,
    ) -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let guarded = machine.guarded();
    let mut snaps = std::mem::take(&mut machine.txn_scratch);
    if guarded {
        if snaps.len() < members.len() {
            snaps.resize_with(members.len(), Default::default);
        }
        for (s, m) in snaps.iter_mut().zip(members.iter()) {
            s.begin(m.rt.status, &m.rt.live, m.rt.copies[m.target as usize].is_some());
        }
    }
    let armed = if guarded { Some(&mut snaps[..members.len()]) } else { None };
    let out = body(machine, members, armed);
    match &out {
        Ok(_) => {
            for m in members.iter_mut() {
                m.rt.clean_copies(machine, m.target, m.may_live);
            }
        }
        Err(_) if guarded => {
            machine.stats.rollbacks += 1;
            for (m, s) in members.iter_mut().zip(snaps.iter_mut()).rev() {
                m.rt.rollback_remap(machine, m.target, s);
            }
        }
        Err(_) => {}
    }
    for s in snaps.iter_mut() {
        s.captured = false;
    }
    machine.txn_scratch = snaps;
    out
}

/// The execution half of [`try_remap_group`], inside its transaction.
/// Members outside `mask` remap on their own (`ArrayRt::remap_body`:
/// a no-op, a live-copy reuse, or a one-mover replay of their seeded
/// solo plan); the masked movers are costed over the merged rounds and
/// replayed together, as one call of the recovery driver.
fn remap_group_body(
    machine: &mut Machine,
    members: &mut [GroupMember<'_>],
    planned: &PlannedGroup,
    mask: u64,
    mut snaps: Option<&mut [TxnScratch]>,
) -> Result<usize, ExecError> {
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            let snap = snaps.as_deref_mut().map(|s| &mut s[i]);
            m.rt.remap_body(machine, m.target, false, m.skip_if_current, snap)?;
        }
    }
    if mask == 0 {
        return Ok(0);
    }
    // The coalesced movement: allocate targets, record what the replay
    // overwrites, cost the merged rounds restricted to the movers,
    // replay the group program.
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        m.rt.ensure_allocated(machine, m.target);
        let (src, dst) = version_pair(&mut m.rt.copies, m.src, m.target)
            .ok_or_else(|| ExecError::MissingCopy { array: m.rt.name.clone(), version: m.src })?;
        if let Some(s) = snaps.as_deref_mut() {
            s[i].capture_bytes(src, dst, &planned.program.members[i]);
        }
    }
    for r in 0..planned.schedule.rounds.len() {
        machine.account_phase(planned.schedule.round_triples_masked(r, mask));
    }
    let epoch = machine.next_fault_epoch();
    // PoisonProgram: replay a corrupted clone of the group program —
    // what a damaged shared plan registry would serve. (The planned
    // group itself is borrowed, so unlike the solo cache the poison
    // cannot persist past this call.)
    let poisoned = machine.faults.is_some_and(|f| f.poison_fires(epoch)).then(|| {
        machine.stats.faults_injected += 1;
        let mut bad = planned.program.clone();
        bad.members.iter_mut().for_each(poison_program);
        bad
    });
    let recompile = || {
        let plans: Vec<&RedistPlan> = planned.members.iter().map(|m| &m.plan).collect();
        Some(GroupCopyProgram::compile(&plans, &planned.schedule).members)
    };
    // One (runs, elements) slot per member: groups of more than 64
    // members never coalesce.
    let mut tally = [(0u64, 0u64); 64];
    crate::fault::replay_with_recovery(
        machine,
        &poisoned.as_ref().unwrap_or(&planned.program).members,
        recompile,
        &mut Movers::Group(members, mask),
        epoch,
        &mut tally,
    )?;
    machine.stats.remap_groups_coalesced += 1;
    for (i, m) in members.iter_mut().enumerate() {
        if mask & (1 << i) == 0 {
            continue;
        }
        let (runs, elements) = tally[i];
        machine.stats.remaps_performed += 1;
        machine.stats.runs_copied += runs;
        machine.stats.bytes_moved += elements * m.rt.elem_size;
        machine.stats.local_elements += planned.members[i].plan.local_elements;
        m.rt.live[m.target as usize] = true;
        m.rt.status = Some(m.target);
    }
    Ok(mask.count_ones() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{round_load, ExecMode};
    use crate::redist::plan_redistribution;
    use crate::store::VersionData;
    use hpfc_mapping::{testing::mapping_1d as mk, DimFormat, NormalizedMapping};

    fn planned_pair(
        src: &NormalizedMapping,
        dst: &NormalizedMapping,
    ) -> Arc<PlannedRemap> {
        Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, 8)))
    }

    fn two_array_group(
        n: u64,
        p: u64,
        f0: DimFormat,
        f1: DimFormat,
    ) -> (Machine, ArrayRt, ArrayRt, PlannedGroup, PlannedGroup) {
        let v0 = mk(n, p, f0);
        let v1 = mk(n, p, f1);
        let m = Machine::new(p);
        let mut a = ArrayRt::new("a", vec![v0.clone(), v1.clone()], 8);
        let mut b = ArrayRt::new("b", vec![v0.clone(), v1.clone()], 8);
        let mut machine = m;
        a.current(&mut machine, 0).fill(|pt| pt[0] as f64);
        b.current(&mut machine, 0).fill(|pt| 1000.0 + pt[0] as f64);
        let fwd = PlannedGroup::compile(vec![planned_pair(&v0, &v1), planned_pair(&v0, &v1)]);
        let back = PlannedGroup::compile(vec![planned_pair(&v1, &v0), planned_pair(&v1, &v0)]);
        (machine, a, b, fwd, back)
    }

    #[test]
    fn merged_schedule_has_fewer_rounds_and_same_bytes() {
        let (_, _, _, fwd, _) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        // Two identical block->cyclic all-to-alls: solo 3 rounds each,
        // merged still 3 rounds — strictly fewer than the solo sum of 6.
        assert_eq!(fwd.schedule.n_rounds(), 3);
        assert_eq!(fwd.solo_rounds(), 6);
        // Bytes are the sum of the members'; wire messages coalesce to
        // one per pair per round (12, not 24).
        let solo_bytes: u64 = fwd.members.iter().map(|m| m.plan.total_bytes()).sum();
        assert_eq!(fwd.schedule.total_bytes(), solo_bytes);
        assert_eq!(fwd.schedule.messages.len(), 24);
        assert_eq!(fwd.schedule.n_wire_messages(), 12);
        // The group program delivers every member's (local + remote)
        // elements exactly once.
        let prog = &fwd.program;
        let deliveries: u64 = fwd
            .members
            .iter()
            .map(|m| m.plan.local_elements + m.plan.remote_elements())
            .sum();
        assert_eq!(prog.total_elements, deliveries);
    }

    #[test]
    fn coalesced_group_moves_both_arrays_with_one_latency_per_pair_round() {
        let (mut machine, mut a, mut b, fwd, _) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        let moved = {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd)
        };
        assert_eq!(moved, 2);
        assert_eq!(machine.stats.remap_groups_coalesced, 1);
        assert_eq!(machine.stats.remaps_performed, 2);
        // 12 coalesced wire messages (not 24), each carrying 2 arrays'
        // elements; bytes are both plans' sums.
        assert_eq!(machine.stats.messages, 12);
        assert_eq!(machine.stats.bytes, 2 * 12 * 8);
        // Values arrived intact for both arrays.
        for i in 0..16u64 {
            assert_eq!(a.get(&[i]), i as f64);
            assert_eq!(b.get(&[i]), 1000.0 + i as f64);
        }
        // Time is 3 merged rounds, one send+recv latency per processor
        // per round, 2 x 16 bytes per direction.
        let cost = machine.cost;
        let per_round = 2.0 * cost.latency_us + 2.0 * 16.0 / cost.bandwidth_bytes_per_us;
        assert!((machine.stats.time_us - 3.0 * per_round).abs() < 1e-9,
            "time {} != 3 x {per_round}", machine.stats.time_us);
        // Nothing planned at run time (solo plans were seeded).
        assert_eq!(machine.stats.plans_computed, 0);
    }

    #[test]
    fn ineligible_member_masks_out_of_the_coalesced_accounting() {
        let (mut machine, mut a, mut b, fwd, back) =
            two_array_group(16, 4, DimFormat::Block(None), DimFormat::Cyclic(None));
        let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
        let skip = BTreeSet::new();
        {
            let mut members = [
                GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &fwd);
        }
        // Stale only a's old copy: on the way back, b's version-0 copy
        // is still live — b reuses it and must not be billed.
        a.set(&[0], 99.0);
        let bytes_before = machine.stats.bytes;
        let moved = {
            let mut members = [
                GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
            ];
            remap_group(&mut machine, &mut members, &back)
        };
        // Only one mover: the group falls back to solo guarded remaps.
        assert_eq!(moved, 0);
        assert_eq!(machine.stats.remaps_reused_live, 1);
        // a's solo return trip is 12 messages of 8 bytes.
        assert_eq!(machine.stats.bytes, bytes_before + 12 * 8);
        assert_eq!(machine.stats.plans_computed, 0, "fallback was seeded, never plans");
        assert_eq!(a.get(&[0]), 99.0);
        assert_eq!(b.get(&[3]), 1003.0);
    }

    #[test]
    fn threshold_boundary_round_takes_the_same_engine_solo_and_group() {
        use crate::exec::PARALLEL_THRESHOLD;
        // Solo: Block → Cyclic(n/4) on 2 ranks puts the local group AND
        // the single caterpillar round at exactly PARALLEL_THRESHOLD
        // elements — the boundary the shared predicate pins.
        let n = 2 * PARALLEL_THRESHOLD;
        let src = mk(n, 2, DimFormat::Block(None));
        let dst = mk(n, 2, DimFormat::Cyclic(Some(n / 4)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = crate::CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        for round in std::iter::once(&prog.local).chain(prog.rounds.iter()) {
            let w: u64 = round.iter().map(|u| u.elements).sum();
            assert_eq!(w, PARALLEL_THRESHOLD, "round sits exactly at the boundary");
            assert!(
                !crate::exec::round_goes_inline(w),
                "a boundary round takes the parallel engine everywhere"
            );
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 8191) as f64);
        let mut serial = VersionData::new(dst.clone(), 8);
        serial.copy_values_from_program(&a, &prog, ExecMode::Serial);
        let mut par = VersionData::new(dst, 8);
        par.copy_values_from_program(&a, &prog, ExecMode::Parallel(4));
        assert_eq!(serial, par);

        // Group: two members at half the extent, so every *merged*
        // round (local group and the wire round) also totals exactly
        // PARALLEL_THRESHOLD — the group dispatcher must agree with
        // the solo one at the boundary.
        let gn = PARALLEL_THRESHOLD;
        let run = |mode: ExecMode| {
            let (machine, mut a, mut b, fwd, _back) = two_array_group(
                gn,
                2,
                DimFormat::Block(None),
                DimFormat::Cyclic(Some(gn / 4)),
            );
            let gp = &fwd.program;
            for round in 0..=gp.n_rounds {
                let (_, w) = round_load(&gp.members, (2, 0b11), round, usize::MAX);
                assert_eq!(w, PARALLEL_THRESHOLD, "merged round sits exactly at the boundary");
            }
            let mut machine = machine.with_exec_mode(mode);
            let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
            let skip = BTreeSet::new();
            {
                let mut members = [
                    GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                    GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                ];
                assert_eq!(remap_group(&mut machine, &mut members, &fwd), 2);
            }
            let av = a.copies[1].as_ref().unwrap().to_dense();
            let bv = b.copies[1].as_ref().unwrap().to_dense();
            (av, bv)
        };
        assert_eq!(run(ExecMode::Serial), run(ExecMode::Parallel(4)));
    }

    #[test]
    fn serial_and_parallel_group_replay_agree() {
        // Large enough that parallel rounds cross the inline threshold
        // and really spawn scoped workers across both arrays' units.
        let run = |mode: ExecMode| {
            let (machine, mut a, mut b, fwd, back) =
                two_array_group(1 << 18, 4, DimFormat::Block(None), DimFormat::Cyclic(Some(3)));
            let mut machine = machine.with_exec_mode(mode);
            let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
            let skip = BTreeSet::new();
            for round in 0..3 {
                {
                    let mut members = [
                        GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                        GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
                    ];
                    assert_eq!(remap_group(&mut machine, &mut members, &fwd), 2);
                }
                a.set(&[0], round as f64);
                b.set(&[1], round as f64);
                {
                    let mut members = [
                        GroupMember { rt: &mut a, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                        GroupMember { rt: &mut b, src: 1, target: 0, may_live: &keep, skip_if_current: &skip },
                    ];
                    assert_eq!(remap_group(&mut machine, &mut members, &back), 2);
                }
                a.set(&[2], round as f64);
                b.set(&[3], round as f64);
            }
            let av = a.copies[a.status.unwrap() as usize].as_ref().unwrap().to_dense();
            let bv = b.copies[b.status.unwrap() as usize].as_ref().unwrap().to_dense();
            (av, bv, machine.stats.bytes, machine.stats.messages)
        };
        assert_eq!(run(ExecMode::Serial), run(ExecMode::Parallel(4)));
    }
}
