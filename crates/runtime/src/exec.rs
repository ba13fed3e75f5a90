//! Compiled copy programs: the data-movement half of a remap, resolved
//! once at plan time into stride-encoded run families
//! ([`StrideFamily`]) plus an irregular residue of flat
//! `(src_pos, dst_pos, len)` triples, each unit tagged with the replay
//! [`Kernel`] its shape compiles to — then replayed allocation-free
//! ever after, optionally with the caterpillar rounds executed across
//! `std::thread::scope` workers.
//!
//! # The one copy engine
//!
//! Every data movement in the runtime — a cached remap, a group remap,
//! and the uncached
//! [`crate::VersionData::copy_values_from`] — goes through a
//! [`CopyProgram`]. The positions of the copied runs are derived from
//! the plan's periodic descriptors ([`PeriodicSet::count_below`], a
//! handful of divisions per run) exactly once, when the program is
//! compiled:
//!
//! * **compile** ([`CopyProgram::try_compile`], `O(total runs)`, once
//!   per (source, destination) version pair): walk the planner's
//!   descriptor odometer and *record* each run's closed-form local
//!   positions — producing one flat [`CopyRun`] list, grouped into
//!   per-(provider, receiver) [`CopyUnit`]s. Compilation is total for
//!   every closed-form plan: rank-0 scalars become one single-element
//!   unit per replica, and positions are `u64`, so no block is too
//!   large;
//! * **replay** (every later copy): a loop of `copy_from_slice` over
//!   the precompiled runs. No positions are recomputed, nothing is
//!   allocated — the steady-state remap path performs zero heap
//!   allocations (pinned by the counting-allocator test
//!   `alloc_free.rs`).
//!
//! # One round replay
//!
//! Units are grouped exactly like the [`crate::CommSchedule`]'s
//! caterpillar rounds (plus one round-like group for the local,
//! never-on-the-wire copies). Every replay — a solo remap, a coalesced
//! remap group, a bare [`crate::VersionData::copy_values_from_program`]
//! — is one call of `replay_round` per round over a set of
//! `Movers`: compiled programs bound to their (source, destination)
//! version pairs, one for a solo copy, one per moving member for a
//! group. Within a round every processor has at most
//! one partner, so a mover's receivers are pairwise distinct — each
//! destination block is written by exactly one unit, and the round can
//! be split across `std::thread::scope` workers without locks or
//! aliasing ([`ExecMode::Parallel`]). The `HPFC_THREADS` environment
//! variable picks the default mode ([`ExecMode::from_env`]); serial
//! replay stays available so both engines are continuously tested.
//!
//! [`PeriodicSet::count_below`]: hpfc_mapping::PeriodicSet::count_below

use std::collections::BTreeMap;

use hpfc_mapping::intervals::intersect_runs;

use crate::group::GroupMember;
use crate::redist::{DimContribution, RedistPlan};
use crate::schedule::CommSchedule;
use crate::status::version_pair;
use crate::store::{LocalBlock, VersionData};

/// How a [`CopyProgram`] replay runs the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread replays every unit in order (allocation-free).
    Serial,
    /// Each round's units are split across this many scoped worker
    /// threads (receivers within a round are disjoint, so no locks).
    /// `Parallel(0 | 1)` degrades to [`ExecMode::Serial`].
    Parallel(usize),
}

impl ExecMode {
    /// Parse an `HPFC_THREADS`-style value: `0` or `1` mean
    /// [`ExecMode::Serial`], any larger value means that many workers
    /// per round, and anything unparsable is `None` (the caller decides
    /// the fallback).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s.trim().parse::<usize>() {
            Ok(t) if t > 1 => Some(ExecMode::Parallel(t)),
            Ok(_) => Some(ExecMode::Serial),
            Err(_) => None,
        }
    }

    /// The mode selected by the `HPFC_THREADS` environment variable:
    /// unset, `0` or `1` mean [`ExecMode::Serial`]; any larger value
    /// means that many workers per round. An **unparsable** value also
    /// falls back to [`ExecMode::Serial`], but emits a one-time warning
    /// on stderr — a typo in `HPFC_THREADS` silently serializing every
    /// replay is exactly the kind of quiet misconfiguration the fault
    /// model exists to surface.
    pub fn from_env() -> ExecMode {
        match std::env::var("HPFC_THREADS") {
            Ok(s) => ExecMode::parse(&s).unwrap_or_else(|| {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "hpfc: unparsable HPFC_THREADS value {s:?}; \
                         falling back to serial replay"
                    );
                });
                ExecMode::Serial
            }),
            Err(_) => ExecMode::Serial,
        }
    }

    /// Worker count this mode uses.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel(t) => t.max(1),
        }
    }
}

/// One precompiled contiguous copy: `len` elements from local position
/// `src_pos` of the provider's block to local position `dst_pos` of the
/// receiver's block. Positions are `u64`, so every block a mapping can
/// describe compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Element offset in the provider's local data.
    pub src_pos: u64,
    /// Element offset in the receiver's local data.
    pub dst_pos: u64,
    /// Run length in elements.
    pub len: u64,
}

/// A stride-encoded family of copy runs: `count` runs of `len`
/// elements each, whose `(src_pos, dst_pos)` pairs form an arithmetic
/// progression starting at `(src_base, dst_base)` with per-run steps
/// `(src_step, dst_step)`. One descriptor replaces `count` flat
/// [`CopyRun`]s — for a cyclic(1) destination (one run per *element*)
/// the whole (provider, receiver) pair collapses to a single family,
/// shrinking the n=4M artifact from O(n) runs to O(P_src × P_dst)
/// descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFamily {
    /// Element offset of the first run in the provider's local data.
    pub src_base: u64,
    /// Element offset of the first run in the receiver's local data.
    pub dst_base: u64,
    /// Number of runs in the family (≥ `MIN_FAMILY`).
    pub count: u64,
    /// Source offset advance between consecutive runs.
    pub src_step: u64,
    /// Destination offset advance between consecutive runs.
    pub dst_step: u64,
    /// Length of every run in the family, in elements.
    pub len: u64,
}

/// Which replay loop a [`CopyUnit`] dispatches to — chosen once at
/// compile time from the shape of the unit's encoded runs, so the
/// steady-state replay pays zero per-run classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Exactly one contiguous residual run: a single
    /// `copy_from_slice` (memcpy) moves the whole unit.
    Memcpy,
    /// Families only, every run one element long (the cyclic(1)
    /// shape): a tight scalar gather/scatter loop, no slice machinery.
    Gather,
    /// Families only, general run length: a blocked strided loop of
    /// `copy_from_slice` per run.
    Strided,
    /// Everything else — residual runs with or without families (or an
    /// empty unit): the strided loop over the families, then the flat
    /// run loop.
    Mixed,
}

/// All runs of one (provider, receiver) pair: `fams` and `runs` are
/// half-open index ranges into [`CopyProgram::fams`] /
/// [`CopyProgram::runs`], and `kernel` picks the replay loop compiled
/// for their shape. Local units have `provider == receiver` (the
/// receiver already holds the elements under the source mapping);
/// remote units correspond one-to-one to the schedule's packed
/// messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyUnit {
    /// Rank whose *source-version* block is read.
    pub provider: u64,
    /// Rank whose *destination-version* block is written.
    pub receiver: u64,
    /// Half-open range into the program's stride-family list.
    pub fams: (usize, usize),
    /// Half-open range into the program's residual flat run list.
    pub runs: (usize, usize),
    /// Replay kernel chosen at compile time for this unit's shape.
    pub kernel: Kernel,
    /// Total elements this unit moves (the load-balancing weight).
    pub elements: u64,
}

/// A compiled copy program: the executable form of one redistribution's
/// data movement. Built once per (source, destination) version pair and
/// cached in [`crate::ArrayRt::plan_cache`] (or attached at compile
/// time by `hpfc-codegen`'s lowering), then replayed by
/// [`crate::VersionData::copy_values_from_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyProgram {
    /// The (source, destination) mapping pair the triples were
    /// compiled for — replay refuses to apply them to any other pair
    /// (precompiled positions are meaningless against different block
    /// layouts). The `Arc` is shared with
    /// [`crate::RedistPlan::mappings`]: a cached
    /// [`crate::PlannedRemap`] stores the pair once, halving its
    /// mapping footprint.
    pub mappings: std::sync::Arc<(hpfc_mapping::NormalizedMapping, hpfc_mapping::NormalizedMapping)>,
    /// Stride-encoded run families, unit `fams` ranges index this.
    pub fams: Vec<StrideFamily>,
    /// Residual flat `(src_pos, dst_pos, len)` triples — only the
    /// genuinely irregular remainder that no arithmetic progression
    /// covers; unit `runs` ranges index this.
    pub runs: Vec<CopyRun>,
    /// Local units (`provider == receiver`), sorted by receiver — one
    /// round-like group whose receivers are all distinct.
    pub local: Vec<CopyUnit>,
    /// Remote units grouped by caterpillar round (mirrors
    /// [`CommSchedule::rounds`]); within a round receivers are
    /// pairwise distinct, each round's units sorted by receiver.
    pub rounds: Vec<Vec<CopyUnit>>,
    /// Total elements delivered (local + remote, replicas counted) —
    /// equals `plan.local_elements + plan.remote_elements()`.
    pub total_elements: u64,
}

/// Why a plan did not become a [`CopyProgram`]
/// ([`CopyProgram::compile_checked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileDecline {
    /// The plan carries no per-dimension descriptors (e.g. one built by
    /// [`crate::plan_by_enumeration`]) or no mapping pair.
    NoDescriptors,
}

impl std::fmt::Display for CompileDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileDecline::NoDescriptors => write!(f, "plan carries no descriptors"),
        }
    }
}

impl CopyProgram {
    /// Number of precompiled runs: every run a stride family encodes
    /// plus the residual triples — the same logical copy count the
    /// pre-stride flat encoding stored (modulo contiguous coalescing).
    pub fn n_runs(&self) -> u64 {
        self.fams.iter().map(|f| f.count).sum::<u64>() + self.runs.len() as u64
    }

    /// Bytes the compiled artifact's run encoding occupies — the
    /// cache-residency number the stride encoding exists to shrink
    /// (families + residual triples + unit descriptors).
    pub fn artifact_bytes(&self) -> usize {
        self.fams.len() * std::mem::size_of::<StrideFamily>()
            + self.runs.len() * std::mem::size_of::<CopyRun>()
            + (self.local.len() + self.rounds.iter().map(Vec::len).sum::<usize>())
                * std::mem::size_of::<CopyUnit>()
    }

    /// Total elements the program delivers (each destination replica
    /// counts once).
    pub fn n_elements(&self) -> u64 {
        self.total_elements
    }

    /// Compile the plan's descriptor tables into an executable program.
    ///
    /// Total for every closed-form plan ([`crate::plan_redistribution`]),
    /// rank-0 scalars and arbitrarily large blocks included. Returns
    /// `None` only for a plan without descriptors (the enumeration
    /// oracle [`crate::plan_by_enumeration`]); the typed reason is
    /// available from [`CopyProgram::compile_checked`].
    pub fn try_compile(plan: &RedistPlan, schedule: &CommSchedule) -> Option<CopyProgram> {
        CopyProgram::compile_checked(plan, schedule).ok()
    }

    /// [`CopyProgram::try_compile`] with the decline reason made
    /// explicit.
    pub fn compile_checked(
        plan: &RedistPlan,
        schedule: &CommSchedule,
    ) -> Result<CopyProgram, CompileDecline> {
        CopyProgram::compile_inner(plan, schedule, false)
    }

    /// Every unit of the program: the local group, then the wire
    /// rounds in order.
    pub(crate) fn units(&self) -> impl Iterator<Item = &CopyUnit> {
        self.local.iter().chain(self.rounds.iter().flatten())
    }

    /// [`CopyProgram::try_compile`], parameterized over whether empty
    /// rounds are kept: a member program of a [`GroupCopyProgram`] is
    /// compiled against the *merged* schedule of its whole remap group,
    /// and must keep one (possibly empty) unit list per merged round so
    /// round `r` means the same wire round for every member.
    fn compile_inner(
        plan: &RedistPlan,
        schedule: &CommSchedule,
        keep_empty_rounds: bool,
    ) -> Result<CopyProgram, CompileDecline> {
        let (src, dst) = plan.mappings.as_deref().ok_or(CompileDecline::NoDescriptors)?;
        let rank = src.array_extents.rank();
        if plan.dims.len() != rank {
            return Err(CompileDecline::NoDescriptors);
        }
        let mappings = std::sync::Arc::clone(plan.mappings.as_ref().expect("checked above"));
        if plan.dims.iter().any(|e| e.is_empty()) {
            // Empty array: a program with nothing to do (round-aligned
            // when asked, so group replay can still index by round).
            let rounds = if keep_empty_rounds {
                vec![Vec::new(); schedule.rounds.len()]
            } else {
                Vec::new()
            };
            return Ok(CopyProgram {
                mappings,
                fams: Vec::new(),
                runs: Vec::new(),
                local: Vec::new(),
                rounds,
                total_elements: 0,
            });
        }
        let per_dim = &plan.dims;

        // Message (from, to) -> caterpillar round, from the schedule.
        let round_of: BTreeMap<(u64, u64), usize> = schedule.round_of_pairs().collect();

        // Accumulate runs per (provider, receiver) pair — the planner's
        // shared combination walk (rank assembly, replica fan-out,
        // receiver self-preference live there exactly once), recording
        // positions. A rank-0 scalar walks one combination per
        // destination replica. Each visited entry's intersection runs
        // are derived into reused per-dimension buffers.
        let n_of = |d: usize| src.array_extents.extent(d);
        let mut acc: BTreeMap<(u64, u64), Vec<CopyRun>> = BTreeMap::new();
        let mut runs_by_dim: Vec<Vec<(u64, u64)>> = vec![Vec::new(); rank];
        let mut entries_ref: Vec<&DimContribution> = Vec::with_capacity(rank);
        crate::redist::for_each_pair_combination(src, dst, per_dim, |provider, to, idx| {
            entries_ref.clear();
            for (d, runs) in runs_by_dim.iter_mut().enumerate() {
                let e = &per_dim[d][idx[d]];
                entries_ref.push(e);
                runs.clear();
                runs.extend(intersect_runs(&e.src_set, &e.dst_set, 0, n_of(d)));
            }
            record_combination(&runs_by_dim, &entries_ref, acc.entry((provider, to)).or_default());
        });

        // Assemble: stride-encode each (provider, receiver) pair's runs
        // into families plus an irregular residual, and partition units
        // into the local group and the schedule's rounds. BTreeMap
        // iteration gives (provider, receiver) order; re-sorting each
        // group by receiver keeps the parallel executor's block walk a
        // single pass.
        let mut fams = Vec::new();
        let mut runs = Vec::new();
        let mut local = Vec::new();
        let mut rounds: Vec<Vec<CopyUnit>> = vec![Vec::new(); schedule.rounds.len()];
        let mut total_elements = 0u64;
        for ((provider, receiver), mut rs) in acc {
            let (f_start, r_start) = (fams.len(), runs.len());
            let elements: u64 = rs.iter().map(|r| r.len).sum();
            encode_runs(&mut rs, &mut fams, &mut runs);
            total_elements += elements;
            let unit = CopyUnit {
                provider,
                receiver,
                fams: (f_start, fams.len()),
                runs: (r_start, runs.len()),
                kernel: choose_kernel(&fams[f_start..], &runs[r_start..]),
                elements,
            };
            if provider == receiver {
                local.push(unit);
            } else {
                let r = *round_of
                    .get(&(provider, receiver))
                    .expect("every remote pair has a scheduled message");
                rounds[r].push(unit);
            }
        }
        for round in &mut rounds {
            round.sort_by_key(|u| u.receiver);
        }
        if !keep_empty_rounds {
            rounds.retain(|r| !r.is_empty());
        }
        debug_assert_eq!(
            total_elements,
            plan.local_elements + plan.remote_elements(),
            "compiled program delivers exactly the planned volume"
        );
        Ok(CopyProgram { mappings, fams, runs, local, rounds, total_elements })
    }

    /// Whether this program was compiled for exactly the
    /// (`src`, `dst`) mapping pair — the guard a replay applies before
    /// trusting the program's positions (an allocation-free structural
    /// comparison).
    pub fn compiled_for(&self, src: &VersionData, dst: &VersionData) -> bool {
        self.mappings.0 == src.mapping && self.mappings.1 == dst.mapping
    }

    /// Replay the program: move every precompiled run from `src`'s
    /// blocks into `dst`'s — the one-mover, unguarded call of the round
    /// replay (`replay_rounds`). The caller guarantees `dst`/`src` are
    /// the version pair the program was compiled for (checked by
    /// [`CopyProgram::compiled_for`] in the public entry point).
    pub(crate) fn execute(&self, dst: &mut VersionData, src: &VersionData, mode: ExecMode) {
        debug_assert_eq!(dst.mapping.array_extents, src.mapping.array_extents);
        replay_rounds(std::slice::from_ref(self), &mut Movers::Pair(src, dst), mode.threads());
    }
}

/// The version storage a remap's compiled programs replay between. A
/// *mover* is one program (`progs[slot]` in the replay calls) bound to
/// its (source, destination) version pair; a solo remap and a bare
/// program replay have one mover, a coalesced remap group one per
/// masked-in member.
pub(crate) enum Movers<'a, 'm> {
    /// One mover, slot 0.
    Pair(&'a VersionData, &'a mut VersionData),
    /// The members of a remap group (at most 64) whose bit is set in
    /// the mask; the slot is the member index. Every mover's source and
    /// target copy must be allocated (the group checks and allocates
    /// them before replaying).
    Group(&'a mut [GroupMember<'m>], u64),
}

impl Movers<'_, '_> {
    /// `(slot count, mask of the slots that move)`.
    pub(crate) fn mask(&self) -> (usize, u64) {
        match self {
            Movers::Pair(..) => (1, 1),
            Movers::Group(members, mask) => (members.len(), *mask),
        }
    }

    /// Visit every mover's version pair, in slot order.
    pub(crate) fn each<'r>(
        &'r mut self,
        mut f: impl FnMut(usize, &'r VersionData, &'r mut VersionData),
    ) {
        match self {
            Movers::Pair(src, dst) => f(0, src, dst),
            Movers::Group(members, mask) => {
                for (i, m) in members.iter_mut().enumerate() {
                    if *mask & (1 << i) != 0 {
                        let (src, dst) = version_pair(&mut m.rt.copies, m.src, m.target);
                        f(i, src, dst);
                    }
                }
            }
        }
    }

    /// Visit every mover's units of `round` (see [`round_units`]) with
    /// its program and version pair. Movers with no units in the round
    /// are skipped.
    fn each_round<'r>(
        &'r mut self,
        progs: &'r [CopyProgram],
        round: usize,
        mut f: impl FnMut(&'r CopyProgram, &'r [CopyUnit], &'r VersionData, &'r mut VersionData),
    ) {
        let mut units = round_units(progs, self.mask(), round);
        self.each(|_, src, dst| {
            let (slot, us) = units.next().expect("one unit list per mover");
            if !us.is_empty() {
                f(&progs[slot], us, src, dst);
            }
        });
    }
}

/// The movers' units of `round` — round 0 is the local group, round
/// `r + 1` the program's wire round `r` — as `(slot, units)` in slot
/// order.
fn round_units(
    progs: &[CopyProgram],
    movers: (usize, u64),
    round: usize,
) -> impl Iterator<Item = (usize, &[CopyUnit])> {
    slots_of(movers).map(move |i| {
        let p = &progs[i];
        let units = match round {
            0 => &p.local[..],
            r => p.rounds.get(r - 1).map_or(&[][..], Vec::as_slice),
        };
        (i, units)
    })
}

/// The slots of a `(slot count, mask)` mover set ([`Movers::mask`]).
fn slots_of((slots, mask): (usize, u64)) -> impl Iterator<Item = usize> {
    (0..slots).filter(move |i| mask & (1 << i) != 0)
}

/// Rounds the movers replay: the local group plus the longest mover's
/// wire rounds (a group's member programs all share the merged count).
fn n_rounds(progs: &[CopyProgram], movers: (usize, u64)) -> usize {
    1 + slots_of(movers).map(|i| progs[i].rounds.len()).max().unwrap_or(0)
}

/// `(units, elements)` of one round across every mover.
pub(crate) fn round_load(
    progs: &[CopyProgram],
    movers: (usize, u64),
    round: usize,
) -> (usize, u64) {
    round_units(progs, movers, round).fold((0, 0), |(n, w), (_, us)| {
        (n + us.len(), w + us.iter().map(|u| u.elements).sum::<u64>())
    })
}

/// Replay every round of every mover, in round order — allocation-free
/// when `threads == 1` or every round is below the inline threshold.
pub(crate) fn replay_rounds(progs: &[CopyProgram], movers: &mut Movers<'_, '_>, threads: usize) {
    let mask = movers.mask();
    for round in 0..n_rounds(progs, mask) {
        let (units, weight) = round_load(progs, mask, round);
        if units > 0 {
            replay_round(progs, movers, round, units, weight, threads);
        }
    }
}

/// The one round replay: move the `units` units of round `round`
/// (`weight` elements) of every mover. Rounds below
/// [`PARALLEL_THRESHOLD`] elements, and every round when `threads` is
/// 1, replay inline ([`round_goes_inline`]): a thread spawn costs tens
/// of microseconds, which only a round with real volume can amortize.
/// Otherwise each unit is paired with its receiving block — receivers
/// are distinct within a mover's round (caterpillar contention-freedom)
/// and across movers (each writes its own array's storage) — and the
/// pool is split across scoped workers (`replay_chunked`).
fn replay_round(
    progs: &[CopyProgram],
    movers: &mut Movers<'_, '_>,
    round: usize,
    units: usize,
    weight: u64,
    threads: usize,
) {
    if threads > 1 && !round_goes_inline(weight) {
        let mut paired: Vec<PairedUnit<'_>> = Vec::with_capacity(units);
        movers.each_round(progs, round, |p, units, src, dst| {
            pair_round_units(units, &p.fams, &p.runs, src, dst, &mut paired)
        });
        replay_chunked(paired, weight, threads);
    } else {
        movers.each_round(progs, round, |p, units, src, dst| {
            for unit in units {
                let sb = src.blocks[unit.provider as usize]
                    .as_ref()
                    .expect("provider holds the data");
                let db = dst.blocks[unit.receiver as usize]
                    .as_mut()
                    .expect("receiver allocates the data");
                replay_unit(&p.fams, &p.runs, *unit, sb, db);
            }
        });
    }
}

/// One parallel-replay work item: the receiving block, the providing
/// block, the unit, and the family/run tables its ranges index.
type PairedUnit<'a> =
    (&'a mut LocalBlock, &'a LocalBlock, CopyUnit, &'a [StrideFamily], &'a [CopyRun]);

/// Pair one program's round units with their receiving blocks in a
/// single pass over the destination block table — valid because units
/// are sorted by receiver and receivers within a round are distinct
/// (the caterpillar contention-freedom), so every `&mut` handed out is
/// unique. Appends to `out` so callers can pool several programs'
/// units (the group replay) before spawning.
fn pair_round_units<'a>(
    units: &'a [CopyUnit],
    fams: &'a [StrideFamily],
    runs: &'a [CopyRun],
    src: &'a VersionData,
    dst: &'a mut VersionData,
    out: &mut Vec<PairedUnit<'a>>,
) {
    let mut it = units.iter().peekable();
    for (rank, slot) in dst.blocks.iter_mut().enumerate() {
        match it.peek() {
            Some(u) if u.receiver == rank as u64 => {
                let db = slot.as_mut().expect("receiver allocates the data");
                let sb = src.blocks[u.provider as usize]
                    .as_ref()
                    .expect("provider holds the data");
                out.push((db, sb, **u, fams, runs));
                it.next();
            }
            Some(_) => {}
            None => break,
        }
    }
    debug_assert!(it.next().is_none(), "round receivers are sorted and distinct");
}

/// Split paired units into contiguous chunks balanced by element count
/// (`total` elements across `threads` workers) and replay each chunk
/// on a scoped worker thread. Receivers are pairwise distinct across
/// the whole `paired` list by construction, so no locks are needed.
fn replay_chunked(paired: Vec<PairedUnit<'_>>, total: u64, threads: usize) {
    let target = total.div_ceil(threads as u64).max(1);
    std::thread::scope(|scope| {
        let mut rest = paired;
        while !rest.is_empty() {
            let mut weight = 0u64;
            let mut take = 0usize;
            while take < rest.len() && (take == 0 || weight < target) {
                weight += rest[take].2.elements;
                take += 1;
            }
            let tail = rest.split_off(take);
            let chunk = std::mem::replace(&mut rest, tail);
            scope.spawn(move || {
                for (db, sb, unit, fams, runs) in chunk {
                    replay_unit(fams, runs, unit, sb, db);
                }
            });
        }
    });
}

/// The compiled data movement of a whole remap group: one round-aligned
/// member [`CopyProgram`] per member plan of the group's merged
/// [`CommSchedule`]. Every member's `rounds[r]` holds its units of
/// merged wire round `r` (empty rounds kept), so the group replay
/// ([`crate::group::remap_group`]) can walk the rounds once and move
/// every member array's units of that round together — serially in
/// member order (receiving *blocks* are distinct across members: each
/// member writes its own array's storage) or split across scoped worker
/// threads in [`ExecMode::Parallel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCopyProgram {
    /// One round-aligned program per member plan, in group order; every
    /// member has exactly `n_rounds` round unit lists.
    pub members: Vec<CopyProgram>,
    /// Merged wire round count (`== merged schedule's rounds.len()`).
    pub n_rounds: usize,
    /// Total elements delivered across all members (local + remote,
    /// replicas counted).
    pub total_elements: u64,
}

impl GroupCopyProgram {
    /// Compile every member plan against the group's merged schedule.
    ///
    /// Panics if a member plan carries no descriptors (an
    /// enumeration-oracle plan); every plan a [`PlannedRemap`] holds
    /// has them.
    ///
    /// [`PlannedRemap`]: crate::PlannedRemap
    pub fn compile(plans: &[&RedistPlan], merged: &CommSchedule) -> GroupCopyProgram {
        let members: Vec<CopyProgram> = plans
            .iter()
            .map(|p| {
                CopyProgram::compile_inner(p, merged, true)
                    .expect("group member plans carry descriptors")
            })
            .collect();
        debug_assert!(members.iter().all(|m| m.rounds.len() == merged.rounds.len()));
        let total_elements = members.iter().map(|m| m.total_elements).sum();
        GroupCopyProgram { members, n_rounds: merged.rounds.len(), total_elements }
    }
}

/// Below this many elements a round is replayed inline even in
/// [`ExecMode::Parallel`] — the scoped-thread spawns would cost more
/// than the copy itself.
pub(crate) const PARALLEL_THRESHOLD: u64 = 1 << 15;

/// The one inline-vs-parallel decision: a round of `total` elements
/// replays inline iff it is strictly below [`PARALLEL_THRESHOLD`], so a
/// round of exactly threshold size takes the same engine for a solo
/// remap and a group.
#[inline]
pub(crate) fn round_goes_inline(total: u64) -> bool {
    total < PARALLEL_THRESHOLD
}

/// Fewest runs an arithmetic progression must cover before the encoder
/// emits a [`StrideFamily`] instead of residual triples — below this a
/// 48-byte descriptor plus loop control beats 24-byte triples by too
/// little to matter.
pub(crate) const MIN_FAMILY: usize = 4;

/// Stride-encode one (provider, receiver) pair's runs: coalesce
/// adjacent contiguous-in-both runs (in place), then greedily detect
/// arithmetic progressions in `(src_pos, dst_pos)` of equal-length
/// runs. Runs of ≥ [`MIN_FAMILY`] progressions become [`StrideFamily`]
/// descriptors appended to `fams`; the genuinely irregular remainder is
/// appended to `runs`. Positions within one pair are produced in
/// ascending destination order by the combination walk, so steps are
/// non-negative; combination boundaries (where positions may jump
/// backward) simply break the progression.
fn encode_runs(rs: &mut Vec<CopyRun>, fams: &mut Vec<StrideFamily>, runs: &mut Vec<CopyRun>) {
    // Pass 1: merge runs contiguous on BOTH sides — a unit-stride
    // span is one memcpy at replay, however the walk sliced it.
    let mut kept = 0usize;
    for i in 0..rs.len() {
        let r = rs[i];
        match kept.checked_sub(1).map(|k| &mut rs[k]) {
            Some(last)
                if last.src_pos + last.len == r.src_pos
                    && last.dst_pos + last.len == r.dst_pos =>
            {
                last.len += r.len;
            }
            _ => {
                rs[kept] = r;
                kept += 1;
            }
        }
    }
    rs.truncate(kept);
    let co = &rs[..];
    // Pass 2: greedy arithmetic-progression detection.
    let mut i = 0usize;
    while i < co.len() {
        let mut j = i;
        let mut src_step = 0u64;
        let mut dst_step = 0u64;
        if let Some(next) = co.get(i + 1) {
            if next.len == co[i].len {
                if let (Some(ss), Some(ds)) = (
                    next.src_pos.checked_sub(co[i].src_pos),
                    next.dst_pos.checked_sub(co[i].dst_pos),
                ) {
                    src_step = ss;
                    dst_step = ds;
                    j = i + 1;
                    while j + 1 < co.len()
                        && co[j + 1].len == co[i].len
                        && co[j + 1].src_pos.checked_sub(co[j].src_pos) == Some(src_step)
                        && co[j + 1].dst_pos.checked_sub(co[j].dst_pos) == Some(dst_step)
                    {
                        j += 1;
                    }
                }
            }
        }
        let count = j - i + 1;
        if count >= MIN_FAMILY {
            fams.push(StrideFamily {
                src_base: co[i].src_pos,
                dst_base: co[i].dst_pos,
                count: count as u64,
                src_step,
                dst_step,
                len: co[i].len,
            });
            i = j + 1;
        } else {
            runs.push(co[i]);
            i += 1;
        }
    }
}

/// Pick the replay kernel for one unit's encoded runs — decided once
/// at compile time so replay pays zero per-run classification.
fn choose_kernel(fams: &[StrideFamily], runs: &[CopyRun]) -> Kernel {
    match (fams.is_empty(), runs.is_empty()) {
        // A unit-stride span coalesces to a single residual triple:
        // the whole unit is one memcpy.
        (true, false) if runs.len() == 1 => Kernel::Memcpy,
        (false, true) if fams.iter().all(|f| f.len == 1) => Kernel::Gather,
        (false, true) => Kernel::Strided,
        _ => Kernel::Mixed,
    }
}

/// Replay every run of one stride family.
#[inline]
fn replay_family(f: &StrideFamily, src: &LocalBlock, dst: &mut LocalBlock) {
    let (mut s, mut d) = (f.src_base as usize, f.dst_base as usize);
    let (ss, ds, len) = (f.src_step as usize, f.dst_step as usize, f.len as usize);
    if len == 1 {
        for _ in 0..f.count {
            dst.data[d] = src.data[s];
            s += ss;
            d += ds;
        }
    } else {
        for _ in 0..f.count {
            dst.data[d..d + len].copy_from_slice(&src.data[s..s + len]);
            s += ss;
            d += ds;
        }
    }
}

/// Replay one unit's residual runs (the flat loop).
#[inline]
fn replay_runs(runs: &[CopyRun], unit: CopyUnit, src: &LocalBlock, dst: &mut LocalBlock) {
    for r in &runs[unit.runs.0..unit.runs.1] {
        let (s, d, len) = (r.src_pos as usize, r.dst_pos as usize, r.len as usize);
        if len == 1 {
            dst.data[d] = src.data[s];
        } else {
            dst.data[d..d + len].copy_from_slice(&src.data[s..s + len]);
        }
    }
}

/// Replay one unit by dispatching to the kernel chosen at compile
/// time: unit-stride → one `copy_from_slice` (memcpy), single-element
/// families → a tight scalar gather/scatter loop, general families →
/// a blocked strided loop, irregular residue → families then the flat
/// run loop.
#[inline]
fn replay_unit(
    fams: &[StrideFamily],
    runs: &[CopyRun],
    unit: CopyUnit,
    src: &LocalBlock,
    dst: &mut LocalBlock,
) {
    match unit.kernel {
        Kernel::Memcpy => {
            let r = runs[unit.runs.0];
            let (s, d, len) = (r.src_pos as usize, r.dst_pos as usize, r.len as usize);
            dst.data[d..d + len].copy_from_slice(&src.data[s..s + len]);
        }
        Kernel::Gather => {
            for f in &fams[unit.fams.0..unit.fams.1] {
                let (mut s, mut d) = (f.src_base as usize, f.dst_base as usize);
                let (ss, ds) = (f.src_step as usize, f.dst_step as usize);
                for _ in 0..f.count {
                    dst.data[d] = src.data[s];
                    s += ss;
                    d += ds;
                }
            }
        }
        Kernel::Strided => {
            for f in &fams[unit.fams.0..unit.fams.1] {
                replay_family(f, src, dst);
            }
        }
        Kernel::Mixed => {
            for f in &fams[unit.fams.0..unit.fams.1] {
                replay_family(f, src, dst);
            }
            replay_runs(runs, unit, src, dst);
        }
    }
}

/// Record the `(src_pos, dst_pos, len)` runs of one descriptor
/// combination: `runs_by_dim[d]` are the intersection runs of
/// `entries[d]`. Local positions come from the periodic descriptors in
/// closed form: the position of global index `g` in an owned-index list
/// is the number of owned indices below `g`
/// (`PeriodicSet::count_below`), and a block's local extent along a
/// dimension is `|src_set|` / `|dst_set|`. A rank-0 scalar is one
/// single-element run at position 0 on both sides.
fn record_combination(
    runs_by_dim: &[Vec<(u64, u64)>],
    entries: &[&DimContribution],
    out: &mut Vec<CopyRun>,
) {
    let rank = runs_by_dim.len();
    if rank == 0 {
        out.push(CopyRun { src_pos: 0, dst_pos: 0, len: 1 });
        return;
    }
    let last = rank - 1;
    let e_last = entries[last];
    let s_len: Vec<u64> = entries.iter().map(|e| e.src_set.count()).collect();
    let d_len: Vec<u64> = entries.iter().map(|e| e.dst_set.count()).collect();
    // Odometer over the outer dimensions, one global index at a time:
    // per dimension, (run index, offset inside the run).
    let mut cur = vec![(0usize, 0u64); last];
    loop {
        let mut d_pref = 0u64;
        let mut s_pref = 0u64;
        for d in 0..last {
            let (ri, off) = cur[d];
            let g = runs_by_dim[d][ri].0 + off;
            d_pref = d_pref * d_len[d] + entries[d].dst_set.count_below(g);
            s_pref = s_pref * s_len[d] + entries[d].src_set.count_below(g);
        }
        for &(lo, hi) in &runs_by_dim[last] {
            let dp = e_last.dst_set.count_below(lo);
            let sp = e_last.src_set.count_below(lo);
            out.push(CopyRun {
                src_pos: s_pref * s_len[last] + sp,
                dst_pos: d_pref * d_len[last] + dp,
                len: hi - lo,
            });
        }
        // Advance the outer odometer (innermost outer dim fastest).
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            let (ref mut ri, ref mut off) = cur[d];
            *off += 1;
            if runs_by_dim[d][*ri].0 + *off < runs_by_dim[d][*ri].1 {
                break;
            }
            *off = 0;
            *ri += 1;
            if *ri < runs_by_dim[d].len() {
                break;
            }
            *ri = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{testing::mapping_1d as mk, DimFormat, NormalizedMapping};

    fn compiled(src: &NormalizedMapping, dst: &NormalizedMapping) -> (RedistPlan, CopyProgram) {
        let plan = plan_redistribution(src, dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        (plan, prog)
    }

    #[test]
    fn program_replays_block_to_cyclic() {
        let src = mk(16, 4, DimFormat::Block(None));
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let (plan, prog) = compiled(&src, &dst);
        assert_eq!(prog.n_elements(), plan.local_elements + plan.remote_elements());
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64 + 1.0);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        // Parallel replay writes the identical bytes.
        let mut c = VersionData::new(b.mapping.clone(), 8);
        c.copy_values_from_program(&a, &prog, ExecMode::Parallel(3));
        assert_eq!(b, c);
    }

    #[test]
    fn program_rounds_mirror_schedule_and_are_receiver_disjoint() {
        let src = mk(60, 4, DimFormat::Cyclic(Some(3)));
        let dst = mk(60, 5, DimFormat::Cyclic(Some(2)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::try_compile(&plan, &schedule).expect("compiles");
        // One remote unit per scheduled message.
        let n_units: usize = prog.rounds.iter().map(Vec::len).sum();
        assert_eq!(n_units, schedule.messages.len());
        for round in &prog.rounds {
            let mut receivers: Vec<u64> = round.iter().map(|u| u.receiver).collect();
            receivers.dedup();
            assert_eq!(receivers.len(), round.len(), "receivers distinct within a round");
        }
        // Local units: one per receiver, distinct by construction.
        let mut local: Vec<u64> = prog.local.iter().map(|u| u.receiver).collect();
        local.dedup();
        assert_eq!(local.len(), prog.local.len());
    }

    #[test]
    fn threaded_replay_above_threshold_matches_serial() {
        // Rounds of ~65k elements: well above PARALLEL_THRESHOLD, so
        // Parallel(3) really spawns scoped workers with split blocks.
        let n = 1u64 << 18;
        let src = mk(n, 4, DimFormat::Block(None));
        let dst = mk(n, 4, DimFormat::Cyclic(Some(2)));
        let (plan, prog) = compiled(&src, &dst);
        assert!(
            prog.rounds.iter().any(|r| r.iter().map(|u| u.elements).sum::<u64>()
                >= PARALLEL_THRESHOLD),
            "test must cross the inline threshold"
        );
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 509) as f64);
        let mut serial = VersionData::new(dst, 8);
        serial.copy_values_from_program(&a, &prog, ExecMode::Serial);
        let mut parallel = VersionData::new(serial.mapping.clone(), 8);
        parallel.copy_values_from_program(&a, &prog, ExecMode::Parallel(3));
        assert_eq!(serial, parallel);
        assert_eq!(prog.n_elements(), plan.local_elements + plan.remote_elements());
    }

    #[test]
    fn oracle_plans_do_not_compile() {
        let src = mk(12, 3, DimFormat::Block(None));
        let dst = mk(12, 3, DimFormat::Cyclic(None));
        let plan = crate::redist::plan_by_enumeration(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert!(CopyProgram::try_compile(&plan, &schedule).is_none());
    }

    #[test]
    fn exec_mode_threads() {
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Parallel(4).threads(), 4);
        assert_eq!(ExecMode::Parallel(0).threads(), 1);
    }

    #[test]
    fn exec_mode_parse_distinguishes_unparsable_values() {
        assert_eq!(ExecMode::parse("4"), Some(ExecMode::Parallel(4)));
        assert_eq!(ExecMode::parse(" 2 "), Some(ExecMode::Parallel(2)));
        assert_eq!(ExecMode::parse("1"), Some(ExecMode::Serial));
        assert_eq!(ExecMode::parse("0"), Some(ExecMode::Serial));
        // Unparsable values are `None`, so `from_env` can warn instead
        // of silently serializing.
        assert_eq!(ExecMode::parse("four"), None);
        assert_eq!(ExecMode::parse(""), None);
        assert_eq!(ExecMode::parse("-3"), None);
    }

    #[test]
    fn compile_checked_reports_typed_declines() {
        // Enumeration-oracle plans carry no descriptors.
        let src = mk(12, 3, DimFormat::Block(None));
        let dst = mk(12, 3, DimFormat::Cyclic(None));
        let plan = crate::redist::plan_by_enumeration(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        assert_eq!(
            CopyProgram::compile_checked(&plan, &schedule),
            Err(CompileDecline::NoDescriptors)
        );
    }

    #[test]
    fn cyclic1_collapses_to_gather_families() {
        // Block → Cyclic(1): a flat encoding stores one run per
        // element; the stride encoder collapses every (provider,
        // receiver) pair to one gather family.
        let n = 1u64 << 18;
        let src = mk(n, 16, DimFormat::Block(None));
        let dst = mk(n, 16, DimFormat::Cyclic(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.len() <= 16 * 16, "O(P_src × P_dst) descriptors");
        assert!(prog.runs.is_empty(), "no irregular remainder in the cyclic(1) shape");
        assert_eq!(prog.n_runs(), n, "still n logical single-element runs");
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Gather);
        }
        // ≥100× smaller than the same runs stored flat (one CopyRun
        // per element, same units).
        let units = prog.local.len() + prog.rounds.iter().map(Vec::len).sum::<usize>();
        let flat = n as usize * std::mem::size_of::<CopyRun>()
            + units * std::mem::size_of::<CopyUnit>();
        assert!(
            prog.artifact_bytes() * 100 <= flat,
            "strided artifact {}B vs flat {flat}B",
            prog.artifact_bytes()
        );
        // Serial and parallel replay write the source's values.
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] % 1021) as f64);
        let mut b = VersionData::new(dst.clone(), 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        let mut d = VersionData::new(dst, 8);
        d.copy_values_from_program(&a, &prog, ExecMode::Parallel(4));
        assert_eq!(b, d);
    }

    #[test]
    fn kernels_match_unit_shapes() {
        // Block-cyclic destination: equal-length runs on a constant
        // stride — every unit compiles to the blocked strided kernel.
        let src = mk(4096, 4, DimFormat::Block(None));
        let dst = mk(4096, 4, DimFormat::Cyclic(Some(8)));
        let (_, prog) = compiled(&src, &dst);
        assert!(!prog.fams.is_empty());
        assert!(prog.fams.iter().all(|f| f.len == 8));
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Strided);
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64 + 0.5);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
        // Block → block: each pair's contribution is contiguous on
        // both sides, coalesces to one triple, and the whole unit is a
        // single memcpy.
        let src = mk(64, 4, DimFormat::Block(None));
        let dst = mk(64, 2, DimFormat::Block(None));
        let (_, prog) = compiled(&src, &dst);
        assert!(prog.fams.is_empty());
        for u in prog.local.iter().chain(prog.rounds.iter().flatten()) {
            assert_eq!(u.kernel, Kernel::Memcpy);
            assert_eq!(u.runs.1 - u.runs.0, 1);
        }
        let mut a = VersionData::new(src, 8);
        a.fill(|p| p[0] as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from_program(&a, &prog, ExecMode::Serial);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn giant_single_block_compiles_to_one_memcpy_unit() {
        // A single 6 Gi-element block: local positions beyond
        // u32::MAX. Planning and compiling are closed-form — nothing
        // here allocates the array — and the whole movement is one
        // local unit-stride span: a single memcpy.
        let n = 6u64 << 30;
        let src = mk(n, 1, DimFormat::Block(None));
        let dst = mk(n, 1, DimFormat::Cyclic(Some(3)));
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let prog = CopyProgram::try_compile(&plan, &schedule).expect("closed-form plans compile");
        assert_eq!(prog.n_elements(), n);
        assert!(prog.rounds.is_empty(), "one rank: nothing on the wire");
        assert_eq!(prog.local.len(), 1);
        assert_eq!(prog.local[0].kernel, Kernel::Memcpy);
        assert_eq!(prog.runs, vec![CopyRun { src_pos: 0, dst_pos: 0, len: n }]);
    }

    #[test]
    fn rank0_scalar_compiles_to_one_memcpy_unit_per_replica() {
        use hpfc_mapping::{
            AlignTarget, Alignment, Distribution, Extents, GridId, Mapping, ProcGrid, Template,
            TemplateId,
        };
        // A scalar aligned to template cell `c` (one owner), or
        // replicated over the grid (every rank holds it).
        let scalar = |target: AlignTarget| {
            let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[8]) };
            let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[4]) };
            Mapping {
                align: Alignment { template: TemplateId(0), targets: vec![target] },
                dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
            }
            .normalize(&Extents::new(&[]), &t, &g)
            .expect("rank-0 mapping is well-formed")
        };
        let on0 = scalar(AlignTarget::Constant(0));
        let on3 = scalar(AlignTarget::Constant(7));
        let everywhere = scalar(AlignTarget::Replicate);
        for (src, dst, units) in [(&on0, &on3, 1), (&on0, &everywhere, 4), (&everywhere, &on3, 1)] {
            let (plan, prog) = compiled(src, dst);
            let all: Vec<&CopyUnit> = prog.local.iter().chain(prog.rounds.iter().flatten()).collect();
            assert_eq!(all.len(), units, "one unit per destination replica");
            assert!(all.iter().all(|u| u.kernel == Kernel::Memcpy && u.elements == 1));
            assert_eq!(prog.n_elements(), plan.local_elements + plan.remote_elements());
            let mut a = VersionData::new(src.clone(), 8);
            a.fill(|_| 42.0);
            let mut b = VersionData::new(dst.clone(), 8);
            b.copy_values_from_program(&a, &prog, ExecMode::Serial);
            assert!(b.blocks.iter().flatten().all(|blk| blk.data == [42.0]), "every replica");
        }
    }

    #[test]
    fn inline_threshold_boundary_is_shared() {
        // The one inline-vs-parallel predicate: strictly below the
        // threshold is inline, exactly the threshold is not — the solo
        // and the group replay both use this.
        assert!(round_goes_inline(PARALLEL_THRESHOLD - 1));
        assert!(!round_goes_inline(PARALLEL_THRESHOLD));
        assert!(!round_goes_inline(PARALLEL_THRESHOLD + 1));
    }
}
