//! Fault injection, detection, and the self-healing recovery ladder of
//! the remap engine.
//!
//! The engine trusts artifacts it compiled earlier: cached
//! [`crate::CopyProgram`]s are replayed with no integrity check, and a
//! worker panic inside a parallel round would unwind through
//! `thread::scope`. Before the plan cache is shared between sessions
//! (the ROADMAP's remap-as-a-service leg) the engine needs a failure
//! model: a poisoned cache entry or one bad round must degrade, not
//! take down every session. This module provides the three pieces:
//!
//! * **Injection** — a seedable, deterministic [`FaultPlan`]
//!   (`Machine::with_faults` or the `HPFC_FAULTS` environment
//!   variable). Faults are decided by a pure hash of
//!   `(seed, remap epoch, round, attempt)`, so a failing execution
//!   replays bit-identically, and a *retry* of the same round rolls a
//!   fresh decision — exactly the recoverable-transient regime the
//!   ladder is built for. The deterministic caterpillar round structure
//!   makes the injection points well-defined: a fault hits *a chosen
//!   round of a chosen remap*, never a vague interleaving.
//! * **Detection** — per-round conservation counts (elements replayed
//!   vs. schedule-planned), optional per-unit checksums over the copied
//!   words ([`ValidationLevel::Checksums`]), and a compile-time
//!   fingerprint over every cached program's triples
//!   ([`crate::CopyProgram::integrity_ok`]).
//! * **Recovery** — one driver for every remap, solo or grouped
//!   (`replay_with_recovery`, over the same movers as the unguarded
//!   replay): check shapes, program fingerprints and blocks, then
//!   bounded retry of a failed round → recompile the programs from the
//!   cached plans (the caller repairs its cache entry) → a typed
//!   [`ExecError::Unrecovered`], with every destination rolled back
//!   byte-identically by the caller's transaction. Worker panics are
//!   caught with `catch_unwind` and degrade `Parallel(t)` → `Serial`
//!   for that round only.
//!
//! When no faults are configured and validation is
//! [`ValidationLevel::Off`], none of this is on the remap path: the
//! driver goes straight to the unguarded round replay
//! (allocation-free, pinned by `alloc_free.rs` and the
//! `redist/fault_overhead` bench).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::exec::{
    flip_unit_word, mix64, n_rounds, replay_round, replay_rounds, round_goes_inline, round_load,
    round_units, slots_of, unit_dst_sum, unit_n_runs, unit_src_sum, CopyProgram, ExecMode,
    Movers,
};
use crate::machine::Machine;

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Scribble one delivered word of the round after replaying it
    /// (a wire bit-flip). Detected by checksums.
    CorruptRound,
    /// Replay only the first half of the round's units (a short wire
    /// read). Detected by conservation counts.
    TruncateRound,
    /// Replay none of the round's units (a lost message batch).
    /// Detected by conservation counts.
    DropRound,
    /// Panic a parallel worker halfway through its chunk. Caught with
    /// `catch_unwind`; the round degrades to serial replay.
    WorkerPanic,
    /// Corrupt the cached compiled program before the replay starts.
    /// Detected by the program fingerprint; healed by recompiling from
    /// the cached plan.
    PoisonProgram,
    /// Panic the plan → schedule → program compile itself (decided once
    /// per remap, fires only on a cold compile). Contained by
    /// `catch_unwind` in the registry's compile-under-lock (the shard
    /// `Mutex` is **not** poisoned) and recovered by a clean solo
    /// compile — exercising the typed
    /// [`crate::CompileDecline::Panicked`] path.
    CompilePanic,
    /// Force the whole recovery ladder to fail: every round attempt is
    /// rejected, so the remap surfaces a terminal
    /// [`ExecError::Unrecovered`] *after* partial writes happened — the
    /// scenario transactional rollback exists for.
    Exhaust,
}

impl FaultKind {
    const ALL: [FaultKind; 7] = [
        FaultKind::CorruptRound,
        FaultKind::TruncateRound,
        FaultKind::DropRound,
        FaultKind::WorkerPanic,
        FaultKind::PoisonProgram,
        FaultKind::CompilePanic,
        FaultKind::Exhaust,
    ];

    fn bit(self) -> u8 {
        match self {
            FaultKind::CorruptRound => 1,
            FaultKind::TruncateRound => 2,
            FaultKind::DropRound => 4,
            FaultKind::WorkerPanic => 8,
            FaultKind::PoisonProgram => 16,
            FaultKind::CompilePanic => 32,
            FaultKind::Exhaust => 64,
        }
    }

    /// The wire-level (per-round) kinds; `PoisonProgram` is decided
    /// once per remap instead.
    const WIRE: [FaultKind; 4] = [
        FaultKind::CorruptRound,
        FaultKind::TruncateRound,
        FaultKind::DropRound,
        FaultKind::WorkerPanic,
    ];

    /// Every kind the recovery ladder heals on its own — [`Self::ALL`]
    /// minus the terminal `Exhaust`, which *forces* a typed failure.
    /// This is the set the `HPFC_FAULTS` defaults select, so blanket
    /// chaos runs (`HPFC_FAULTS=7 cargo test`) stay green: terminal
    /// faults must be asked for by name (`kinds=…+exhaust`).
    const RECOVERABLE: [FaultKind; 6] = [
        FaultKind::CorruptRound,
        FaultKind::TruncateRound,
        FaultKind::DropRound,
        FaultKind::WorkerPanic,
        FaultKind::PoisonProgram,
        FaultKind::CompilePanic,
    ];
}

/// A seedable, deterministic fault-injection plan. Decisions are a pure
/// hash of `(seed, remap epoch, round, attempt)`: the same execution
/// faults identically every run, and retrying a round re-rolls the
/// decision, so bounded retries converge unless the rate is 100%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Injection probability per decision point, in percent (0–100).
    rate: u32,
    kinds: u8,
}

impl FaultPlan {
    /// A plan injecting the given kinds at `rate` percent per decision
    /// point.
    pub fn new(seed: u64, rate: u32, kinds: &[FaultKind]) -> FaultPlan {
        let mask = kinds.iter().fold(0u8, |m, k| m | k.bit());
        FaultPlan { seed, rate: rate.min(100), kinds: mask }
    }

    /// A plan injecting **every** fault class at `rate` percent.
    pub fn all(seed: u64, rate: u32) -> FaultPlan {
        FaultPlan::new(seed, rate, &FaultKind::ALL)
    }

    /// The plan selected by the `HPFC_FAULTS` environment variable, if
    /// set. Accepted forms:
    ///
    /// * a bare integer — the seed, with a 10% rate and every
    ///   *recoverable* kind (the ladder heals them all, so a blanket
    ///   chaos run stays green);
    /// * a comma-separated list of `seed=N`, `rate=N` (percent) and
    ///   `kinds=a+b+c` with kinds among `corrupt`, `truncate`, `drop`,
    ///   `panic`, `poison`, `compilepanic`, `exhaust`. The terminal
    ///   `exhaust` — which forces the ladder to fail so the
    ///   transaction must roll back — is only injected when named
    ///   here explicitly.
    ///
    /// Unrecognized fragments are ignored (chaos configuration must
    /// never itself crash the engine). Realistic use pairs this with
    /// `HPFC_VALIDATE=checksums` so injected corruption is detected,
    /// not silently absorbed.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var("HPFC_FAULTS").ok()?;
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        if let Ok(seed) = raw.parse::<u64>() {
            return Some(FaultPlan::new(seed, 10, &FaultKind::RECOVERABLE));
        }
        let mut plan = FaultPlan::new(0, 10, &FaultKind::RECOVERABLE);
        for part in raw.split(',') {
            let Some((key, value)) = part.split_once('=') else { continue };
            match key.trim() {
                "seed" => {
                    if let Ok(s) = value.trim().parse() {
                        plan.seed = s;
                    }
                }
                "rate" => {
                    if let Ok(r) = value.trim().parse::<u32>() {
                        plan.rate = r.min(100);
                    }
                }
                "kinds" => {
                    let mut mask = 0u8;
                    for k in value.split('+') {
                        mask |= match k.trim() {
                            "corrupt" => FaultKind::CorruptRound.bit(),
                            "truncate" => FaultKind::TruncateRound.bit(),
                            "drop" => FaultKind::DropRound.bit(),
                            "panic" => FaultKind::WorkerPanic.bit(),
                            "poison" => FaultKind::PoisonProgram.bit(),
                            "compilepanic" => FaultKind::CompilePanic.bit(),
                            "exhaust" => FaultKind::Exhaust.bit(),
                            _ => 0,
                        };
                    }
                    if mask != 0 {
                        plan.kinds = mask;
                    }
                }
                _ => {}
            }
        }
        Some(plan)
    }

    fn site_hash(&self, epoch: u64, stream: u32, round: u32, attempt: u32) -> u64 {
        let site = ((stream as u64) << 48) ^ ((round as u64) << 16) ^ attempt as u64;
        mix64(self.seed ^ mix64(epoch.wrapping_mul(0x9E37_79B9).wrapping_add(site)))
    }

    /// The wire-level fault (if any) for one `(remap epoch, round,
    /// attempt)` decision point, plus a salt for victim selection.
    /// `stream` separates the original program's decision stream from a
    /// recompiled one's.
    pub(crate) fn round_fault(
        &self,
        epoch: u64,
        stream: u32,
        round: u32,
        attempt: u32,
    ) -> Option<(FaultKind, u64)> {
        let h = self.site_hash(epoch, stream, round, attempt);
        if (h % 100) as u32 >= self.rate {
            return None;
        }
        let enabled: Vec<FaultKind> =
            FaultKind::WIRE.iter().copied().filter(|k| self.kinds & k.bit() != 0).collect();
        if enabled.is_empty() {
            return None;
        }
        let pick = ((h >> 32) as usize) % enabled.len();
        Some((enabled[pick], h))
    }

    /// Whether this remap's cached program gets poisoned (decided once
    /// per remap epoch, before the replay starts).
    pub(crate) fn poison_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::PoisonProgram.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 3, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }

    /// Whether this remap's *compile* panics (decided once per remap
    /// epoch; only meaningful on a cold compile — a cache or registry
    /// hit never compiles).
    pub(crate) fn compile_panic_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::CompilePanic.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 4, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }

    /// Whether this remap's entire recovery ladder is forced to fail
    /// (decided once per remap epoch): every round attempt is rejected,
    /// so the remap ends in a terminal [`ExecError::Unrecovered`].
    pub(crate) fn exhaust_fires(&self, epoch: u64) -> bool {
        if self.kinds & FaultKind::Exhaust.bit() == 0 {
            return false;
        }
        let h = self.site_hash(epoch, 5, u32::MAX, 0);
        ((h % 100) as u32) < self.rate
    }
}

/// How much the guarded replay verifies per round. `Checksums` implies
/// the conservation counts of `Counts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ValidationLevel {
    /// No verification — with no faults configured this selects the
    /// unguarded allocation-free fast path.
    #[default]
    Off,
    /// Per-round conservation counts: elements replayed must equal the
    /// round's planned elements (catches dropped/truncated rounds).
    Counts,
    /// `Counts` plus per-unit checksums over the copied words: the sum
    /// of source words read must equal the sum of destination words
    /// written (catches any single-word corruption).
    Checksums,
}

impl ValidationLevel {
    /// The level selected by the `HPFC_VALIDATE` environment variable:
    /// `counts`, `checksums`, anything else (or unset) is `Off`.
    pub fn from_env() -> ValidationLevel {
        match std::env::var("HPFC_VALIDATE").as_deref().map(str::trim) {
            Ok("counts") => ValidationLevel::Counts,
            Ok("checksums") => ValidationLevel::Checksums,
            _ => ValidationLevel::Off,
        }
    }
}

/// A typed execution error — what the remap engine returns when the
/// recovery ladder cannot produce a correct result, replacing the
/// panic sites on the execution path. The interpreter propagates these
/// across its boundary instead of aborting the process.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// Source and destination extents differ — the promoted form of the
    /// replay's shape debug-assertion.
    ShapeMismatch {
        /// Source-side extents (debug rendering).
        src: String,
        /// Destination-side extents (debug rendering).
        dst: String,
    },
    /// A version copy the remap needs is not allocated.
    MissingCopy {
        /// Array name.
        array: String,
        /// The missing version subscript.
        version: u32,
    },
    /// A local block a compiled program references is unallocated.
    MissingBlock {
        /// Processor rank of the missing block.
        rank: u64,
        /// `"provider"` or `"receiver"`.
        side: &'static str,
    },
    /// The recovery ladder was exhausted without a clean replay.
    Unrecovered {
        /// What was being replayed.
        context: String,
    },
    /// A remap group's runtime member list disagrees with its planned
    /// group.
    GroupMismatch {
        /// Planned member count.
        planned: usize,
        /// Runtime member count.
        got: usize,
    },
    /// An array subscript computed at run time lies outside the
    /// declared bounds `1..=extent` (constant subscripts are rejected
    /// by semantic analysis; nothing is clamped).
    OutOfBounds {
        /// Array name.
        array: String,
        /// Dimension, 1-based as in the source.
        dim: usize,
        /// The subscript value, 1-based as in the source.
        index: i64,
        /// Declared extent of that dimension.
        extent: u64,
    },
    /// An interpreter-level invariant violation, reported instead of
    /// panicked.
    Interp {
        /// Description of the violated invariant.
        what: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ShapeMismatch { src, dst } => {
                write!(f, "shape mismatch: source extents {src}, destination extents {dst}")
            }
            ExecError::MissingCopy { array, version } => {
                write!(f, "array `{array}`: version {version} copy is not allocated")
            }
            ExecError::MissingBlock { rank, side } => {
                write!(f, "compiled program references unallocated {side} block on rank {rank}")
            }
            ExecError::Unrecovered { context } => {
                write!(f, "recovery ladder exhausted: {context}")
            }
            ExecError::GroupMismatch { planned, got } => {
                write!(f, "remap group has {got} members but {planned} were planned")
            }
            ExecError::OutOfBounds { array, dim, index, extent } => write!(
                f,
                "subscript {index} of `{array}` (dimension {dim}) is outside the declared \
                 bounds 1:{extent}"
            ),
            ExecError::Interp { what } => write!(f, "interpreter invariant violated: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The payload of an injected [`FaultKind::WorkerPanic`] — a marker
/// type so genuine panics remain distinguishable in captured output.
#[derive(Debug)]
pub struct InjectedPanic;

/// Corrupt a compiled program in place — the `PoisonProgram` fault.
/// Zeroing the source positions (family bases and residual triples
/// alike) keeps every run in bounds (because `pos + extent <=
/// block_len` implies the zero-based extent fits too) while changing
/// what the program copies; the fingerprint catches it either way.
pub(crate) fn poison_program(p: &mut CopyProgram) {
    for f in &mut p.fams {
        f.src_base = 0;
    }
    for r in &mut p.runs {
        r.src_pos = 0;
    }
    if p.integrity_ok() {
        // Degenerate program unchanged by the scribble (e.g. every
        // src_pos already 0): corrupt the fingerprint itself instead.
        p.fingerprint ^= 0x5A5A_5A5A;
    }
}

/// How one guarded round replay failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundFailure {
    /// Checksum mismatch between words read and words written.
    Mismatch,
    /// The replay (or one of its workers) panicked.
    Panicked,
}

/// Per-round facts the retry ladder needs to pick applicable faults
/// and validate conservation.
struct RoundCtx {
    /// Planned elements of the round (sum of its units' elements).
    expected: u64,
    /// Number of units in the round.
    units: usize,
    /// Round number for fault hashing (0 = the local group).
    round_no: u32,
}

/// Bound on replay attempts per round (1 initial + retries +
/// potentially one degraded re-run).
const MAX_ROUND_ATTEMPTS: u32 = 4;

/// Is `kind` a fault that can physically happen to this round under
/// this mode? (A worker can only panic if workers are actually
/// spawned; wire loss needs something on the wire.)
fn applicable(kind: FaultKind, mode: ExecMode, ctx: &RoundCtx) -> bool {
    match kind {
        FaultKind::WorkerPanic => {
            mode.threads() > 1 && !round_goes_inline(ctx.expected) && ctx.units > 0
        }
        FaultKind::CorruptRound | FaultKind::TruncateRound | FaultKind::DropRound => {
            ctx.expected > 0 && ctx.units > 0
        }
        // Decided per remap (not per round), so never drawn here.
        FaultKind::PoisonProgram | FaultKind::CompilePanic | FaultKind::Exhaust => false,
    }
}

/// The per-round rungs of the recovery ladder: decide an injected
/// fault, run the round through `replay` (which returns the elements it
/// delivered), validate counts, and on failure degrade a panicked
/// parallel round to serial or retry (bounded). `Err(())` means the
/// round is stuck (the caller escalates: recompile, then a typed
/// error).
fn run_round_ladder(
    machine: &mut Machine,
    ctx: &RoundCtx,
    epoch: u64,
    stream: u32,
    mut replay: impl FnMut(ExecMode, bool, Option<(FaultKind, u64)>) -> Result<u64, RoundFailure>,
) -> Result<(), ()> {
    let mut mode = machine.exec_mode;
    let checksums = machine.validation == ValidationLevel::Checksums;
    let counts = machine.validation >= ValidationLevel::Counts;
    // An exhaust fault rejects every attempt of every round — the
    // writes still happen, so the destination is left partially
    // written, which is exactly what transactional rollback must undo.
    let exhaust = machine.faults.as_ref().is_some_and(|f| f.exhaust_fires(epoch));
    let mut attempt = 0u32;
    loop {
        let fault = machine
            .faults
            .as_ref()
            .and_then(|f| f.round_fault(epoch, stream, ctx.round_no, attempt))
            .filter(|(k, _)| applicable(*k, mode, ctx));
        if fault.is_some() {
            machine.stats.faults_injected += 1;
        }
        let failure = match replay(mode, checksums, fault) {
            Ok(elements) => {
                if !exhaust && (!counts || elements == ctx.expected) {
                    return Ok(());
                }
                None // short round (or forced exhaustion): rejected
            }
            Err(f) => Some(f),
        };
        if failure == Some(RoundFailure::Panicked) && mode.threads() > 1 {
            // A panicked worker: degrade this round to serial replay.
            machine.stats.parallel_degradations += 1;
            mode = ExecMode::Serial;
        } else if attempt + 1 < MAX_ROUND_ATTEMPTS {
            machine.stats.rounds_retried += 1;
        } else {
            return Err(());
        }
        attempt += 1;
    }
}

/// One guarded attempt at one round: apply wire-loss faults to the
/// round's concatenated unit list (a drop replays none of it, a
/// truncation its first half), replay the rest through the one round
/// replay with panics caught, scribble the corruption victim (picked by
/// its index in the concatenation, so it can be any mover's unit), and
/// verify checksums. Returns the elements delivered.
fn replay_attempt(
    progs: &[CopyProgram],
    movers: &mut Movers<'_, '_>,
    round: usize,
    cut: usize,
    mode: ExecMode,
    checksums: bool,
    fault: Option<(FaultKind, u64)>,
) -> Result<u64, RoundFailure> {
    let (_, weight) = round_load(progs, movers.mask(), round, cut);
    let boom = matches!(fault, Some((FaultKind::WorkerPanic, _))).then_some(0);
    catch_unwind(AssertUnwindSafe(|| {
        replay_round(progs, movers, round, cut, weight, mode.threads(), boom)
    }))
    .map_err(|_| RoundFailure::Panicked)?;
    if let Some((FaultKind::CorruptRound, salt)) = fault {
        let mut victim = Some((salt % cut as u64) as usize);
        movers.each_round(progs, round, cut, |p, units, _, dst| {
            let Some(v) = victim else { return };
            if let Some(unit) = units.get(v) {
                let db = dst.blocks[unit.receiver as usize]
                    .as_mut()
                    .expect("receiver allocates the data");
                flip_unit_word(&p.fams, &p.runs, *unit, db);
                victim = None;
            } else {
                victim = Some(v - units.len());
            }
        });
    }
    if checksums {
        let (mut read, mut written) = (0u64, 0u64);
        movers.each_round(progs, round, cut, |p, units, src, dst| {
            for unit in units {
                let sb = src.blocks[unit.provider as usize]
                    .as_ref()
                    .expect("provider holds the data");
                let db = dst.blocks[unit.receiver as usize]
                    .as_ref()
                    .expect("receiver allocates the data");
                read = read.wrapping_add(unit_src_sum(&p.fams, &p.runs, *unit, sb));
                written = written.wrapping_add(unit_dst_sum(&p.fams, &p.runs, *unit, db));
            }
        });
        if read != written {
            return Err(RoundFailure::Mismatch);
        }
    }
    Ok(weight)
}

/// Every round of every mover under the guarded regime, each through
/// the retry ladder. `tally[slot]` receives the `(runs, elements)` the
/// authoritative (final successful) attempt of every round delivered
/// for that mover. `stream` separates the fault-decision stream of the
/// original programs from recompiled ones' (so a full re-replay after
/// recompilation rolls fresh decisions).
fn replay_guarded(
    machine: &mut Machine,
    progs: &[CopyProgram],
    movers: &mut Movers<'_, '_>,
    epoch: u64,
    stream: u32,
    tally: &mut [(u64, u64)],
) -> Result<(), ()> {
    let mask = movers.mask();
    tally.fill((0, 0));
    for round in 0..n_rounds(progs, mask) {
        let (units, expected) = round_load(progs, mask, round, usize::MAX);
        if units == 0 {
            continue;
        }
        let ctx = RoundCtx { expected, units, round_no: round as u32 };
        let mut cut = units;
        run_round_ladder(machine, &ctx, epoch, stream, |mode, checksums, fault| {
            cut = match fault {
                Some((FaultKind::DropRound, _)) => 0,
                Some((FaultKind::TruncateRound, _)) => units / 2,
                _ => units,
            };
            replay_attempt(progs, movers, round, cut, mode, checksums, fault)
        })?;
        for (slot, us) in round_units(progs, mask, round, cut) {
            tally[slot].0 += us.iter().map(|u| unit_n_runs(&progs[slot].fams, *u)).sum::<u64>();
            tally[slot].1 += us.iter().map(|u| u.elements).sum::<u64>();
        }
    }
    Ok(())
}

/// The one recovery driver: replay `cached[slot]` for every mover,
/// healing injected or real faults. `tally[slot]` receives each
/// mover's delivered `(runs, elements)`; `recompile` rebuilds every
/// slot's program from the cached plans. Returns the recompiled
/// programs when the ladder used them — the caller may repair its
/// cache with them.
///
/// With no faults configured, validation off and every program compiled
/// for its version pair, this is the unguarded round replay (the
/// allocation-free fast path). Otherwise it checks shapes, then
/// recompiles a foreign or fingerprint-failing program (rung 2 straight
/// away), checks that every referenced block exists, and replays every
/// round through the retry ladder (rung 1: bounded retry, worker panics
/// degrade the round to serial first). A stuck round escalates to one
/// recompile and a full re-replay (idempotent: every destination
/// position is rewritten), then to a typed [`ExecError::Unrecovered`] —
/// the caller's transaction restores the partially written
/// destinations.
pub(crate) fn replay_with_recovery(
    machine: &mut Machine,
    cached: &[CopyProgram],
    recompile: impl Fn() -> Option<Vec<CopyProgram>>,
    movers: &mut Movers<'_, '_>,
    epoch: u64,
    tally: &mut [(u64, u64)],
) -> Result<Option<Vec<CopyProgram>>, ExecError> {
    let fits = |progs: &[CopyProgram], movers: &mut Movers<'_, '_>| {
        let mut ok = true;
        movers.each(|slot, src, dst| ok &= progs[slot].compiled_for(src, dst));
        ok
    };
    if !machine.guarded() && fits(cached, movers) {
        replay_rounds(cached, movers, machine.exec_mode.threads());
        for slot in slots_of(movers.mask()) {
            tally[slot] = (cached[slot].n_runs(), cached[slot].n_elements());
        }
        return Ok(None);
    }
    let mut mismatch = None;
    movers.each(|_, src, dst| {
        if mismatch.is_none() && src.mapping.array_extents != dst.mapping.array_extents {
            mismatch = Some(ExecError::ShapeMismatch {
                src: format!("{:?}", src.mapping.array_extents),
                dst: format!("{:?}", dst.mapping.array_extents),
            });
        }
    });
    if let Some(e) = mismatch {
        return Err(e);
    }
    if machine.faults.as_ref().is_some_and(|f| f.exhaust_fires(epoch)) {
        machine.stats.faults_injected += 1;
    }
    let unrecovered =
        |why: &str| ExecError::Unrecovered { context: format!("remap epoch {epoch}: {why}") };
    // Rung 2, as a function: fresh programs from the cached plans.
    let recompile = |machine: &mut Machine, movers: &mut Movers<'_, '_>| {
        machine.stats.programs_recompiled += 1;
        recompile()
            .filter(|p| fits(p, movers))
            .ok_or_else(|| unrecovered("the cached plan does not compile for this version pair"))
    };
    let mut repaired = None;
    if !fits(cached, movers) || !cached.iter().all(CopyProgram::integrity_ok) {
        // Poisoned (or foreign) cached program: rung 2 straight away.
        repaired = Some(recompile(machine, movers)?);
    }
    let progs = repaired.as_deref().unwrap_or(cached);
    // Every block a program references must exist before the replay
    // starts — the promoted form of the replay's `expect`s.
    let mut missing = None;
    movers.each(|slot, src, dst| {
        let p = &progs[slot];
        for unit in p.local.iter().chain(p.rounds.iter().flatten()) {
            if missing.is_some() {
                return;
            }
            if src.blocks[unit.provider as usize].is_none() {
                missing = Some(ExecError::MissingBlock { rank: unit.provider, side: "provider" });
            } else if dst.blocks[unit.receiver as usize].is_none() {
                missing = Some(ExecError::MissingBlock { rank: unit.receiver, side: "receiver" });
            }
        }
    });
    if let Some(e) = missing {
        return Err(e);
    }
    let mut replayed = replay_guarded(machine, progs, movers, epoch, 0, tally);
    if replayed.is_err() && repaired.is_none() {
        let fresh = recompile(machine, movers)?;
        replayed = replay_guarded(machine, &fresh, movers, epoch, 1, tally);
        repaired = Some(fresh);
    }
    replayed.map_err(|()| unrecovered("retry and recompile left a round unhealed"))?;
    Ok(repaired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::all(42, 30);
        let mut fired = 0usize;
        for epoch in 0..200u64 {
            let a = plan.round_fault(epoch, 0, 1, 0);
            let b = plan.round_fault(epoch, 0, 1, 0);
            assert_eq!(a, b, "same site must decide identically");
            if a.is_some() {
                fired += 1;
            }
        }
        // ~30% of 200 decision points; generous determinism-safe bounds.
        assert!((20..=100).contains(&fired), "fired {fired} of 200 at rate 30");
        // A retry rolls a fresh decision (attempt is part of the site).
        let differs = (0..100u64).any(|e| {
            plan.round_fault(e, 0, 1, 0).map(|(k, _)| k)
                != plan.round_fault(e, 0, 1, 1).map(|(k, _)| k)
        });
        assert!(differs, "attempt must re-roll the decision");
    }

    #[test]
    fn rate_zero_and_disabled_kinds_never_fire() {
        let silent = FaultPlan::all(7, 0);
        assert!((0..500u64).all(|e| silent.round_fault(e, 0, 0, 0).is_none()));
        assert!((0..500u64).all(|e| !silent.poison_fires(e)));
        let poison_only = FaultPlan::new(7, 100, &[FaultKind::PoisonProgram]);
        assert!((0..100u64).all(|e| poison_only.round_fault(e, 0, 0, 0).is_none()));
        assert!(poison_only.poison_fires(3));
        let wire_only = FaultPlan::new(7, 100, &[FaultKind::DropRound]);
        assert!((0..100u64).all(|e| !wire_only.poison_fires(e)));
    }

    #[test]
    fn env_forms_parse() {
        // `from_env` reads the process environment, which is shared
        // across test threads — exercise the parser through a plan
        // constructed from the same fragments instead.
        let p = FaultPlan::new(9, 120, &[FaultKind::DropRound]);
        assert_eq!(p.rate, 100, "rate saturates at 100");
        assert_eq!(p.kinds, FaultKind::DropRound.bit());
        let all = FaultPlan::all(1, 10);
        assert_eq!(all.kinds, 0b111_1111);
        let env_default = FaultPlan::new(1, 10, &FaultKind::RECOVERABLE);
        assert_eq!(
            env_default.kinds,
            0b011_1111,
            "env defaults exclude the terminal Exhaust: blanket chaos runs must stay green"
        );
    }

    #[test]
    fn terminal_kinds_fire_on_their_own_streams() {
        let cp = FaultPlan::new(11, 100, &[FaultKind::CompilePanic]);
        assert!(cp.compile_panic_fires(5));
        assert!(!cp.exhaust_fires(5));
        assert!(!cp.poison_fires(5));
        assert!((0..100u64).all(|e| cp.round_fault(e, 0, 0, 0).is_none()));
        let ex = FaultPlan::new(11, 100, &[FaultKind::Exhaust]);
        assert!(ex.exhaust_fires(5));
        assert!(!ex.compile_panic_fires(5));
        let silent = FaultPlan::new(11, 0, &[FaultKind::CompilePanic, FaultKind::Exhaust]);
        assert!((0..200u64).all(|e| !silent.compile_panic_fires(e) && !silent.exhaust_fires(e)));
    }

    #[test]
    fn validation_levels_are_ordered() {
        assert!(ValidationLevel::Off < ValidationLevel::Counts);
        assert!(ValidationLevel::Counts < ValidationLevel::Checksums);
        assert_eq!(ValidationLevel::default(), ValidationLevel::Off);
    }

    #[test]
    fn exec_error_displays() {
        let e = ExecError::MissingCopy { array: "a".into(), version: 2 };
        assert!(e.to_string().contains("version 2"));
        let e = ExecError::Unrecovered { context: "round 3".into() };
        assert!(e.to_string().contains("round 3"));
        let e = ExecError::OutOfBounds { array: "a".into(), dim: 1, index: 17, extent: 16 };
        assert!(e.to_string().contains("subscript 17 of `a`"), "{e}");
    }
}
