//! The remap engine's failure model: typed errors, the pre-write
//! checks, and the optional post-replay checksum.
//!
//! The simulated machine copies in-process; nothing travels over a wire
//! that could drop or corrupt a round. A remap can fail in two ways:
//!
//! * **Its preconditions do not hold** — the source copy is missing
//!   ([`ExecError::MissingCopy`]), the two versions have different
//!   shapes ([`ExecError::ShapeMismatch`]), the program was compiled for
//!   another mapping pair ([`ExecError::ProgramMismatch`]), or it
//!   references an unallocated block ([`ExecError::MissingBlock`]).
//!   `check_mover` runs these checks once, before anything is
//!   allocated, billed or written — for a remap group, on every member
//!   before any member executes — so a typed error leaves the arrays and
//!   the machine exactly as they were.
//! * **The compiler is wrong** — a program whose replay does not deliver
//!   the words it reads. Under `HPFC_VALIDATE=checksums`
//!   ([`ValidationLevel::Checksums`]) `replay_checked` sums the words
//!   every unit read and wrote once, after the one replay, and a
//!   mismatch is an immediate [`ExecError::ProgramMismatch`]: nothing is
//!   retried or rolled back, and the interpreter ends the run with it.
//!
//! With validation off the replay is the bare round replay
//! (allocation-free, pinned by `alloc_free.rs`); the checks before it
//! are allocation-free too.

use hpfc_mapping::NormalizedMapping;

use crate::exec::{replay_rounds, CopyProgram, CopyUnit, Movers};
use crate::machine::Machine;
use crate::store::{LocalBlock, VersionData};

/// What the replay verifies after it has written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ValidationLevel {
    /// No verification: the bare replay.
    #[default]
    Off,
    /// One checksum pass after the replay: for every unit, the sum of
    /// the source words read must equal the sum of the destination words
    /// written.
    Checksums,
}

impl ValidationLevel {
    /// Parse an `HPFC_VALIDATE`-style value: `off` or `checksums`;
    /// anything else is `None` (the caller decides the fallback).
    pub fn parse(s: &str) -> Option<ValidationLevel> {
        match s.trim() {
            "off" => Some(ValidationLevel::Off),
            "checksums" => Some(ValidationLevel::Checksums),
            _ => None,
        }
    }

    /// The level selected by the `HPFC_VALIDATE` environment variable:
    /// unset or `off` is [`ValidationLevel::Off`], `checksums` is
    /// [`ValidationLevel::Checksums`]. An unrecognised value also means
    /// off, but warns once on stderr, as `HPFC_THREADS` does.
    pub fn from_env() -> ValidationLevel {
        match std::env::var("HPFC_VALIDATE") {
            Ok(s) => ValidationLevel::parse(&s).unwrap_or_else(|| {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "hpfc: unrecognised HPFC_VALIDATE value {s:?} \
                         (expected `off` or `checksums`); validation is off"
                    );
                });
                ValidationLevel::Off
            }),
            Err(_) => ValidationLevel::Off,
        }
    }
}

/// A typed execution error, returned instead of panicking on the
/// execution path. The interpreter propagates these across its
/// boundary instead of aborting the process.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// Source and destination extents differ.
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
    /// A compiled copy program does not fit the remap: it was compiled
    /// for another (source, destination) mapping pair (found before any
    /// write), or its replay failed the `HPFC_VALIDATE=checksums`
    /// verification (a compiler bug).
    ProgramMismatch {
        /// What did not match.
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
            ExecError::ProgramMismatch { context } => {
                write!(f, "compiled copy program does not fit the remap: {context}")
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

/// The pre-write checks of one mover: replaying `p` from `src` into the
/// destination version laid out by `dst_map` — allocated as `dst`, or
/// about to be allocated from `dst_map` — must not reach a block or a
/// position the program was not compiled for. Runs before anything is
/// allocated, billed or written. A destination that is not allocated
/// yet is checked through its mapping alone: a fresh copy of the pair
/// the program was compiled for allocates every receiver it names.
pub(crate) fn check_mover(
    p: &CopyProgram,
    src: &VersionData,
    dst_map: &NormalizedMapping,
    dst: Option<&VersionData>,
) -> Result<(), ExecError> {
    if src.mapping.array_extents != dst_map.array_extents {
        return Err(ExecError::ShapeMismatch {
            src: format!("{:?}", src.mapping.array_extents),
            dst: format!("{:?}", dst_map.array_extents),
        });
    }
    if p.mappings.0 != src.mapping || p.mappings.1 != *dst_map {
        return Err(ExecError::ProgramMismatch {
            context: "the program was compiled for another mapping pair".into(),
        });
    }
    for unit in p.units() {
        if src.blocks[unit.provider as usize].is_none() {
            return Err(ExecError::MissingBlock { rank: unit.provider, side: "provider" });
        }
        if dst.is_some_and(|d| d.blocks[unit.receiver as usize].is_none()) {
            return Err(ExecError::MissingBlock { rank: unit.receiver, side: "receiver" });
        }
    }
    Ok(())
}

/// The one replay of every mover (`progs[slot]` per mover, all checked
/// by [`check_mover`]), then — under [`ValidationLevel::Checksums`] —
/// one checksum pass over every unit. A mismatch is returned at once.
pub(crate) fn replay_checked(
    machine: &Machine,
    progs: &[CopyProgram],
    movers: &mut Movers<'_, '_>,
) -> Result<(), ExecError> {
    replay_rounds(progs, movers, machine.exec_mode.threads());
    if machine.validation == ValidationLevel::Off {
        return Ok(());
    }
    let (mut read, mut written) = (0u64, 0u64);
    movers.each(|slot, src, dst| {
        let p = &progs[slot];
        for unit in p.units() {
            let sb = src.blocks[unit.provider as usize].as_ref().expect("checked provider");
            let db = dst.blocks[unit.receiver as usize].as_ref().expect("checked receiver");
            let (r, w) = unit_checksums(p, *unit, sb, db);
            read = read.wrapping_add(r);
            written = written.wrapping_add(w);
        }
    });
    if read != written {
        return Err(ExecError::ProgramMismatch {
            context: format!(
                "checksum mismatch after the replay: words read sum to {read:#x}, \
                 words written to {written:#x}"
            ),
        });
    }
    Ok(())
}

/// The checksum of one unit: the sums, as wrapping raw `f64` bits, of
/// the source words it reads and of the destination words it wrote.
/// After a correct replay the two are equal; a unit whose words another
/// unit overwrote breaks the equality.
fn unit_checksums(
    p: &CopyProgram,
    unit: CopyUnit,
    src: &LocalBlock,
    dst: &LocalBlock,
) -> (u64, u64) {
    let sum = |data: &[f64], at: u64, len: u64| {
        data[at as usize..(at + len) as usize]
            .iter()
            .fold(0u64, |s, w| s.wrapping_add(w.to_bits()))
    };
    let (mut read, mut written) = (0u64, 0u64);
    for f in &p.fams[unit.fams.0..unit.fams.1] {
        let (mut s, mut d) = (f.src_base, f.dst_base);
        for _ in 0..f.count {
            read = read.wrapping_add(sum(&src.data, s, f.len));
            written = written.wrapping_add(sum(&dst.data, d, f.len));
            s += f.src_step;
            d += f.dst_step;
        }
    }
    for r in &p.runs[unit.runs.0..unit.runs.1] {
        read = read.wrapping_add(sum(&src.data, r.src_pos, r.len));
        written = written.wrapping_add(sum(&dst.data, r.dst_pos, r.len));
    }
    (read, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_forms_parse() {
        // `from_env` reads the process environment, which is shared
        // across test threads — exercise its parser instead.
        assert_eq!(ValidationLevel::parse("off"), Some(ValidationLevel::Off));
        assert_eq!(ValidationLevel::parse(" checksums "), Some(ValidationLevel::Checksums));
        // Unrecognised values are `None`, so `from_env` can warn
        // instead of silently switching validation off.
        assert_eq!(ValidationLevel::parse("counts"), None);
        assert_eq!(ValidationLevel::parse("checksum"), None);
        assert_eq!(ValidationLevel::parse(""), None);
    }

    #[test]
    fn validation_levels_are_ordered() {
        assert!(ValidationLevel::Off < ValidationLevel::Checksums);
        assert_eq!(ValidationLevel::default(), ValidationLevel::Off);
    }

    #[test]
    fn exec_error_displays() {
        let e = ExecError::MissingCopy { array: "a".into(), version: 2 };
        assert!(e.to_string().contains("version 2"));
        let e = ExecError::ProgramMismatch { context: "checksum mismatch".into() };
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
        let e = ExecError::OutOfBounds { array: "a".into(), dim: 1, index: 17, extent: 16 };
        assert!(e.to_string().contains("subscript 17 of `a`"), "{e}");
    }
}
