//! E23 — property tests for the redistribution engine: the closed-form
//! communication sets must agree with brute-force enumeration for any
//! pair of well-formed mappings, and data movement must preserve array
//! contents exactly. The last section pins the failure model: typed
//! errors from the pre-write checks leave every array and the machine
//! untouched, and the optional checksum changes nothing but what is
//! verified.

use std::collections::BTreeSet;
use std::sync::Arc;

use hpfc_mapping::{
    AlignTarget, Alignment, DimFormat, Distribution, Extents, GridId, Mapping, NormalizedMapping,
    ProcGrid, Template, TemplateId,
};
use hpfc_runtime::{
    plan_by_enumeration, plan_redistribution, remap_group, try_remap_group, ArrayRt, CommSchedule,
    CopyProgram, CopyUnit, ExecError, ExecMode, GroupMember, Machine, MsgDim, PlanRegistry,
    PlannedGroup, PlannedRemap, ValidationLevel, VersionData,
};
use proptest::prelude::*;

/// A random well-formed mapping of an `n0 x n1` array.
fn mapping_strategy(
    n0: u64,
    n1: u64,
) -> impl Strategy<Value = NormalizedMapping> {
    (1u64..6, 0usize..5, 1u64..4, prop::bool::ANY, prop::bool::ANY).prop_map(
        move |(p, fmt_sel, b, transpose, swap_dist)| {
            let tshape = if transpose { [n1, n0] } else { [n0, n1] };
            let template =
                Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&tshape) };
            let grid = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
            let align = if transpose {
                Alignment::transpose2(TemplateId(0))
            } else {
                Alignment::identity(TemplateId(0), 2)
            };
            let fmt = match fmt_sel {
                0 => DimFormat::Block(None),
                1 => DimFormat::Cyclic(None),
                2 => DimFormat::Cyclic(Some(b)),
                3 => DimFormat::Collapsed, // fully replicated over p=1 axis? no: both collapsed
                _ => DimFormat::Block(Some(tshape[0].div_ceil(p) + b)),
            };
            let fmts = if matches!(fmt, DimFormat::Collapsed) {
                vec![DimFormat::Collapsed, DimFormat::Collapsed]
            } else if swap_dist {
                vec![DimFormat::Collapsed, DimFormat::Cyclic(Some(b))]
            } else {
                vec![fmt, DimFormat::Collapsed]
            };
            Mapping { align, dist: Distribution::new(GridId(0), fmts) }
                .normalize(&Extents::new(&[n0, n1]), &template, &grid)
                .unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed-form plan equals the enumeration oracle exactly —
    /// same pairs, same counts, same locals.
    #[test]
    fn plan_matches_oracle(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        prop_assert_eq!(plan, oracle);
    }

    /// Element conservation: locals + remote arrivals per replica cover
    /// the array exactly once per destination replica.
    #[test]
    fn plan_conserves_elements(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        // Total deliveries = sum over points of (#dst owners).
        let mut expected = 0u64;
        for p in src.array_extents.points() {
            expected += dst.owners(&p).len() as u64;
        }
        prop_assert_eq!(plan.local_elements + plan.remote_elements(), expected);
    }

    /// Executing the movement preserves contents for any mapping pair.
    #[test]
    fn data_movement_preserves_values(
        src in mapping_strategy(6, 5),
        dst in mapping_strategy(6, 5),
    ) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7) as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from(&a);
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    /// The BSP phase accounting is consistent: non-negative time, and
    /// zero iff there are no remote transfers.
    #[test]
    fn phase_time_consistency(
        src in mapping_strategy(9, 7),
        dst in mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let mut m = Machine::new(8);
        let t = m.account_phase(plan.phase_triples());
        prop_assert!(t >= 0.0);
        prop_assert_eq!(t == 0.0, plan.total_messages() == 0);
        prop_assert_eq!(m.stats.bytes, plan.total_bytes());
    }

    /// Identity redistributions are free.
    #[test]
    fn identity_is_free(src in mapping_strategy(9, 7)) {
        let plan = plan_redistribution(&src, &src, 8);
        prop_assert_eq!(plan.total_messages(), 0);
    }
}

/// A random mapping drawn from the *full* space the planner supports:
/// strided/offset/negative affine alignments, constant and replicated
/// alignment targets, 1-D and 2-D processor grids, and every
/// distribution format. The template is sized so any drawn affine
/// image fits.
fn rich_mapping_strategy(n0: u64, n1: u64) -> impl Strategy<Value = NormalizedMapping> {
    (
        (1u64..4, 1u64..4),              // grid extents (2-D, possibly 1 wide)
        (0usize..5, 0usize..5),          // per-template-dim alignment selector
        (1i64..4, prop::bool::ANY),      // |stride|, negate?
        0i64..3,                         // offset slack
        (0usize..4, 0usize..4),          // per-template-dim format selector
        1u64..4,                         // cyclic block size
    )
        .prop_map(move |((p0, p1), (al0, al1), (s_abs, neg), oslack, (f0, f1), b)| {
            let stride = if neg { -s_abs } else { s_abs };
            // Template dim sized to hold the worst-case affine image of
            // either array dim plus slack.
            let nmax = n0.max(n1);
            let text = 3 * nmax + 8;
            let mk_target = |sel: usize, dim: usize| match sel {
                0 => AlignTarget::identity(dim),
                1 => {
                    // Strided/offset affine image inside [0, text).
                    let n = if dim == 0 { n0 } else { n1 };
                    let offset = if stride < 0 {
                        (-stride) * (n as i64 - 1) + oslack
                    } else {
                        oslack
                    };
                    AlignTarget::Axis { array_dim: dim, stride, offset }
                }
                2 => AlignTarget::Replicate,
                3 => AlignTarget::Constant(oslack),
                _ => AlignTarget::Axis { array_dim: dim, stride: 2, offset: 1 },
            };
            // Each array dim may be used at most once: template dim 0
            // draws from array dim 0, template dim 1 from array dim 1.
            let align = Alignment {
                template: TemplateId(0),
                targets: vec![mk_target(al0, 0), mk_target(al1, 1)],
            };
            let mk_fmt = |sel: usize| match sel {
                0 => DimFormat::Block(None),
                1 => DimFormat::Cyclic(None),
                2 => DimFormat::Cyclic(Some(b)),
                _ => DimFormat::Collapsed,
            };
            let template = Template {
                id: TemplateId(0),
                name: "T".into(),
                shape: Extents::new(&[text, text]),
            };
            let grid =
                ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p0, p1]) };
            Mapping { align, dist: Distribution::new(GridId(0), vec![mk_fmt(f0), mk_fmt(f1)]) }
                .normalize(&Extents::new(&[n0, n1]), &template, &grid)
                .expect("constructed mapping is well-formed")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Closed form == oracle over the full mapping space: strides,
    /// offsets, negative strides, constants, replication, 2-D grids.
    #[test]
    fn rich_plan_matches_oracle(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let oracle = plan_by_enumeration(&src, &dst, 8);
        prop_assert_eq!(plan, oracle);
    }

    /// Conservation over the full mapping space: every element is
    /// delivered exactly once per destination replica
    /// (`local + remote == n × replicas`).
    #[test]
    fn rich_plan_conserves_elements(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let replicas: u64 = dst
            .axes
            .iter()
            .enumerate()
            .filter(|(_, ax)| matches!(ax.source, hpfc_mapping::DimSource::Replicated))
            .map(|(axis, _)| dst.grid_shape.extent(axis))
            .product();
        let n = src.array_extents.volume();
        prop_assert_eq!(plan.local_elements + plan.remote_elements(), n * replicas);
    }

    /// The block-level copy engine preserves contents over the full
    /// mapping space (strided alignments, replication, 2-D grids).
    #[test]
    fn rich_data_movement_preserves_values(
        src in rich_mapping_strategy(6, 5),
        dst in rich_mapping_strategy(6, 5),
    ) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        let mut b = VersionData::new(dst, 8);
        b.copy_values_from(&a);
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    /// The run-level dense extraction equals the per-point `get` path
    /// (the old O(n · log) implementation) over the full mapping space.
    #[test]
    fn rich_to_dense_matches_per_point_get(src in rich_mapping_strategy(6, 5)) {
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 13 + p[1] * 3 + 2) as f64);
        let dense = a.to_dense();
        let per_point: Vec<f64> =
            a.mapping.array_extents.points().map(|p| a.get(&p)).collect();
        prop_assert_eq!(dense, per_point);
    }

    /// The compiled copy program agrees with the per-point oracle
    /// (element-by-element reads through the canonical owner) over the
    /// full mapping space, serial and parallel replay alike. Also pins
    /// the volume invariant: the program delivers exactly the planned
    /// `local + remote` element count.
    #[test]
    fn rich_program_replay_matches_per_point_oracle(
        src in rich_mapping_strategy(6, 5),
        dst in rich_mapping_strategy(6, 5),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule)
            .expect("closed-form plans always compile");
        prop_assert_eq!(
            program.n_elements(),
            plan.local_elements + plan.remote_elements(),
            "program delivers exactly the planned volume"
        );
        let mut a = VersionData::new(src, 8);
        a.fill(|p| (p[0] * 31 + p[1] * 7 + 1) as f64);
        // Serial replay.
        let mut serial = VersionData::new(dst, 8);
        serial.copy_values_from_program(&a, &program, ExecMode::Serial);
        // Parallel replay (3 workers: uneven chunking on purpose).
        let mut parallel = VersionData::new(serial.mapping.clone(), 8);
        parallel.copy_values_from_program(&a, &program, ExecMode::Parallel(3));
        // Per-point oracle: read every element through the canonical
        // owner, write it to every destination replica.
        let mut oracle = VersionData::new(serial.mapping.clone(), 8);
        let extents = a.mapping.array_extents.clone();
        for p in extents.points() {
            oracle.set(&p, a.get(&p));
        }
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial, &oracle);
    }

    /// The program's structural invariant behind lock-free parallel
    /// execution: within any round (including the local group), no two
    /// units share a receiver block, and remote units correspond
    /// one-to-one to the schedule's messages.
    #[test]
    fn rich_program_rounds_have_disjoint_receivers(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let schedule = CommSchedule::from_plan(&plan);
        let program = CopyProgram::try_compile(&plan, &schedule)
            .expect("closed-form plans always compile");
        for round in program.rounds.iter().chain(std::iter::once(&program.local)) {
            let receivers: std::collections::BTreeSet<u64> =
                round.iter().map(|u| u.receiver).collect();
            prop_assert_eq!(receivers.len(), round.len(),
                "two units in one round share a receiver block");
        }
        let n_remote: usize = program.rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(n_remote, schedule.messages.len());
    }

    /// The message-level schedule agrees with its plan message for
    /// message (pairs, element counts, descriptor products) and its
    /// caterpillar rounds partition the messages contention-free.
    #[test]
    fn rich_schedule_matches_plan(
        src in rich_mapping_strategy(9, 7),
        dst in rich_mapping_strategy(9, 7),
    ) {
        let plan = plan_redistribution(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        prop_assert_eq!(s.messages.len() as u64, plan.total_messages());
        for (m, t) in s.messages.iter().zip(&plan.transfers) {
            prop_assert_eq!((m.from, m.to, m.elements), (t.from, t.to, t.elements));
            prop_assert_eq!(m.dims.iter().map(MsgDim::count).product::<u64>(), m.elements);
        }
        // Rounds: every message exactly once, at most one partner per
        // rank per round.
        let mut seen = vec![false; s.messages.len()];
        for round in &s.rounds {
            let mut partner = std::collections::BTreeMap::new();
            for &i in round {
                prop_assert!(!seen[i]);
                seen[i] = true;
                let m = &s.messages[i];
                for (me, other) in [(m.from, m.to), (m.to, m.from)] {
                    let p = partner.entry(me).or_insert(other);
                    prop_assert_eq!(*p, other);
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
        // Costing the schedule books exactly the plan's traffic.
        let mut m = Machine::new(16);
        m.account_schedule(&s);
        prop_assert_eq!(m.stats.bytes, plan.total_bytes());
        prop_assert_eq!(m.stats.messages, plan.total_messages());
        prop_assert_eq!(m.stats.local_elements, plan.local_elements);
    }
}

/// Processor counts of the 1-D family grid: small primes, powers of
/// two and composites.
const GRID_PS: [u64; 7] = [2, 3, 4, 7, 8, 16, 64];

/// Mixed `(p_src, p_dst)` points: source and destination grids of
/// different sizes.
const GRID_MIXED_PS: [(u64, u64); 3] = [(3, 7), (16, 64), (64, 2)];

/// Extent of the 1-D family grid: 2^5 · 3^2 · 7, so every P in
/// [`GRID_PS`] leaves a different mix of full and ragged blocks.
const GRID_N: u64 = 2016;

/// The 1-D `(source, destination)` format families of the grid.
const GRID_FAMILIES: [(DimFormat, DimFormat); 5] = [
    (DimFormat::Cyclic(None), DimFormat::Cyclic(Some(3))),
    (DimFormat::Cyclic(Some(3)), DimFormat::Cyclic(None)),
    (DimFormat::Block(None), DimFormat::Cyclic(Some(5))),
    (DimFormat::Cyclic(Some(7)), DimFormat::Block(None)),
    (DimFormat::Cyclic(Some(2)), DimFormat::Cyclic(Some(16))),
];

/// Every 1-D format family × every processor count (plus the mixed
/// `p_src != p_dst` points): the directly compiled program, replayed
/// under both engines, lands every element where the destination
/// mapping says it lives, with its exact value.
#[test]
fn one_d_family_grid_replays_to_the_value_oracle() {
    let points = GRID_PS.iter().map(|&p| (p, p)).chain(GRID_MIXED_PS);
    for (p_src, p_dst) in points {
        for (fs, fd) in GRID_FAMILIES {
            let ctx = format!("{fs:?}->{fd:?} at P {p_src}->{p_dst}");
            let src = hpfc_mapping::testing::mapping_1d(GRID_N, p_src, fs);
            let dst = hpfc_mapping::testing::mapping_1d(GRID_N, p_dst, fd);
            let plan = plan_redistribution(&src, &dst, 8);
            let schedule = CommSchedule::from_plan(&plan);
            let program = CopyProgram::try_compile(&plan, &schedule).expect("1-D plans compile");
            let mut a = VersionData::new(src, 8);
            a.fill(|pt| (5 * pt[0] + 1) as f64);
            for mode in [ExecMode::Serial, ExecMode::Parallel(4)] {
                let mut b = VersionData::new(dst.clone(), 8);
                b.copy_values_from_program(&a, &program, mode);
                for (i, got) in b.to_dense().iter().enumerate() {
                    assert_eq!(*got, (5 * i as u64 + 1) as f64, "{ctx} ({mode:?}): element {i}");
                }
            }
        }
    }
}

/// A deterministic sweep used as a regression anchor: BLOCK→CYCLIC over
/// increasing P moves a growing fraction of the array.
#[test]
fn block_to_cyclic_volume_grows_with_p() {
    let n = 64u64;
    let mut last_remote = 0u64;
    for p in [2u64, 4, 8] {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        let e = Extents::new(&[n]);
        let mk = |fmt| {
            Mapping {
                align: Alignment::identity(TemplateId(0), 1),
                dist: Distribution::new(GridId(0), vec![fmt]),
            }
            .normalize(&e, &t, &g)
            .unwrap()
        };
        let plan = plan_redistribution(&mk(DimFormat::Block(None)), &mk(DimFormat::Cyclic(None)), 8);
        // Remote fraction (P-1)/P of the array.
        assert_eq!(plan.remote_elements(), n * (p - 1) / p);
        assert!(plan.remote_elements() > last_remote);
        last_remote = plan.remote_elements();
    }
}

/// Replicated alignments also roundtrip through the planner.
#[test]
fn replicate_axis_roundtrip() {
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[8, 4]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[2, 2]) };
    let e = Extents::new(&[8]);
    let repl = Mapping {
        align: Alignment {
            template: TemplateId(0),
            targets: vec![AlignTarget::identity(0), AlignTarget::Replicate],
        },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Block(None)]),
    }
    .normalize(&e, &t, &g)
    .unwrap();
    let pinned = Mapping {
        align: Alignment {
            template: TemplateId(0),
            targets: vec![AlignTarget::identity(0), AlignTarget::Constant(3)],
        },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None), DimFormat::Block(None)]),
    }
    .normalize(&e, &t, &g)
    .unwrap();
    for (s, d) in [(&repl, &pinned), (&pinned, &repl)] {
        let plan = plan_redistribution(s, d, 8);
        let oracle = plan_by_enumeration(s, d, 8);
        assert_eq!(plan, oracle);
    }
}

/// A rank-0 scalar pinned to template cell `c` of a 1-D template over
/// `p` processors — different cells land on different owners, so a
/// remap between two such mappings really moves the value.
fn scalar_at(c: i64, p: u64) -> NormalizedMapping {
    let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[8]) };
    let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
    Mapping {
        align: Alignment { template: TemplateId(0), targets: vec![AlignTarget::Constant(c)] },
        dist: Distribution::new(GridId(0), vec![DimFormat::Block(None)]),
    }
    .normalize(&Extents::new(&[]), &t, &g)
    .expect("rank-0 mapping is well-formed")
}

/// Rank-0 scalars move through the one copy engine: the cached plan
/// carries a compiled program (one single-element memcpy unit), and a
/// remap replays it with validation off and under checksums alike, with
/// the exact planned volume.
#[test]
fn rank0_scalar_remap_moves_through_the_compiled_program() {
    use hpfc_runtime::Kernel;

    // Block(2) on a template of 8 cells puts cell 0 on proc 0 and cell
    // 7 on proc 3: the scalar really travels.
    let (on0, on3) = (scalar_at(0, 4), scalar_at(7, 4));
    let plan = plan_redistribution(&on0, &on3, 8);
    let schedule = CommSchedule::from_plan(&plan);
    let program = CopyProgram::try_compile(&plan, &schedule).expect("rank-0 plans compile");
    let units: Vec<_> = program.local.iter().chain(program.rounds.iter().flatten()).collect();
    assert_eq!(units.len(), 1);
    assert_eq!((units[0].provider, units[0].receiver, units[0].kernel), (0, 3, Kernel::Memcpy));
    assert_eq!(program.n_elements(), 1);

    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    for validation in [ValidationLevel::Off, ValidationLevel::Checksums] {
        let mut machine = Machine::new(4)
            .with_exec_mode(ExecMode::Serial)
            .with_registry(Arc::new(PlanRegistry::new(1, 64)))
            .with_validation(validation);
        let mut rt = ArrayRt::new("s", vec![on0.clone(), on3.clone()], 8);
        rt.current(&mut machine, 0).fill(|_| 42.0);
        rt.remap(&mut machine, 1, &keep, false);
        assert_eq!(rt.get(&[]), 42.0, "value survived the hop ({validation:?})");
        rt.set(&[], 7.0);
        rt.remap(&mut machine, 0, &keep, false);
        assert_eq!(rt.get(&[]), 7.0, "value survived the hop back ({validation:?})");
        let s = machine.stats;
        assert_eq!(s.remaps_performed, 2);
        assert_eq!((s.bytes_moved, s.runs_copied), (16, 2), "one element per hop ({validation:?})");
        assert_eq!((s.messages, s.bytes), (2, 16), "one 8-byte message per hop");
    }
}

// --- The failure model ------------------------------------------------

fn mk1d(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
    hpfc_mapping::testing::mapping_1d(n, p, fmt)
}

/// A registry no other machine shares: a machine given one plans solo,
/// so nothing another test registered can serve (or count against) it.
fn private_registry() -> Arc<PlanRegistry> {
    Arc::new(PlanRegistry::new(1, 64))
}

fn planned(src: &NormalizedMapping, dst: &NormalizedMapping) -> Arc<PlannedRemap> {
    Arc::new(PlannedRemap::compile(plan_redistribution(src, dst, 8)))
}

/// A fresh array bouncing between BLOCK and CYCLIC(3) over `p` procs,
/// with both plan-cache directions pre-seeded.
fn seeded_array(name: &str, n: u64, p: u64) -> ArrayRt {
    let src = mk1d(n, p, DimFormat::Block(None));
    let dst = mk1d(n, p, DimFormat::Cyclic(Some(3)));
    let mut rt = ArrayRt::new(name, vec![src.clone(), dst.clone()], 8);
    rt.seed_plan(0, 1, planned(&src, &dst));
    rt.seed_plan(1, 0, planned(&dst, &src));
    rt
}

/// What a failed remap must leave as it was: the simulated memory and
/// the traffic counters.
fn machine_state(m: &Machine) -> (Vec<u64>, Vec<u64>, u64, u64, u64) {
    let s = m.stats;
    (m.mem.current.clone(), m.mem.peak.clone(), s.messages, s.bytes, s.remaps_performed)
}

/// Unrecoverable situations are typed errors at the API boundary, not
/// panics, and they are raised before anything is allocated, billed or
/// written: a remap whose source copy is gone reports `MissingCopy` and
/// leaves its target unallocated; a coalesced group with such a member
/// reports it before any member executes; a group whose member list
/// disagrees with its plan reports `GroupMismatch`. No snapshot is
/// needed to keep the state: nothing was written.
#[test]
fn unrecoverable_paths_return_typed_errors() {
    let n = 256u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let mut machine =
        Machine::new(4).with_registry(private_registry()).with_exec_mode(ExecMode::Serial);
    let mut rt = seeded_array("a", n, 4);
    rt.current(&mut machine, 0).fill(|p| p[0] as f64);
    // Sabotage: drop the source copy behind the status tag.
    rt.free_copy(&mut machine, 0);
    let before = machine_state(&machine);
    let err = rt.try_remap(&mut machine, 1, &keep, false).unwrap_err();
    assert_eq!(err, ExecError::MissingCopy { array: "a".into(), version: 0 });
    assert!(err.to_string().contains("version 0"));
    assert!(rt.copies[1].is_none(), "the target copy was never allocated");
    assert_eq!(machine_state(&machine), before, "nothing allocated or billed");

    // A coalesced two-member group whose second member lost its source
    // copy: the first member must not execute either.
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let solo = planned(&src, &dst);
    let group = PlannedGroup::compile(vec![Arc::clone(&solo), Arc::clone(&solo)]);
    let skip = BTreeSet::new();
    let mut a = seeded_array("a", n, 4);
    let mut b = seeded_array("b", n, 4);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    b.current(&mut machine, 0).fill(|p| 2.0 * p[0] as f64);
    b.free_copy(&mut machine, 0);
    let (status, live, copies) = (a.status, a.live.clone(), a.copies.clone());
    let before = machine_state(&machine);
    let err = {
        let mut members = [
            GroupMember { rt: &mut a, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
            GroupMember { rt: &mut b, src: 0, target: 1, may_live: &keep, skip_if_current: &skip },
        ];
        try_remap_group(&mut machine, &mut members, &group).unwrap_err()
    };
    assert_eq!(err, ExecError::MissingCopy { array: "b".into(), version: 0 });
    assert_eq!((a.status, &a.live), (status, &live), "first member's status and live flags");
    assert!(a.copies == copies, "first member's copies untouched");
    assert_eq!(machine_state(&machine), before, "nothing allocated or billed");

    // A group directive whose runtime member list is shorter than the
    // planned group.
    let mut a = ArrayRt::new("a", vec![src, dst], 8);
    a.current(&mut machine, 0).fill(|p| p[0] as f64);
    let mut members = [GroupMember {
        rt: &mut a,
        src: 0,
        target: 1,
        may_live: &keep,
        skip_if_current: &skip,
    }];
    let err = try_remap_group(&mut machine, &mut members, &group).unwrap_err();
    assert_eq!(err, ExecError::GroupMismatch { planned: 2, got: 1 });
}

/// A cached program that does not fit the version pair is a typed error
/// before any write, not a recompile: one compiled for another mapping
/// pair is a `ProgramMismatch`, one over versions of another shape a
/// `ShapeMismatch`.
#[test]
fn a_program_for_another_pair_is_rejected_before_any_write() {
    let n = 256u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let block = mk1d(n, 4, DimFormat::Block(None));
    let cyclic3 = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let cases = [
        (cyclic3.clone(), planned(&block, &mk1d(n, 4, DimFormat::Cyclic(Some(5))))),
        (mk1d(2 * n, 4, DimFormat::Cyclic(Some(3))), planned(&block, &cyclic3)),
    ];
    for (target, foreign) in cases {
        let mut machine = Machine::new(4).with_registry(private_registry());
        let mut rt = ArrayRt::new("a", vec![block.clone(), target], 8);
        rt.seed_plan(0, 1, foreign);
        rt.current(&mut machine, 0).fill(|p| p[0] as f64);
        let before = machine_state(&machine);
        let err = rt.try_remap(&mut machine, 1, &keep, false).unwrap_err();
        assert!(
            matches!(err, ExecError::ProgramMismatch { .. } | ExecError::ShapeMismatch { .. }),
            "{err}"
        );
        assert!(rt.copies[1].is_none() && rt.status == Some(0), "nothing executed");
        assert_eq!(machine_state(&machine), before, "nothing allocated or billed");
    }
}

/// The checksum is what `HPFC_VALIDATE=checksums` buys: a program whose
/// units overwrite each other (a compiler bug, built here by pointing a
/// remote unit at the local unit's runs) replays without complaint when
/// validation is off, and is a typed `ProgramMismatch` after its one
/// replay under checksums — never retried.
#[test]
fn an_overlapping_program_fails_the_checksum_once() {
    let n = 256u64;
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let (src, dst) = (mk1d(n, 4, DimFormat::Block(None)), mk1d(n, 4, DimFormat::Cyclic(Some(3))));
    let mut bad = PlannedRemap::clone(&planned(&src, &dst));
    let local = bad.program.local[0];
    let remote = bad.program.rounds.iter_mut().flatten().find(|u| u.receiver == local.receiver);
    let remote = remote.expect("receiver 0 also hears from another rank");
    (remote.fams, remote.runs, remote.kernel) = (local.fams, local.runs, local.kernel);
    let bad = Arc::new(bad);
    for validation in [ValidationLevel::Off, ValidationLevel::Checksums] {
        let mut machine = Machine::new(4)
            .with_registry(private_registry())
            .with_validation(validation);
        let mut rt = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        rt.seed_plan(0, 1, Arc::clone(&bad));
        rt.current(&mut machine, 0).fill(|p| p[0] as f64 + 1.0);
        let out = rt.try_remap(&mut machine, 1, &keep, false);
        match validation {
            ValidationLevel::Off => assert!(out.is_ok(), "unverified replays are trusted"),
            ValidationLevel::Checksums => {
                let err = out.unwrap_err();
                assert!(matches!(err, ExecError::ProgramMismatch { .. }), "{err}");
                assert!(err.to_string().contains("checksum"), "{err}");
                assert_eq!(machine.stats.remaps_performed, 1, "one replay, no retry");
            }
        }
    }
}

/// Validation only verifies: with checksums on, every remap moves the
/// same bytes and bills the same traffic as with validation off, serial
/// or threaded, for a solo remap and a coalesced two-member group alike.
#[test]
fn guarded_and_unguarded_replays_agree_solo_and_group() {
    let n = 1u64 << 18;
    let src = mk1d(n, 4, DimFormat::Block(None));
    let dst = mk1d(n, 4, DimFormat::Cyclic(Some(3)));
    let (fwd, back) = (planned(&src, &dst), planned(&dst, &src));
    // Premise: a solo round, and so a merged group round, is at least
    // the 32,768-element inline threshold, so Parallel(4) spawns workers.
    let round_elements = |r: &Vec<_>| r.iter().map(|u: &CopyUnit| u.elements).sum::<u64>();
    assert!(fwd.program.rounds.iter().any(|r| round_elements(r) >= 1 << 15));
    let fwd_group = PlannedGroup::compile(vec![Arc::clone(&fwd), Arc::clone(&fwd)]);
    let back_group = PlannedGroup::compile(vec![Arc::clone(&back), Arc::clone(&back)]);
    let keep: BTreeSet<u32> = [0u32, 1].into_iter().collect();
    let skip = BTreeSet::new();
    let run = |validation: ValidationLevel, mode: ExecMode, grouped: bool| {
        let mut machine = Machine::new(4)
            .with_registry(private_registry())
            .with_exec_mode(mode)
            .with_validation(validation);
        let mut a = ArrayRt::new("a", vec![src.clone(), dst.clone()], 8);
        let mut b = ArrayRt::new("b", vec![src.clone(), dst.clone()], 8);
        for rt in [&mut a, &mut b] {
            rt.seed_plan(0, 1, Arc::clone(&fwd));
            rt.seed_plan(1, 0, Arc::clone(&back));
        }
        a.current(&mut machine, 0).fill(|p| p[0] as f64 + 0.5);
        b.current(&mut machine, 0).fill(|p| 3.0 * p[0] as f64);
        for (bounce, (s, t)) in [(0u32, 1u32), (1, 0), (0, 1)].into_iter().enumerate() {
            if grouped {
                let planned = if s == 0 { &fwd_group } else { &back_group };
                let mut members = [
                    GroupMember { rt: &mut a, src: s, target: t, may_live: &keep, skip_if_current: &skip },
                    GroupMember { rt: &mut b, src: s, target: t, may_live: &keep, skip_if_current: &skip },
                ];
                assert_eq!(remap_group(&mut machine, &mut members, planned), 2, "coalesced");
            } else {
                a.remap(&mut machine, t, &keep, false);
            }
            a.set(&[bounce as u64], -1.0 - bounce as f64);
            b.set(&[bounce as u64 + 7], -2.0 - bounce as f64);
        }
        let s = machine.stats;
        let counters =
            (s.bytes_moved, s.runs_copied, s.remaps_performed, s.messages, s.bytes, s.time_us);
        (a.copies, b.copies, counters)
    };
    for grouped in [false, true] {
        let reference = run(ValidationLevel::Off, ExecMode::Serial, grouped);
        assert!(reference.2 .2 > 0, "the bounces moved data");
        for validation in [ValidationLevel::Off, ValidationLevel::Checksums] {
            for mode in [ExecMode::Serial, ExecMode::Parallel(4)] {
                assert!(
                    run(validation, mode, grouped) == reference,
                    "{validation:?} {mode:?} grouped={grouped}: differs from unvalidated serial"
                );
            }
        }
    }
}
