//! The runtime work `lower` and `execute` do internally — plan,
//! schedule, program compile, replay and accounting — measured by
//! calling the runtime's public functions directly on the workload's own
//! mapping pairs, outside `execute`.

use std::collections::BTreeMap;
use std::time::Instant;

use hpfc::mapping::NormalizedMapping;
use hpfc::runtime::{plan_redistribution, CommSchedule, CopyProgram, ExecMode, VersionData};
use hpfc::{Machine, StaticProgram};

use crate::median;
use crate::trace::Tracer;

/// Totals over the workload's distinct mapping pairs.
pub struct Probe {
    /// Sums over distinct pairs of the median per-pair time.
    pub plan_ms: f64,
    pub schedule_ms: f64,
    pub compile_ms: f64,
    /// Sum of the compiled programs' artifact sizes.
    pub program_kb: f64,
    /// Mean over the program's planned copies of one replay, and the
    /// bytes it moves per second (computed from array sizes).
    pub replay_ms_per_remap: f64,
    pub replay_gb_per_s: f64,
    /// Mean over the program's planned copies of one schedule accounting.
    pub account_ms: f64,
    /// Pairs whose replay did not reproduce the source contents.
    pub failures: Vec<String>,
}

struct Pair<'a> {
    src: &'a NormalizedMapping,
    dst: &'a NormalizedMapping,
    elem_size: u64,
    /// Planned copies of the program that use this pair.
    copies: usize,
}

fn timed<T>(tr: &mut Tracer, name: &'static str, times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    tr.span(name, |_| {
        let t = Instant::now();
        let out = f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        out
    })
}

/// Measure every distinct planned mapping pair of `programs` `reps` times.
pub fn run(programs: &BTreeMap<String, StaticProgram>, reps: usize, tr: &mut Tracer) -> Probe {
    let mut pairs: Vec<Pair> = Vec::new();
    for p in programs.values() {
        p.for_each_planned_copy(|array, target, copy| {
            let decl = p.array(array);
            let (src, dst) = (
                &decl.versions[copy.src as usize],
                &decl.versions[target as usize],
            );
            match pairs
                .iter_mut()
                .find(|q| q.src == src && q.dst == dst && q.elem_size == decl.elem_size)
            {
                Some(q) => q.copies += 1,
                None => pairs.push(Pair {
                    src,
                    dst,
                    elem_size: decl.elem_size,
                    copies: 1,
                }),
            }
        });
    }
    let nprocs = programs.values().map(|p| p.nprocs).max().unwrap_or(1);
    let mut out = Probe {
        plan_ms: 0.0,
        schedule_ms: 0.0,
        compile_ms: 0.0,
        program_kb: 0.0,
        replay_ms_per_remap: 0.0,
        replay_gb_per_s: 0.0,
        account_ms: 0.0,
        failures: Vec::new(),
    };
    let copies: usize = pairs.iter().map(|q| q.copies).sum();
    let (mut replay_bytes, mut replay_ms) = (0.0, 0.0);
    tr.span("runtime.probe", |tr| {
        for (i, q) in pairs.iter().enumerate() {
            tr.iter = i as u64;
            let (mut plan_t, mut sched_t, mut comp_t, mut replay_t, mut acct_t) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut src = VersionData::new(q.src.clone(), q.elem_size);
            src.fill(|pt| pt.iter().fold(1.0, |acc, &x| acc * 31.0 + x as f64));
            let expect = src.to_dense();
            let mut artifact_bytes = 0;
            for _ in 0..reps {
                let plan = timed(tr, "runtime.plan", &mut plan_t, || {
                    plan_redistribution(q.src, q.dst, q.elem_size)
                });
                let schedule = timed(tr, "runtime.schedule", &mut sched_t, || {
                    CommSchedule::from_plan(&plan)
                });
                let program = timed(tr, "runtime.program_compile", &mut comp_t, || {
                    CopyProgram::try_compile(&plan, &schedule)
                });
                let mut machine = Machine::new(nprocs);
                timed(tr, "runtime.account", &mut acct_t, || {
                    machine.account_schedule(&schedule)
                });
                let Some(program) = program else { continue };
                let mut dst = VersionData::new(q.dst.clone(), q.elem_size);
                timed(tr, "runtime.replay", &mut replay_t, || {
                    dst.copy_values_from_program(&src, &program, ExecMode::Serial)
                });
                if dst.to_dense() != expect {
                    out.failures
                        .push(format!("replay of pair {i} changed the values"));
                }
                artifact_bytes = program.artifact_bytes();
            }
            out.program_kb += artifact_bytes as f64 / 1024.0;
            out.plan_ms += median(&plan_t);
            out.schedule_ms += median(&sched_t);
            out.compile_ms += median(&comp_t);
            let w = q.copies as f64 / copies as f64;
            out.account_ms += w * median(&acct_t);
            if !replay_t.is_empty() {
                let ms = median(&replay_t);
                out.replay_ms_per_remap += w * ms;
                replay_ms += q.copies as f64 * ms;
                replay_bytes += q.copies as f64 * (expect.len() as u64 * q.elem_size) as f64;
            }
        }
    });
    if replay_ms > 0.0 {
        out.replay_gb_per_s = replay_bytes / (replay_ms * 1e-3) / 1e9;
    }
    out
}
