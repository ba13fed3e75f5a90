//! Source-to-result benchmark of the hpfc pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adi --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each iteration takes a workload from HPF source text to result
//! arrays through the public pipeline calls (parse, loop motion, sema,
//! remapping-graph build and optimize, lower, execute) and checks the
//! result against a plain dense reference. The load is a closed loop:
//! one client, one process, serial replay. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` records spans around the same calls,
//! measures the runtime layers on the workload's own mapping pairs, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object. See README.md beside this file for every metric.

mod probe;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use hpfc::codegen::LowerOptions;
use hpfc::{
    cfg, codegen, interp, lang, rgraph, CompileOptions, ExecResult, NetStats, StaticProgram,
};

use trace::Tracer;
use workloads::Workload;

/// Samples from fresh child processes, besides the parent's own: at
/// least `CHILDREN_MIN`, and more while they have taken less than
/// `CHILDREN_SHARE` of `--seconds`, up to `CHILDREN_MAX`.
const CHILDREN_MIN: usize = 6;
const CHILDREN_MAX: usize = 40;
const CHILDREN_SHARE: f64 = 0.25;
/// Repetitions of each runtime-layer measurement in the traced run.
const PROBE_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `0..=1`; 0 for no samples.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The compiled routines plus what the compile-time layers did.
struct Built {
    programs: BTreeMap<String, StaticProgram>,
    main: String,
    moved_remaps: usize,
    remap_slots: usize,
    removed_slots: usize,
    emitted_remaps: usize,
}

fn diags(d: Vec<hpfc::Diagnostic>) -> String {
    d.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Source text to static programs, one span per pipeline call.
fn compile(src: &str, opts: &CompileOptions, tr: &mut Tracer) -> Result<Built, String> {
    let mut ast = tr
        .span("lang.parse", |_| lang::parse_program(src))
        .map_err(diags)?;
    let mut moved_remaps = 0;
    if opts.loop_motion {
        tr.span("cfg.motion", |_| {
            for r in &mut ast.routines {
                let (hoisted, moved) = cfg::transform::hoist_trailing_loop_remaps(r);
                *r = hoisted;
                moved_remaps += moved;
            }
        });
    }
    let module = tr
        .span("lang.sema", |_| lang::analyze(&ast))
        .map_err(diags)?;
    let mut built = Built {
        programs: BTreeMap::new(),
        main: String::new(),
        moved_remaps,
        remap_slots: 0,
        removed_slots: 0,
        emitted_remaps: 0,
    };
    let lower = LowerOptions {
        group_remaps: opts.group_remaps,
    };
    for unit in &module.routines {
        let mut rg = tr
            .span("rgraph.build", |_| rgraph::build(unit))
            .map_err(diags)?;
        let opt = tr.span("rgraph.optimize", |_| rgraph::optimize(&mut rg, opts.opt));
        let (program, stats) = tr.span("codegen.lower", |_| codegen::lower_with(unit, &rg, &lower));
        built.remap_slots += opt.total;
        built.removed_slots += opt.removed;
        built.emitted_remaps += stats.emitted_remaps;
        if built.main.is_empty() {
            built.main = unit.name.clone();
        }
        built.programs.insert(unit.name.clone(), program);
    }
    Ok(built)
}

/// One source-to-result pass and its timings.
struct Pass {
    built: Built,
    result: ExecResult,
    compile_ms: f64,
    run_ms: f64,
    e2e_ms: f64,
}

/// Compile and execute once. An `ExecError`, a diagnostic or a panic is
/// a failed pass, never an aborted run.
fn pass(w: &Workload, opts: &CompileOptions, tr: &mut Tracer) -> Result<Pass, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tr.span("e2e", |tr| {
            let t0 = Instant::now();
            let built = tr.span("compile", |tr| compile(&w.source, opts, tr))?;
            let t1 = Instant::now();
            let result = tr
                .span("interp.execute", |_| {
                    interp::execute(&built.programs, &built.main, w.exec.clone())
                })
                .map_err(|e| format!("execution failed: {e}"))?;
            let t2 = Instant::now();
            Ok(Pass {
                built,
                result,
                compile_ms: ms(t1 - t0),
                run_ms: ms(t2 - t1),
                e2e_ms: ms(t2 - t0),
            })
        })
    }));
    outcome.unwrap_or_else(|_| Err("the pipeline panicked".into()))
}

/// Compare a result against the dense reference and the closed-form
/// traffic; `baseline` is a previous run's counters, which every run of
/// the same program must repeat.
fn check(w: &Workload, r: &ExecResult, baseline: Option<&NetStats>) -> Result<(), String> {
    for (name, want) in &w.arrays {
        if r.arrays.get(name) != Some(want) {
            return Err(format!("array `{name}` differs from the reference"));
        }
    }
    for (name, want) in &w.scalars {
        if r.scalars.get(name) != Some(want) {
            return Err(format!(
                "scalar `{name}` = {:?}, reference {want}",
                r.scalars.get(name)
            ));
        }
    }
    let s = &r.stats;
    if let Some(t) = w.traffic {
        let got = (s.bytes, s.bytes_moved, s.remaps_performed);
        if got != (t.net_bytes(), t.bytes_moved(), t.moving_remaps) {
            return Err(format!(
                "traffic (bytes, bytes_moved, remaps_performed) = {got:?}, closed form ({}, {}, {})",
                t.net_bytes(),
                t.bytes_moved(),
                t.moving_remaps
            ));
        }
        if t.reused_live.is_some_and(|n| n != s.remaps_reused_live) {
            return Err(format!(
                "remaps_reused_live = {}, expected {:?}",
                s.remaps_reused_live, t.reused_live
            ));
        }
    }
    if let Some(b) = baseline {
        if (b.bytes, b.messages, b.remaps_performed) != (s.bytes, s.messages, s.remaps_performed) {
            return Err("traffic differs between runs of the same program".into());
        }
    }
    Ok(())
}

/// Naive and optimized compilation must give identical results.
fn check_naive(w: &Workload, optimized: &ExecResult) -> Result<(), String> {
    let naive = pass(w, &CompileOptions::naive(), &mut Tracer::new(false))?;
    if naive.result.arrays != optimized.arrays || naive.result.scalars != optimized.scalars {
        return Err("naive and optimized compilation give different results".into());
    }
    Ok(())
}

/// Failure bookkeeping for the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.problems.len() < 8 {
                    self.problems.push(e);
                }
                None
            }
        }
    }
}

/// Warm timings of one closed-loop phase.
#[derive(Default)]
struct Timings {
    compile: Vec<f64>,
    run: Vec<f64>,
    e2e: Vec<f64>,
}

/// Run passes back to back for `seconds` (at least one), taking the child
/// samples that fall due in between.
fn timed_loop(
    w: &Workload,
    seconds: f64,
    tr: &mut Tracer,
    base: &NetStats,
    tally: &mut Tally,
    children: &mut Children,
) -> Timings {
    let mut t = Timings::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while t.e2e.is_empty() || Instant::now() < end {
        children.poll(tally);
        tr.begin_iteration(tr.iter + 1);
        let p = pass(w, &w.options, tr).and_then(|p| check(w, &p.result, Some(base)).map(|()| p));
        if let Some(p) = tally.record(p) {
            t.compile.push(p.compile_ms);
            t.run.push(p.run_ms);
            t.e2e.push(p.e2e_ms);
        }
        if tally.attempted > 10 && tally.failed * 2 > tally.attempted {
            break;
        }
    }
    t
}

/// What one process measured: its set-up, cold compile and cold lower.
struct ProcessSample {
    setup_s: f64,
    cold_ms: f64,
    cold_lower_ms: f64,
}

/// Samples from fresh child processes, whose plan registry starts empty,
/// so their first compile is cold. The children are spread evenly over
/// the window so they meet the same machine conditions as the parent's
/// warm passes.
struct Children {
    workload: String,
    seed: u64,
    window: Duration,
    start: Instant,
    planned: usize,
    spawned: usize,
    samples: Vec<ProcessSample>,
}

impl Children {
    /// Start the window; `parent` is the parent process's own sample.
    fn new(args: &Args, parent: ProcessSample) -> Children {
        Children {
            workload: args.workload.clone(),
            seed: args.seed,
            window: Duration::from_secs_f64(args.seconds),
            start: Instant::now(),
            planned: CHILDREN_MIN,
            spawned: 0,
            samples: vec![parent],
        }
    }

    /// Take the next sample if it is due.
    fn poll(&mut self, tally: &mut Tally) {
        let due = self
            .window
            .mul_f64(self.spawned as f64 / self.planned as f64);
        if self.spawned < self.planned && self.start.elapsed() >= due {
            self.take(tally);
        }
    }

    /// Take the samples a loop that ended early left undue.
    fn finish(&mut self, tally: &mut Tally) {
        while self.spawned < self.planned {
            self.take(tally);
        }
    }

    fn take(&mut self, tally: &mut Tally) {
        let t = Instant::now();
        self.spawned += 1;
        if let Some(s) = tally.record(self.spawn()) {
            self.samples.push(s);
        }
        if self.spawned == 1 {
            let fit = CHILDREN_SHARE * self.window.as_secs_f64() / t.elapsed().as_secs_f64();
            self.planned = (fit as usize).clamp(CHILDREN_MIN, CHILDREN_MAX);
        }
    }

    fn spawn(&self) -> Result<ProcessSample, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let out = Command::new(exe)
            .args([
                "--child",
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child: {e}"))?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find(|l| l.starts_with("sample "))
            .ok_or("child printed no sample")?;
        let field = |key: &str| -> Result<f64, String> {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("child sample lacks {key}"))
        };
        Ok(ProcessSample {
            setup_s: field("setup_s")?,
            cold_ms: field("cold_ms")?,
            cold_lower_ms: field("cold_lower_ms")?,
        })
    }

    fn median(&self, f: impl Fn(&ProcessSample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

/// The child side: set up exactly as a benchmark run does, in a process
/// whose plan registry starts empty, and report the times.
fn child(w: &Workload, started: Instant) -> i32 {
    let mut tr = Tracer::new(true);
    match pass(w, &w.options, &mut tr).and_then(|p| check(w, &p.result, None).map(|()| p)) {
        Ok(p) => {
            let setup_s = started.elapsed().as_secs_f64();
            let lower_ms: f64 = tr.durations("codegen.lower").iter().sum();
            println!(
                "sample setup_s={setup_s} cold_ms={} cold_lower_ms={lower_ms}",
                p.compile_ms
            );
            0
        }
        Err(e) => {
            eprintln!("perfbench: child {} failed: {e}", w.name);
            1
        }
    }
}

/// Remove every `HPFC_*` variable before anything reads it, so replay
/// stays serial and the registry and symbolic tiers keep their defaults.
/// Returns the names removed; child processes inherit the cleaned
/// environment.
fn clear_hpfc_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HPFC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

/// The commit checked out, read from `.git` without running git; a
/// checkout that is not a repository has none.
fn git_rev() -> String {
    let git = repo_root().join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "none".into(),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The process's real memory high-water mark, in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() {
    let started = Instant::now();
    let cleared = clear_hpfc_env();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        exit(2)
    });
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!("perfbench: --workload must be adi, remap_chain or frontend");
        exit(2)
    };
    if args.child {
        exit(child(&w, started));
    }

    let mut tally = Tally::default();
    // Set-up: source generation (done), the first compile in a process
    // whose plan registry is empty, and the warm-up run.
    let mut tr = Tracer::new(args.trace);
    let warm = tally
        .record(pass(&w, &w.options, &mut tr).and_then(|p| check(&w, &p.result, None).map(|()| p)));
    let parent_setup_s = started.elapsed().as_secs_f64();
    let Some(warm) = warm else {
        eprintln!(
            "perfbench: {}: the warm-up pass failed: {}",
            w.name,
            tally.problems.join("; ")
        );
        exit(1)
    };
    let parent = ProcessSample {
        setup_s: parent_setup_s,
        cold_ms: warm.compile_ms,
        cold_lower_ms: tr.durations("codegen.lower").iter().sum(),
    };
    let mut children = Children::new(&args, parent);

    let base = warm.result.stats;
    let mut spans = None;
    let metrics: Metrics = if !args.trace {
        let t = timed_loop(&w, args.seconds, &mut tr, &base, &mut tally, &mut children);
        children.finish(&mut tally);
        let rss = rss_peak_mb();
        if w.check_naive {
            tally.record(check_naive(&w, &warm.result));
        }
        let ok_rate = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
        vec![
            ("setup_s", children.median(|s| s.setup_s), "s"),
            ("compile_cold_ms", children.median(|s| s.cold_ms), "ms"),
            ("compile_ms", median(&t.compile), "ms"),
            ("run_ms", median(&t.run), "ms"),
            ("e2e_ms", median(&t.e2e), "ms"),
            ("net_bytes", base.bytes as f64, "bytes"),
            ("net_messages", base.messages as f64, "count"),
            ("model_comm_us", base.time_us, "model_us"),
            (
                "peak_mem_mb",
                warm.result.peak_mem_bytes as f64 / (1u64 << 20) as f64,
                "MB",
            ),
            ("rss_peak_mb", rss, "MB"),
            ("ok_rate", ok_rate, "ratio"),
        ]
    } else {
        let (metrics, tr) = traced_metrics(&args, &w, &warm, &base, &mut children, &mut tally);
        spans = Some(tr);
        metrics
    };

    let config = format!(
        "{{\"workload\": {}, \"seed\": {}, \"shape\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {}, \"rustc\": {}, \"hpfc_env_cleared\": [{}], \"replay\": \"serial\", \
         \"process_samples\": {}, \"load\": \"closed loop, 1 client, 1 process\"}}",
        json_str(w.name),
        args.seed,
        json_str(&w.shape),
        args.seconds,
        u8::from(args.trace),
        json_str(&git_rev()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&rustc_version()),
        cleared.iter().map(|k| json_str(k)).collect::<Vec<_>>().join(", "),
        children.samples.len(),
    );
    println!("config {config}");
    if let Some(tr) = spans {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.json", w.name, args.seed));
        match tr.write_json(&path, w.name, &config) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in &metrics {
        println!("{:<28} {value:>16.4} {unit}", format!("{}.{name}", w.name));
    }
    for p in &tally.problems {
        println!("failure: {p}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Loop motion is off on workloads other than `frontend`; time the pass
/// on their parsed routines outside the pipeline, as the runtime layers
/// are, so the layer has a measured cost on every workload.
fn motion_off_path_ms(src: &str) -> f64 {
    let Ok(ast) = lang::parse_program(src) else {
        return 0.0;
    };
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for r in &ast.routines {
                std::hint::black_box(cfg::transform::hoist_trailing_loop_remaps(r));
            }
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// The traced run: an untraced phase and a traced phase of half the
/// time each, then the runtime layers measured on the workload's own
/// mapping pairs, outside `execute`.
fn traced_metrics(
    args: &Args,
    w: &Workload,
    warm: &Pass,
    base: &NetStats,
    children: &mut Children,
    tally: &mut Tally,
) -> (Metrics, Tracer) {
    let half = args.seconds / 2.0;
    let untraced = timed_loop(w, half, &mut Tracer::new(false), base, tally, children);
    let mut tr = Tracer::new(true);
    tr.iter = untraced.e2e.len() as u64;
    let traced = timed_loop(w, half, &mut tr, base, tally, children);
    children.finish(tally);
    let probe = probe::run(&warm.built.programs, PROBE_REPS, &mut tr);
    let motion_ms = if w.options.loop_motion {
        median(&tr.durations("cfg.motion"))
    } else {
        motion_off_path_ms(&w.source)
    };
    for f in &probe.failures {
        tally.record::<()>(Err(f.clone()));
    }

    // Coverage: the layer spans' share of the traced e2e wall time.
    let layers = [
        "lang.parse",
        "cfg.motion",
        "lang.sema",
        "rgraph.build",
        "rgraph.optimize",
        "codegen.lower",
        "interp.execute",
    ];
    let e2e_total: f64 = tr.durations("e2e").iter().sum();
    let layer_total: f64 = layers
        .iter()
        .map(|l| tr.durations(l).iter().sum::<f64>())
        .sum();
    let selfs = tr.self_ms();
    let glue: Vec<f64> = tr
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "e2e" || s.name == "compile")
        .filter_map(|(_, v)| *v)
        .collect();
    let glue_per_pass = ratio(glue.iter().sum(), traced.e2e.len() as f64);
    let med = |name: &str| median(&tr.durations(name));
    let s = &warm.result.stats;
    let execute_ms = med("interp.execute");
    let self_ms = execute_ms - s.remaps_performed as f64 * probe.replay_ms_per_remap;
    let n = untraced.run.len();
    // The highest percentile with at least ten samples beyond it.
    let tail_q = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| (1.0 - q) * n as f64 >= 10.0)
        .unwrap_or(0.5);
    let lookups = (s.registry_hits + s.registry_misses) as f64;
    let metrics = vec![
        ("lang.parse_ms", med("lang.parse"), "ms"),
        ("lang.sema_ms", med("lang.sema"), "ms"),
        ("cfg.motion_ms", motion_ms, "ms"),
        ("cfg.moved_remaps", warm.built.moved_remaps as f64, "count"),
        ("rgraph.build_ms", med("rgraph.build"), "ms"),
        ("rgraph.optimize_ms", med("rgraph.optimize"), "ms"),
        ("rgraph.remap_slots", warm.built.remap_slots as f64, "count"),
        (
            "rgraph.removed_ratio",
            ratio(
                warm.built.removed_slots as f64,
                warm.built.remap_slots as f64,
            ),
            "ratio",
        ),
        ("codegen.lower_ms", med("codegen.lower"), "ms"),
        (
            "codegen.lower_cold_ms",
            children.median(|s| s.cold_lower_ms),
            "ms",
        ),
        (
            "codegen.emitted_remaps",
            warm.built.emitted_remaps as f64,
            "count",
        ),
        ("interp.execute_ms", execute_ms, "ms"),
        ("interp.self_ms", self_ms, "ms"),
        ("interp.self_share", ratio(self_ms, execute_ms), "ratio"),
        ("runtime.plan_ms", probe.plan_ms, "ms"),
        ("runtime.schedule_ms", probe.schedule_ms, "ms"),
        ("runtime.program_compile_ms", probe.compile_ms, "ms"),
        ("runtime.program_kb", probe.program_kb, "KiB"),
        (
            "runtime.replay_ms_per_remap",
            probe.replay_ms_per_remap,
            "ms",
        ),
        ("runtime.replay_gb_per_s", probe.replay_gb_per_s, "GB/s"),
        ("runtime.runs_copied", s.runs_copied as f64, "count"),
        ("runtime.account_ms", probe.account_ms, "ms"),
        (
            "runtime.remaps_performed",
            s.remaps_performed as f64,
            "count",
        ),
        (
            "runtime.remaps_reused_live",
            s.remaps_reused_live as f64,
            "count",
        ),
        (
            "runtime.remaps_skipped_noop",
            s.remaps_skipped_noop as f64,
            "count",
        ),
        ("runtime.bytes_moved", s.bytes_moved as f64, "bytes"),
        ("runtime.plans_computed", s.plans_computed as f64, "count"),
        ("runtime.plan_cache_hits", s.plan_cache_hits as f64, "count"),
        (
            "runtime.registry_hit_ratio",
            ratio(s.registry_hits as f64, lookups),
            "ratio",
        ),
        ("run_ms_tail", percentile(&untraced.run, tail_q), "ms"),
        ("run_ms_tail_pct", tail_q * 100.0, "%"),
        ("run_ms_samples", n as f64, "count"),
        (
            "trace.layer_coverage",
            ratio(layer_total, e2e_total),
            "ratio",
        ),
        ("trace.glue_ms", glue_per_pass, "ms"),
        (
            "trace.overhead_ms",
            median(&traced.e2e) - median(&untraced.e2e),
            "ms",
        ),
    ];
    (metrics, tr)
}
