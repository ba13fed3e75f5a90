//! Experiment harness: regenerates every figure/claim of the paper
//! (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! recorded results).
//!
//! The `hpfc-experiments` binary prints the tables; the criterion
//! benches under `benches/` measure compiler-phase wall time and the
//! complexity claims of App. B/C.

use hpfc::{compile, compile_and_run, figures, CompileOptions, ExecConfig, NetStats};

/// A synthetic routine generator for the complexity experiments
/// (E18/E19): `n_stmts` filler statements, `n_remaps` redistributions
/// alternating between two distributions, `n_arrays` arrays aligned to
/// one template (so every redistribution remaps all of them), on a
/// 4-processor grid.
pub fn synth_program(n_stmts: usize, n_remaps: usize, n_arrays: usize) -> String {
    assert!(n_arrays >= 1);
    let mut s = String::from("subroutine synth\n");
    let names: Vec<String> = (0..n_arrays).map(|i| format!("a{i}")).collect();
    s.push_str(&format!("  real :: {}\n", names.iter().map(|n| format!("{n}(64)"))
        .collect::<Vec<_>>().join(", ")));
    s.push_str("!hpf$ processors p(4)\n!hpf$ template t(64)\n!hpf$ dynamic t\n");
    s.push_str(&format!("!hpf$ align with t :: {}\n", names.join(", ")));
    s.push_str("!hpf$ distribute t(block) onto p\n");
    // Interleave remaps evenly among the filler statements; every array
    // is referenced after every remapping so nothing is removed (the
    // worst case for the analyses).
    let gap = n_stmts / (n_remaps + 1);
    let mut stmt = 0usize;
    for r in 0..=n_remaps {
        for k in 0..gap.max(1) {
            if stmt >= n_stmts {
                break;
            }
            let a = &names[(stmt + k) % n_arrays];
            s.push_str(&format!("  {a}(1) = {a}(2) + 1.0\n"));
            stmt += 1;
        }
        if r < n_remaps {
            let fmt = if r % 2 == 0 { "cyclic" } else { "block" };
            s.push_str(&format!("!hpf$ redistribute t({fmt}) onto p\n"));
        }
    }
    s.push_str("end subroutine\n");
    s
}

/// One experiment row: a label plus naive/optimized traffic.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment / configuration label.
    pub label: String,
    /// Naive (unoptimized) stats.
    pub naive: NetStats,
    /// Optimized stats.
    pub opt: NetStats,
    /// Extra notes (what the row demonstrates).
    pub note: String,
}

impl Row {
    /// Percentage of remapping bytes eliminated.
    pub fn saved_pct(&self) -> f64 {
        if self.naive.bytes == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.opt.bytes as f64 / self.naive.bytes as f64)
        }
    }
}

/// Run one figure program under both configurations (the two runs are
/// independent simulations: execute them concurrently).
pub fn run_figure(src: &str, label: &str, note: &str, exec: ExecConfig) -> Row {
    let (naive, opt) = std::thread::scope(|s| {
        let e1 = exec.clone();
        let h1 = s.spawn(move || {
            compile_and_run(src, &CompileOptions::naive(), e1)
                .unwrap_or_else(|e| panic!("{e}"))
                .1
        });
        let h2 = s.spawn(move || {
            compile_and_run(src, &CompileOptions::max(), exec)
                .unwrap_or_else(|e| panic!("{e}"))
                .1
        });
        (h1.join().expect("naive run"), h2.join().expect("optimized run"))
    });
    Row { label: label.to_string(), naive: naive.stats, opt: opt.stats, note: note.to_string() }
}

/// Run a batch of (source, label, note, exec) cells concurrently with
/// scoped threads — each cell is an independent deterministic
/// simulation.
pub fn run_figures_parallel(cells: Vec<(String, String, String, ExecConfig)>) -> Vec<Row> {
    std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .iter()
            .map(|(src, label, note, exec)| {
                s.spawn(move || run_figure(src, label, note, exec.clone()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("experiment cell")).collect()
    })
}

/// Format a table of rows.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} | {:>9} {:>11} | {:>9} {:>11} | {:>7} | note",
        "experiment", "naive msg", "naive bytes", "opt msg", "opt bytes", "saved"
    );
    for r in rows {
        println!(
            "{:<22} | {:>9} {:>11} | {:>9} {:>11} | {:>6.1}% | {}",
            r.label, r.naive.messages, r.naive.bytes, r.opt.messages, r.opt.bytes,
            r.saved_pct(), r.note
        );
    }
}

/// Compile-time statistics row (remapping-slot accounting).
pub fn print_static_table() {
    println!("\n== static optimization effect per figure (E01-E11) ==");
    println!(
        "{:<8} | {:>5} {:>7} {:>7} {:>8} {:>8}",
        "figure", "slots", "removed", "trivial", "no-data", "emitted"
    );
    for (name, src) in figures::all() {
        let c = compile(src, &CompileOptions::default()).unwrap();
        let u = c.main();
        println!(
            "{:<8} | {:>5} {:>7} {:>7} {:>8} {:>8}",
            name,
            u.opt_stats.total,
            u.opt_stats.removed,
            u.opt_stats.trivial,
            u.codegen_stats.no_data_remaps,
            u.codegen_stats.emitted_remaps,
        );
    }
}

/// The standard scalar-argument set used by the harness.
pub fn std_exec() -> ExecConfig {
    ExecConfig::default().with_scalar("m", 1.0).with_scalar("t", 4.0).with_scalar("s", 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_programs_compile_at_scale() {
        for (n, m, p) in [(16, 2, 2), (64, 8, 4), (128, 4, 8)] {
            let src = synth_program(n, m, p);
            let c = compile(&src, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("synth({n},{m},{p}): {e:?}"));
            // Every remapping survives (worst case by construction):
            // m redistributes × p arrays, plus entry slots.
            assert!(c.main().opt_stats.total >= m * p);
        }
    }

    #[test]
    fn rows_compute_savings() {
        let r = run_figure(figures::FIG3_ALIGNED, "fig3", "", ExecConfig::default());
        assert!(r.saved_pct() > 0.0);
    }
}
