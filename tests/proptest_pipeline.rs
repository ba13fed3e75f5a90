//! Pipeline fuzzing: generate random well-formed routines (random
//! control flow, random remapping directives, random references) and
//! check the end-to-end invariants on every one:
//!
//! 1. naive and optimized compilations produce **identical results**;
//! 2. optimization never increases remapping traffic;
//! 3. Theorem 1 (App. C) holds on the optimized graph;
//! 4. every emitted remap slot count is consistent with the stats.

use hpfc::{compile, compile_and_run, CompileOptions, ExecConfig, RunError};
use proptest::prelude::*;

/// A random program over three arrays aligned to one template, with
/// nested ifs/loops and redistributions drawn from four formats.
#[derive(Debug, Clone)]
struct Gen {
    stmts: Vec<GStmt>,
}

#[derive(Debug, Clone)]
enum GStmt {
    AssignWhole(usize),          // aK = aK + 1.0  (read+write)
    AssignFull(usize),           // aK = 2.0       (full redefine)
    Read(usize),                 // x = aK(1)
    Redistribute(usize),         // one of 4 formats
    If(Vec<GStmt>, Vec<GStmt>),
    Loop(u8, Vec<GStmt>),
}

fn fmt_str(i: usize) -> &'static str {
    ["block", "cyclic", "cyclic(2)", "block(8)"][i % 4]
}

fn render_body(stmts: &[GStmt], out: &mut String, depth: usize) {
    let pad = "  ".repeat(depth + 1);
    for s in stmts {
        match s {
            GStmt::AssignWhole(k) => out.push_str(&format!("{pad}a{k} = a{k} + 1.0\n", k = k % 3)),
            GStmt::AssignFull(k) => out.push_str(&format!("{pad}a{k} = 2.0\n", k = k % 3)),
            GStmt::Read(k) => out.push_str(&format!("{pad}x = a{k}(3)\n", k = k % 3)),
            GStmt::Redistribute(f) => {
                out.push_str(&format!("!hpf$ redistribute t({})\n", fmt_str(*f)))
            }
            GStmt::If(a, b) => {
                out.push_str(&format!("{pad}if (x > 0.0) then\n"));
                render_body(a, out, depth + 1);
                if !b.is_empty() {
                    out.push_str(&format!("{pad}else\n"));
                    render_body(b, out, depth + 1);
                }
                out.push_str(&format!("{pad}endif\n"));
            }
            GStmt::Loop(n, b) => {
                out.push_str(&format!("{pad}do i = 1, {n}\n"));
                render_body(b, out, depth + 1);
                out.push_str(&format!("{pad}enddo\n"));
            }
        }
    }
}

fn render(g: &Gen) -> String {
    let mut s = String::from(
        "subroutine fuzz\n  real :: a0(16), a1(16), a2(16)\n!hpf$ processors p(4)\n\
         !hpf$ template t(16)\n!hpf$ dynamic t\n!hpf$ align with t :: a0, a1, a2\n\
         !hpf$ distribute t(block) onto p\n  x = 1.0\n  a0 = 0.0\n  a1 = 0.0\n  a2 = 0.0\n",
    );
    render_body(&g.stmts, &mut s, 0);
    s.push_str("end subroutine\n");
    s
}

fn gstmt_strategy(depth: u32) -> impl Strategy<Value = GStmt> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(GStmt::AssignWhole),
        (0usize..3).prop_map(GStmt::AssignFull),
        (0usize..3).prop_map(GStmt::Read),
        (0usize..4).prop_map(GStmt::Redistribute),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (prop::collection::vec(inner.clone(), 1..4), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(a, b)| GStmt::If(a, b)),
            (1u8..4, prop::collection::vec(inner, 1..4)).prop_map(|(n, b)| GStmt::Loop(n, b)),
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = Gen> {
    prop::collection::vec(gstmt_strategy(2), 1..10).prop_map(|stmts| Gen { stmts })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_optimize_safely(g in program_strategy()) {
        let src = render(&g);
        // Random branch-local redistributions can create ambiguous
        // references — those programs are *correctly rejected*
        // (restriction 1). Rejection must not depend on the
        // optimization level; accepted programs continue below.
        let naive = compile(&src, &CompileOptions::naive());
        let opt = compile(&src, &CompileOptions::default());
        let (naive, opt) = match (naive, opt) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(a), Err(b)) => {
                let ca: Vec<_> = a.iter().map(|d| d.code).collect();
                let cb: Vec<_> = b.iter().map(|d| d.code).collect();
                prop_assert_eq!(ca, cb, "rejection differs by opt level\n{}", src);
                return Ok(());
            }
            (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                panic!("acceptance depends on optimization level: {e:?}\n{src}")
            }
        };
        hpfc::rgraph::optimize::verify_reaching_paths(&opt.main().rg)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));

        let rn = hpfc::execute(&naive.programs(), "fuzz", ExecConfig::default())
            .expect("naive executes cleanly");
        let ro = hpfc::execute(&opt.programs(), "fuzz", ExecConfig::default())
            .expect("optimized executes cleanly");
        prop_assert_eq!(&rn.arrays, &ro.arrays, "results differ\n{}", src);
        prop_assert!(
            ro.stats.bytes <= rn.stats.bytes,
            "optimized traffic grew: {} > {} \n{}",
            ro.stats.bytes, rn.stats.bytes, src
        );
        prop_assert!(ro.stats.messages <= rn.stats.messages);
    }

    #[test]
    fn loop_motion_is_semantics_preserving(g in program_strategy()) {
        let src = render(&g);
        let plain = compile_and_run(&src, &CompileOptions::default(), ExecConfig::default());
        let moved = compile_and_run(&src, &CompileOptions::max(), ExecConfig::default());
        let (plain, moved) = match (plain, moved) {
            // Rejected programs (restriction 1) are out of scope here;
            // note that motion may turn a rejected program into an
            // accepted one (it removes an in-loop remapping ambiguity),
            // which is fine — it only runs when provably safe.
            (Err(RunError::Compile(_)), _) | (_, Err(RunError::Compile(_))) => return Ok(()),
            (a, b) => (a.expect("compiled programs run").1, b.expect("compiled programs run").1),
        };
        prop_assert_eq!(&plain.arrays, &moved.arrays, "loop motion changed results\n{}", src);
    }

    #[test]
    fn eviction_pressure_is_semantics_preserving(g in program_strategy()) {
        let src = render(&g);
        let normal = compile_and_run(&src, &CompileOptions::default(), ExecConfig::default());
        let cfg = ExecConfig { evict_live_copies: true, ..ExecConfig::default() };
        let pressed = compile_and_run(&src, &CompileOptions::default(), cfg);
        let (normal, pressed) = match (normal, pressed) {
            (Err(RunError::Compile(_)), _) | (_, Err(RunError::Compile(_))) => return Ok(()),
            (a, b) => (a.expect("compiled programs run").1, b.expect("compiled programs run").1),
        };
        prop_assert_eq!(&normal.arrays, &pressed.arrays);
        prop_assert!(pressed.stats.bytes >= normal.stats.bytes);
    }
}
