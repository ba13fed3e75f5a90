//! The three workloads: HPF source text generated from a seed, the
//! compile options and scalar arguments it runs with, and a plain
//! sequential dense reference of its result — computed here, never by
//! the compiler under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hpfc::{figures, CompileOptions, ExecConfig};

/// Closed-form traffic of one run of a workload whose moving remaps all
/// copy a whole array of `elements` f64 values across `nprocs`
/// processors with every element changing owner except a 1/P share.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub moving_remaps: u64,
    pub elements: u64,
    pub nprocs: u64,
    pub reused_live: Option<u64>,
}

impl Traffic {
    /// `NetStats.bytes`: moving remaps × n × 8 × (P−1)/P.
    pub fn net_bytes(&self) -> u64 {
        self.moving_remaps * self.elements * 8 * (self.nprocs - 1) / self.nprocs
    }

    /// `NetStats.bytes_moved`: moving remaps × n × 8.
    pub fn bytes_moved(&self) -> u64 {
        self.moving_remaps * self.elements * 8
    }
}

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub source: String,
    pub options: CompileOptions,
    pub exec: ExecConfig,
    /// Reference contents of every array of the main routine.
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Reference values of the scalars the reference tracks.
    pub scalars: Vec<(String, f64)>,
    /// Closed-form traffic, where the workload has one.
    pub traffic: Option<Traffic>,
    /// Whether naive compilation must be checked against the optimized one.
    pub check_naive: bool,
    /// What the seed chose, recorded with the results.
    pub shape: String,
}

/// Build a workload by name, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "adi" => Some(adi(seed)),
        "remap_chain" => Some(remap_chain(seed)),
        "frontend" => Some(frontend(seed)),
        _ => None,
    }
}

/// splitmix64: a small deterministic generator, so the same seed gives
/// the same inputs on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// ADI at n=1024 on 16 processors, t=4: row prefix sweeps under
/// `(block, *)`, column prefix sweeps under `(*, block)`, two whole-array
/// remaps per iteration. The seed picks the initial fill value.
fn adi(seed: u64) -> Workload {
    const N: usize = 1024;
    const P: u64 = 16;
    const T: usize = 4;
    let fill = Rng::new(seed, 1).range(1, 8);
    let scaled = figures::scaled("adi", N as u64, P).expect("adi is a scalable figure");
    assert!(
        scaled.contains("  u = 1.0\n"),
        "the adi figure initializes u with `u = 1.0`"
    );
    let source = scaled.replacen("  u = 1.0\n", &format!("  u = {fill}.0\n"), 1);

    let mut u = vec![fill as f64; N * N];
    for _ in 0..T {
        for j in 1..N {
            u[j] += u[j - 1];
        }
        for i in 1..N {
            u[i * N] += u[(i - 1) * N];
        }
    }
    let x = u[N + 1];
    Workload {
        name: "adi",
        source,
        options: CompileOptions::default(),
        exec: ExecConfig::default().with_scalar("t", T as f64),
        arrays: BTreeMap::from([("u".to_string(), u)]),
        scalars: vec![("x".to_string(), x)],
        traffic: Some(Traffic {
            moving_remaps: 2 * T as u64,
            elements: (N * N) as u64,
            nprocs: P,
            reused_live: None,
        }),
        check_naive: false,
        shape: format!("n={N} P={P} t={T} fill={fill}"),
    }
}

/// A 1-D remap chain at n=2^20 on 16 processors, t=8 iterations of
/// block→cyclic→cyclic(8)→block, then →cyclic read-only and →block,
/// which reuses the still-live block copy. Single-element writes
/// between the moving legs keep every other leg moving. The seed picks
/// the written and read element positions.
fn remap_chain(seed: u64) -> Workload {
    const N: u64 = 1 << 20;
    const P: u64 = 16;
    const T: u64 = 8;
    let mut rng = Rng::new(seed, 2);
    let pos: Vec<u64> = (0..5).map(|_| rng.range(1, N)).collect();
    let source = format!(
        "subroutine chain\n  real :: a({N})\n!hpf$ processors p({P})\n!hpf$ dynamic a\n\
         !hpf$ distribute a(block) onto p\n  do k = 1, {T}\n    a({p0}) = a({p0}) + k\n\
         !hpf$ redistribute a(cyclic) onto p\n    a({p1}) = a({p1}) + 2.0\n\
         !hpf$ redistribute a(cyclic(8)) onto p\n    a({p2}) = a({p2}) + 3.0\n\
         !hpf$ redistribute a(block) onto p\n    a({p3}) = a({p3}) + 4.0\n\
         !hpf$ redistribute a(cyclic) onto p\n    x = a({p4})\n\
         !hpf$ redistribute a(block) onto p\n  enddo\n  y = a({p0})\nend subroutine\n",
        p0 = pos[0],
        p1 = pos[1],
        p2 = pos[2],
        p3 = pos[3],
        p4 = pos[4],
    );

    let mut a = vec![0.0; N as usize];
    let at = |p: u64| (p - 1) as usize;
    let mut x = 0.0;
    for k in 1..=T {
        a[at(pos[0])] += k as f64;
        a[at(pos[1])] += 2.0;
        a[at(pos[2])] += 3.0;
        a[at(pos[3])] += 4.0;
        x = a[at(pos[4])];
    }
    let y = a[at(pos[0])];
    Workload {
        name: "remap_chain",
        source,
        options: CompileOptions::default(),
        exec: ExecConfig::default(),
        arrays: BTreeMap::from([("a".to_string(), a)]),
        scalars: vec![("x".to_string(), x), ("y".to_string(), y)],
        traffic: Some(Traffic {
            moving_remaps: 4 * T,
            elements: N,
            nprocs: P,
            reused_live: Some(T),
        }),
        check_naive: false,
        shape: format!("n={N} P={P} t={T} positions={pos:?}"),
    }
}

/// Extent of every `frontend` array.
const FE_N: usize = 64;
/// The two templates' array groups; `a6` and `a7` are distributed
/// directly and passed to the prescriptive-dummy interfaces.
const GROUPS: [(&str, [usize; 3], &str); 2] =
    [("t1", [0, 1, 2], "block"), ("t2", [3, 4, 5], "cyclic(2)")];
const CALLED: [(usize, &str); 2] = [(6, "block"), (7, "cyclic")];
const FORMATS: [&str; 5] = ["cyclic", "cyclic(4)", "cyclic(8)", "block", "cyclic(2)"];

/// The block kinds the `frontend` generator composes, each a paper
/// figure shape. The block sequence is fixed and the seed picks element
/// indices and constants only: remap-group coalescing covers one planned
/// source per member, and which source that is follows the version
/// numbering, so a seeded block order would make message counts vary
/// by seed. Every block starts and ends with its arrays written under
/// their home mapping.
#[derive(Clone, Copy)]
enum Block {
    /// Fig. 6: a remap in the THEN branch, resolved after the IF; with
    /// `else_reads`, Fig. 13: the ELSE branch remaps to the same mapping
    /// and only reads, so the home copy stays live for the resolution.
    IfRemap {
        group: usize,
        fmt: usize,
        then_taken: bool,
        else_reads: bool,
    },
    /// Fig. 16: a DO loop whose body ends by remapping back.
    LoopRemap { group: usize, fmt: usize },
    /// Fig. 4/8: calls whose dummies prescribe another mapping.
    Call { array: usize },
    /// Sec. 4.3: KILL before a remap, then a full redefinition.
    Kill {
        group: usize,
        fmt: usize,
        victim: usize,
    },
}

/// Source text plus the dense model the statements are applied to as
/// they are emitted.
struct Gen {
    src: String,
    model: Vec<Vec<f64>>,
    rng: Rng,
    /// The scalar `x` the Fig. 13 ELSE branches read into, once assigned.
    x: Option<f64>,
    statements: usize,
    remaps: usize,
}

impl Gen {
    fn line(&mut self, indent: usize, text: &str) {
        let _ = writeln!(self.src, "{:indent$}{text}", "", indent = indent);
    }

    fn redistribute(&mut self, template: &str, fmt: &str) {
        self.line(0, &format!("!hpf$ redistribute {template}({fmt}) onto p"));
        self.remaps += 1;
    }

    fn index(&mut self) -> usize {
        self.rng.range(1, FE_N as u64) as usize
    }

    /// `a{dst}(i) = a{src}(j) + c`, applied to the model when `live`.
    fn update(&mut self, indent: usize, dst: usize, src: usize, live: bool) {
        let (i, j, c) = (self.index(), self.index(), self.rng.range(1, 9));
        self.line(indent, &format!("a{dst}({i}) = a{src}({j}) + {c}.0"));
        self.statements += 1;
        if live {
            self.model[dst][i - 1] = self.model[src][j - 1] + c as f64;
        }
    }

    /// `k` updates rotating over the group, so every member is written.
    fn fill(&mut self, indent: usize, members: &[usize], k: usize, live: bool) {
        for s in 0..k {
            let dst = members[s % members.len()];
            let src = members[(s + 1) % members.len()];
            self.update(indent, dst, src, live);
        }
    }

    fn emit(&mut self, block: Block) {
        match block {
            Block::IfRemap {
                group,
                fmt,
                then_taken,
                else_reads,
            } => {
                let (t, members, home) = GROUPS[group];
                self.fill(2, &members, 6, true);
                let (probe, i) = (members[0], self.index());
                let v = self.model[probe][i - 1];
                let (op, taken) = if then_taken {
                    (">", v > -1.0)
                } else {
                    ("<", v < -1.0)
                };
                assert_eq!(taken, then_taken, "values stay non-negative");
                self.line(2, &format!("if (a{probe}({i}) {op} -1.0) then"));
                self.statements += 1;
                self.redistribute(t, FORMATS[fmt]);
                self.fill(4, &members, 6, taken);
                if else_reads {
                    self.line(2, "else");
                    self.redistribute(t, FORMATS[fmt]);
                    for &a in &members {
                        let j = self.index();
                        self.line(4, &format!("x = a{a}({j})"));
                        self.statements += 1;
                        if !taken {
                            self.x = Some(self.model[a][j - 1]);
                        }
                    }
                }
                self.line(2, "endif");
                self.redistribute(t, home);
                self.fill(2, &members, 4, true);
            }
            Block::LoopRemap { group, fmt } => {
                let (t, members, home) = GROUPS[group];
                self.line(2, "do k = 1, 3");
                self.statements += 1;
                self.redistribute(t, FORMATS[fmt]);
                let mut body = Vec::new();
                for &a in &members {
                    let (off, c) = (self.rng.range(0, (FE_N - 3) as u64), self.rng.range(1, 9));
                    self.line(4, &format!("a{a}(k + {off}) = a{a}(k + {off}) + {c}.0"));
                    self.statements += 1;
                    body.push((a, off as usize, c as f64));
                }
                self.redistribute(t, home);
                self.line(2, "enddo");
                for k in 1..=3 {
                    for &(a, off, c) in &body {
                        self.model[a][k + off - 1] += c;
                    }
                }
                self.fill(2, &members, 9, true);
            }
            Block::Call { array } => {
                self.fill(2, &[array], 2, true);
                self.line(2, &format!("call upd(a{array})"));
                for v in &mut self.model[array] {
                    *v += 1.0;
                }
                self.line(2, &format!("call look(a{array})"));
                self.line(2, &format!("call put(a{array})"));
                for (i, v) in self.model[array].iter_mut().enumerate() {
                    *v = i as f64;
                }
                self.statements += 3;
                self.fill(2, &[array], 6, true);
            }
            Block::Kill { group, fmt, victim } => {
                let (t, members, home) = GROUPS[group];
                self.fill(2, &members, 6, true);
                let v = members[victim];
                self.line(0, &format!("!hpf$ kill a{v}"));
                self.redistribute(t, FORMATS[fmt]);
                let c = self.rng.range(1, 9);
                self.line(2, "do k = 1, 64");
                self.line(4, &format!("a{v}(k) = {c}.0"));
                self.line(2, "enddo");
                self.statements += 2;
                self.model[v] = vec![c as f64; FE_N];
                self.fill(2, &members, 6, true);
                self.redistribute(t, home);
                self.fill(2, &members, 3, true);
            }
        }
    }
}

/// The fixed block sequence: 18 Fig. 6 and 18 Fig. 13 IF blocks (2 and
/// 3 remaps, half of each taking the ELSE branch), 30 loops and 25 KILL
/// blocks (2 remaps each) give 200 remap directives; 40 call blocks add
/// implicit remaps. The kinds are interleaved round-robin.
fn frontend_blocks() -> Vec<Block> {
    let kinds: [Vec<Block>; 4] = [
        (0..36)
            .map(|i| Block::IfRemap {
                group: i % 2,
                fmt: i % 5,
                then_taken: i % 8 < 4,
                else_reads: (i / 2) % 2 == 0,
            })
            .collect(),
        (0..30)
            .map(|i| Block::LoopRemap {
                group: i % 2,
                fmt: (i + 2) % 5,
            })
            .collect(),
        (0..25)
            .map(|i| Block::Kill {
                group: i % 2,
                fmt: (i + 1) % 4,
                victim: i % 3,
            })
            .collect(),
        (0..40)
            .map(|i| Block::Call {
                array: CALLED[i % 2].0,
            })
            .collect(),
    ];
    let longest = kinds.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| kinds.iter().filter_map(move |k| k.get(i).copied()))
        .collect()
}

/// A program composed of the paper-figure shapes: IF branches with
/// remaps, DO loops with trailing remaps, calls with prescriptive
/// dummies and KILL, over two templates, two directly distributed
/// arrays and five formats — about 2000 statements and 200 remap
/// directives over 8 arrays of 64 elements.
fn frontend(seed: u64) -> Workload {
    let rng = Rng::new(seed, 3);
    let mut g = Gen {
        src: String::new(),
        model: vec![vec![1.0; FE_N]; 8],
        rng,
        x: None,
        statements: 0,
        remaps: 0,
    };

    let names: Vec<String> = (0..8).map(|a| format!("a{a}({FE_N})")).collect();
    g.line(0, "subroutine front");
    g.line(2, &format!("real :: {}", names.join(", ")));
    g.line(0, "!hpf$ processors p(4)");
    for (t, members, home) in GROUPS {
        g.line(0, &format!("!hpf$ template {t}({FE_N})"));
        let list: Vec<String> = members.iter().map(|a| format!("a{a}")).collect();
        g.line(0, &format!("!hpf$ align with {t} :: {}", list.join(", ")));
        g.line(0, &format!("!hpf$ distribute {t}({home}) onto p"));
    }
    let called: Vec<String> = CALLED.iter().map(|(a, _)| format!("a{a}")).collect();
    g.line(0, &format!("!hpf$ dynamic t1, t2, {}", called.join(", ")));
    for (a, home) in CALLED {
        g.line(0, &format!("!hpf$ distribute a{a}({home}) onto p"));
    }
    g.line(2, "interface");
    for (name, intent, fmt) in [
        ("upd", "inout", "cyclic"),
        ("look", "in", "cyclic(4)"),
        ("put", "out", "cyclic(8)"),
    ] {
        g.line(4, &format!("subroutine {name}(x)"));
        g.line(6, &format!("real :: x({FE_N})"));
        g.line(6, &format!("intent({intent}) :: x"));
        g.line(0, &format!("!hpf$ distribute x({fmt}) onto p"));
        g.line(4, "end subroutine");
    }
    g.line(2, "end interface");
    for a in 0..8 {
        g.line(2, &format!("a{a} = 1.0"));
        g.statements += 1;
    }
    for b in frontend_blocks() {
        g.emit(b);
    }
    g.line(0, "end subroutine");

    let arrays = g
        .model
        .iter()
        .enumerate()
        .map(|(a, v)| (format!("a{a}"), v.clone()))
        .collect();
    Workload {
        name: "frontend",
        source: g.src,
        options: CompileOptions::max(),
        exec: ExecConfig::default(),
        arrays,
        scalars: g.x.map(|x| ("x".to_string(), x)).into_iter().collect(),
        traffic: None,
        check_naive: true,
        shape: format!("statements={} remap_directives={}", g.statements, g.remaps),
    }
}
