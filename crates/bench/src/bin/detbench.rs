//! `detbench` — the repo's interpreter-performance harness.
//!
//! Measures two layers and emits one JSON document (`BENCH_interp.json`
//! feedstock):
//!
//! * **micro** — the concrete interpreter (S1) over the synthetic
//!   `mujs_corpus::workload` programs, reported as steps/sec;
//! * **corpus** — the instrumented analysis (S2) over the Table 1
//!   jQuery-like corpus and the §5.2 eval suite, reported as wall time
//!   and corpus-level steps/sec.
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detbench -- --out bench.json
//! $ cargo run --release -p mujs-bench --bin detbench -- --check BENCH_interp.json
//! ```
//!
//! `--check` reruns the corpus measurements and fails (exit 1) if the
//! Table 1 analysis wall time or the full Table 1 pipeline wall time
//! (analysis, specializer and PTA) regresses more than `--max-regress`
//! (default 0.25 = 25%) against the baseline file's `after` section —
//! the CI smoke gate.
//!
//! With `--pta` the harness instead runs the pointer-analysis precision
//! workload (`BENCH_pta.json` feedstock): baseline vs fact-injected vs
//! specialized solves over the Table 1 corpus, measured with both the
//! naive reference solver (`before`) and the delta-propagating bitset
//! solver (`after`) at a budget (`PTA_COMPARE_BUDGET`) where the
//! uninjected baseline reaches a real fixpoint. The precision metrics it
//! gates are deterministic (propagation work, call-graph shape), so
//! `--pta --check` gates exactly — injected must complete wherever
//! specialized does, the baseline must keep reaching its fixpoint, its
//! precision must stay within `--max-regress` of specialized, and its
//! work must not regress against the checked-in baseline. Wall time is
//! reported per row (`wall_ms`, `work_per_sec`) but only gated
//! *relatively*: in release builds the delta solver must sustain at
//! least 1.5x the reference solver's same-run throughput:
//!
//! ```console
//! $ cargo run --release -p mujs-bench --bin detbench -- --pta --out BENCH_pta.json
//! $ cargo run --release -p mujs-bench --bin detbench -- --pta --check BENCH_pta.json --max-regress 0.1
//! ```
//!
//! `--pta` also measures the epoch-sharded parallel solver: the
//! `--threads` list (default `1,2,8`) produces a `threads` scaling
//! section — the uninjected baseline solve per corpus version at each
//! thread count — with a result-identity check (export digests must
//! agree across thread counts, the parallel solver's determinism
//! contract) and a same-run scaling gate: at least 1.8x the
//! single-thread throughput at 8 threads on the non-trivial versions.
//! The scaling gate needs hardware parallelism to be measurable, so it
//! arms only in release builds on hosts with 8+ CPUs (`host_cpus` is
//! recorded in the JSON so a baseline file documents where it was
//! produced); the identity check runs everywhere.

use determinacy::{AnalysisConfig, DetHarness, RunHooks};
use mujs_corpus::{evalbench, jquery_like, workload};
use mujs_interp::driver::Harness;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct MicroResult {
    name: String,
    wall_ms: f64,
    steps: u64,
    steps_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct CorpusResult {
    wall_ms: f64,
    steps: u64,
    steps_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Measurement {
    label: String,
    mode: &'static str,
    micro: Vec<MicroResult>,
    table1_analysis: CorpusResult,
    eval_elim_analysis: CorpusResult,
    table1_full_wall_ms: f64,
}

const MODE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut label = String::from("current");
    let mut max_regress = 0.25f64;
    let mut iters = 3usize;
    let mut pta = false;
    let mut threads: Vec<usize> = vec![1, 2, 8];
    let mut shards: Vec<usize> = vec![16, 32, 64];
    let mut spec_depth: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage("flag needs a value"))
        };
        match args[i].as_str() {
            "--out" => out_path = Some(need(&mut i)),
            "--check" => check_path = Some(need(&mut i)),
            "--label" => label = need(&mut i),
            "--iters" => {
                iters = need(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--iters wants an integer"))
            }
            "--max-regress" => {
                max_regress = need(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--max-regress wants a float"))
            }
            "--pta" => pta = true,
            "--spec-depth" => {
                spec_depth = Some(
                    need(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("--spec-depth wants an integer")),
                )
            }
            "--threads" => {
                threads = need(&mut i)
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--threads wants a comma-separated list"))
                    })
                    .collect();
                if threads.is_empty() {
                    usage("--threads wants at least one thread count");
                }
            }
            "--shards" => {
                shards = need(&mut i)
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--shards wants a comma-separated list"))
                    })
                    .collect();
                if shards.is_empty() {
                    usage("--shards wants at least one shard count");
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if pta {
        run_pta(
            &label,
            out_path.as_deref(),
            check_path.as_deref(),
            max_regress,
            &threads,
            &shards,
            spec_depth,
        );
        return;
    }

    let m = measure(&label, iters, spec_depth);
    let json = serde_json::to_string_pretty(&m).expect("measurement serializes");
    match &out_path {
        Some(p) => {
            std::fs::write(p, format!("{json}\n")).expect("write bench output");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
    report(&m);

    if let Some(p) = check_path {
        let base = std::fs::read_to_string(&p).expect("read baseline");
        let base: serde_json::Value = serde_json::from_str(&base).expect("baseline parses");
        // Accept either a bare measurement or the checked-in
        // {before, after} document; gate against `after`.
        let after = if base.get("after").is_some() {
            &base["after"]
        } else {
            &base
        };
        let gates = [
            (
                "table1 analysis wall",
                m.table1_analysis.wall_ms,
                after["table1_analysis"]["wall_ms"].as_f64(),
            ),
            (
                "table1 full pipeline wall",
                m.table1_full_wall_ms,
                after["table1_full_wall_ms"].as_f64(),
            ),
        ];
        if MODE == "debug" {
            eprintln!("check: debug build — wall-time gate is advisory only");
        }
        let mut failed = false;
        for (name, cur, base_wall) in gates {
            let base_wall = base_wall.unwrap_or_else(|| panic!("baseline lacks {name}"));
            let limit = base_wall * (1.0 + max_regress);
            eprintln!("check: {name} {cur:.1}ms vs baseline {base_wall:.1}ms (limit {limit:.1}ms)");
            if cur > limit && MODE != "debug" {
                eprintln!(
                    "FAIL: {name} regressed more than {:.0}%",
                    max_regress * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("check: ok");
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: detbench [--pta] [--threads N,N,...] [--shards N,N,...]\n\
         \x20               [--spec-depth N] [--out FILE]\n\
         \x20               [--label L] [--iters N] [--check BASELINE.json]\n\
         \x20               [--max-regress F]\n\
         \n\
         \x20 --spec-depth N  specializer context-depth bound (default 4). Unlike\n\
         \x20                 --threads this changes results, so baselines produced\n\
         \x20                 at different depths are not comparable"
    );
    std::process::exit(2);
}

#[derive(Debug, Serialize)]
struct PtaSolverRows {
    solver: &'static str,
    rows: Vec<mujs_bench::pipeline::PtaCompareRow>,
}

#[derive(Debug, Serialize)]
struct PtaThreadsSection {
    threads: usize,
    rows: Vec<mujs_bench::pipeline::PtaScaleRow>,
}

#[derive(Debug, Serialize)]
struct PtaShardsSection {
    shards: usize,
    /// The epoch-sharded driver needs >= 2 threads (or provenance) to
    /// engage; the sweep pins this so the shard knob is what varies.
    threads: usize,
    rows: Vec<mujs_bench::pipeline::PtaScaleRow>,
}

#[derive(Debug, Serialize)]
struct ShortcutSection {
    /// The tight Table 1 budget the comparison runs at — the point of
    /// shortcuts is completing where injection-only starves.
    budget: u64,
    rows: Vec<mujs_bench::pipeline::ShortcutCompareRow>,
}

#[derive(Debug, Serialize)]
struct PtaMeasurement {
    label: String,
    mode: &'static str,
    /// CPUs visible to the measuring host — the scaling rows are only
    /// meaningful where this covers the largest thread count.
    host_cpus: usize,
    budget: u64,
    /// The naive reference solver (pre-optimization algorithm).
    before: PtaSolverRows,
    /// The delta-propagating bitset solver.
    after: PtaSolverRows,
    /// Thread-scaling study: the baseline solve per version at each
    /// requested thread count (epoch-sharded solver for counts >= 2).
    threads: Vec<PtaThreadsSection>,
    /// Shard-count sweep: the baseline solve of the non-trivial versions
    /// at each requested shard count (2 threads), identity-checked
    /// against the first shard count.
    shards: Vec<PtaShardsSection>,
    /// Shortcut comparison: injection-only vs injection+summaries at the
    /// Table 1 budget.
    shortcuts: ShortcutSection,
}

/// The `--pta` workload: three-way solver comparison over the Table 1
/// corpus, measured with both the reference ("before") and the
/// delta-propagating ("after") solver, with a deterministic `--check`
/// gate plus a same-run relative throughput gate (release only).
fn run_pta(
    label: &str,
    out_path: Option<&str>,
    check_path: Option<&str>,
    max_regress: f64,
    thread_counts: &[usize],
    shard_counts: &[usize],
    spec_depth: Option<usize>,
) {
    let budget = mujs_bench::pipeline::PTA_COMPARE_BUDGET;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let solve_all = |solver| -> Vec<_> {
        mujs_corpus::jquery_like::all_versions()
            .iter()
            .map(|v| {
                mujs_bench::pipeline::run_pta_compare_with(v, budget, solver, spec_depth)
                    .expect("pta compare runs")
            })
            .collect()
    };

    // Thread-scaling study: each version's baseline program solved at
    // every requested thread count; digests collected per (thread,
    // version) for the cross-thread result-identity check.
    let cases = mujs_bench::pipeline::pta_scale_cases().expect("scale cases prepare");
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let threads: Vec<PtaThreadsSection> = thread_counts
        .iter()
        .map(|&t| {
            let mut section_digests = Vec::new();
            let rows = cases
                .iter()
                .map(|c| {
                    let (row, digest) = mujs_bench::pipeline::pta_scale_solve(c, budget, t);
                    section_digests.push(digest);
                    row
                })
                .collect();
            digests.push(section_digests);
            PtaThreadsSection { threads: t, rows }
        })
        .collect();

    // Shard-count sweep: the non-trivial versions re-solved at each
    // requested shard count under the epoch-sharded driver (2 threads —
    // the smallest count that engages it). Shards are the unit of
    // determinism, so every count must reproduce the same export.
    let sweep_cases: Vec<&mujs_bench::pipeline::PtaScaleCase> = cases
        .iter()
        .enumerate()
        .filter(|(ci, _)| threads.first().is_some_and(|s| s.rows[*ci].work >= 100_000))
        .map(|(_, c)| c)
        .collect();
    let mut shard_digests: Vec<Vec<u64>> = Vec::new();
    let shards: Vec<PtaShardsSection> = shard_counts
        .iter()
        .map(|&s| {
            let mut section_digests = Vec::new();
            let rows = sweep_cases
                .iter()
                .map(|c| {
                    let (row, digest) =
                        mujs_bench::pipeline::pta_scale_solve_sharded(c, budget, 2, s);
                    section_digests.push(digest);
                    row
                })
                .collect();
            shard_digests.push(section_digests);
            PtaShardsSection {
                shards: s,
                threads: 2,
                rows,
            }
        })
        .collect();

    // Shortcut comparison at the tight Table 1 budget.
    let shortcut_budget = mujs_bench::pipeline::TABLE1_PTA_BUDGET;
    let shortcuts = ShortcutSection {
        budget: shortcut_budget,
        rows: mujs_corpus::jquery_like::all_versions()
            .iter()
            .map(|v| {
                mujs_bench::pipeline::run_shortcut_compare(v, shortcut_budget)
                    .expect("shortcut compare runs")
            })
            .collect(),
    };

    let m = PtaMeasurement {
        label: label.to_owned(),
        mode: MODE,
        host_cpus,
        budget,
        before: PtaSolverRows {
            solver: "reference",
            rows: solve_all(mujs_bench::pipeline::PtaSolverKind::Reference),
        },
        after: PtaSolverRows {
            solver: "delta",
            rows: solve_all(mujs_bench::pipeline::PtaSolverKind::Delta),
        },
        threads,
        shards,
        shortcuts,
    };
    let json = serde_json::to_string_pretty(&m).expect("pta measurement serializes");
    match out_path {
        Some(p) => {
            std::fs::write(p, format!("{json}\n")).expect("write pta bench output");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
    let mut failed = false;
    for (r, b) in m.after.rows.iter().zip(&m.before.rows) {
        eprintln!(
            "  pta {:<6} sites={:<4} base: ok={} work={} poly={} {:>6.1}ms {:>5.1}M/s \
             (ref {:>7.1}ms)  inj: ok={} work={}  spec: ok={} work={}",
            r.version,
            r.injected_sites,
            r.baseline.ok,
            r.baseline.work,
            r.baseline.poly_sites,
            r.baseline.wall_ms,
            r.baseline.work_per_sec / 1e6,
            b.baseline.wall_ms,
            r.injected.ok,
            r.injected.work,
            r.specialized.ok,
            r.specialized.work,
        );
        for (rank, c) in r.root_causes.iter().enumerate() {
            eprintln!(
                "        cause #{:<2} {:<14} {:>8} tuples  {} suggestion(s)  {}",
                rank + 1,
                c.kind,
                c.tuples,
                c.suggestions,
                c.label,
            );
        }
        // Hard invariant, baseline file or not: injection must reach a
        // fixpoint wherever source rewriting does.
        if r.specialized.ok && !r.injected.ok {
            eprintln!(
                "FAIL: {} — specialized completes but injected does not",
                r.version
            );
            failed = true;
        }
        // The raised comparison budget exists so the baseline measures a
        // real fixpoint on jQuery 1.0–1.2 (1.3 is allowed to starve).
        if r.version != "1.3" && !r.baseline.ok {
            eprintln!(
                "FAIL: {} — uninjected baseline no longer reaches fixpoint at budget {budget}",
                r.version
            );
            failed = true;
        }
        // Same-run relative throughput: wall clocks are machine-dependent,
        // but the delta/reference ratio on the same machine moments apart
        // is robust. Gate only non-trivial workloads, release builds only.
        if MODE == "release" && r.baseline.work >= 100_000 && b.baseline.work_per_sec > 0.0 {
            let ratio = r.baseline.work_per_sec / b.baseline.work_per_sec;
            if ratio < 1.5 {
                eprintln!(
                    "FAIL: {} — delta solver only {ratio:.2}x reference throughput",
                    r.version
                );
                failed = true;
            }
        }
    }
    for section in &m.threads {
        for r in &section.rows {
            eprintln!(
                "  pta-scale t={:<2} {:<6} ok={} work={:<8} {:>8.1}ms {:>5.1}M/s",
                section.threads,
                r.version,
                r.ok,
                r.work,
                r.wall_ms,
                r.work_per_sec / 1e6,
            );
        }
    }
    for section in &m.shards {
        for r in &section.rows {
            eprintln!(
                "  pta-shards s={:<3} {:<6} ok={} work={:<8} {:>8.1}ms {:>5.1}M/s",
                section.shards,
                r.version,
                r.ok,
                r.work,
                r.wall_ms,
                r.work_per_sec / 1e6,
            );
        }
    }
    for r in &m.shortcuts.rows {
        eprintln!(
            "  pta-shortcut {:<6} regions={:<3} tuples={:<5} inj: ok={} work={} poly={} avg={:.3}  \
             sc: ok={} work={} poly={} avg={:.3}",
            r.version,
            r.regions,
            r.tuples,
            r.injected.ok,
            r.injected.work,
            r.injected.poly_sites,
            r.injected.avg_points_to,
            r.shortcut.ok,
            r.shortcut.work,
            r.shortcut.poly_sites,
            r.shortcut.avg_points_to,
        );
        // The headline claim, gated baseline file or not: shortcut mode
        // completes every version at the tight budget and dominates the
        // injection-only rows on both precision axes.
        if !r.shortcut.ok {
            eprintln!(
                "FAIL: {} — shortcut mode does not complete at budget {}",
                r.version, m.shortcuts.budget
            );
            failed = true;
        }
        if r.shortcut.poly_sites > r.injected.poly_sites {
            eprintln!(
                "FAIL: {} — shortcut poly sites {} worse than injected {}",
                r.version, r.shortcut.poly_sites, r.injected.poly_sites
            );
            failed = true;
        }
        if r.shortcut.avg_points_to > r.injected.avg_points_to + f64::EPSILON {
            eprintln!(
                "FAIL: {} — shortcut avg points-to {:.3} worse than injected {:.3}",
                r.version, r.shortcut.avg_points_to, r.injected.avg_points_to
            );
            failed = true;
        }
    }
    // Shard-count determinism: every shard count must reproduce the
    // first shard count's work and export digest per version. Gated
    // unconditionally — this is what makes `shards` safe to leave out
    // of cache keys.
    for (ci, case) in sweep_cases.iter().enumerate() {
        for (si, section) in m.shards.iter().enumerate() {
            let r = &section.rows[ci];
            let r0 = &m.shards[0].rows[ci];
            if r.work != r0.work || shard_digests[si][ci] != shard_digests[0][ci] {
                eprintln!(
                    "FAIL: {} — results diverge between {} and {} shards \
                     (work {} vs {}, digest {:#x} vs {:#x})",
                    case.version,
                    m.shards[0].shards,
                    section.shards,
                    r0.work,
                    r.work,
                    shard_digests[0][ci],
                    shard_digests[si][ci],
                );
                failed = true;
            }
        }
    }
    // Determinism contract: every thread count must produce the same
    // work count and the same export digest per version. This holds on
    // any host — it is what makes `threads` safe to leave out of cache
    // keys — so it is gated unconditionally.
    for (ci, case) in cases.iter().enumerate() {
        for (si, section) in m.threads.iter().enumerate() {
            let r = &section.rows[ci];
            let r0 = &m.threads[0].rows[ci];
            if r.work != r0.work || digests[si][ci] != digests[0][ci] {
                eprintln!(
                    "FAIL: {} — results diverge between {} and {} threads \
                     (work {} vs {}, digest {:#x} vs {:#x})",
                    case.version,
                    m.threads[0].threads,
                    section.threads,
                    r0.work,
                    r.work,
                    digests[0][ci],
                    digests[si][ci],
                );
                failed = true;
            }
        }
    }
    // Scaling gate: the epoch-sharded solver must actually buy
    // throughput where hardware parallelism exists. Wall clocks need a
    // release build and enough real CPUs to host the largest thread
    // count, and the ratio is only meaningful on versions with
    // non-trivial baseline work.
    let one = m.threads.iter().find(|s| s.threads == 1);
    let eight = m.threads.iter().find(|s| s.threads == 8);
    if let (Some(one), Some(eight)) = (one, eight) {
        if MODE == "release" && host_cpus >= 8 {
            for (r1, r8) in one.rows.iter().zip(&eight.rows) {
                if r1.work < 100_000 || r1.work_per_sec <= 0.0 {
                    continue;
                }
                let ratio = r8.work_per_sec / r1.work_per_sec;
                eprintln!(
                    "  pta-scale gate {:<6} 8t/1t throughput {ratio:.2}x",
                    r1.version
                );
                if ratio < 1.8 {
                    eprintln!(
                        "FAIL: {} — 8-thread solver only {ratio:.2}x single-thread throughput",
                        r1.version
                    );
                    failed = true;
                }
            }
        } else {
            eprintln!(
                "  pta-scale gate skipped (mode={MODE}, host_cpus={host_cpus}; \
                 needs release and 8+ CPUs)"
            );
        }
    }
    if let Some(p) = check_path {
        let base = std::fs::read_to_string(p).expect("read pta baseline");
        let base: serde_json::Value = serde_json::from_str(&base).expect("pta baseline parses");
        let slack = 1.0 + max_regress;
        // Accept both the {before, after} document (gate against `after`)
        // and the flat legacy {rows} layout.
        let base_rows = if base.get("after").is_some() {
            &base["after"]["rows"]
        } else {
            &base["rows"]
        };
        for r in &m.after.rows {
            let Some(b) = base_rows
                .as_array()
                .and_then(|rs| rs.iter().find(|b| b["version"] == r.version.as_str()))
            else {
                eprintln!("FAIL: baseline has no row for version {}", r.version);
                failed = true;
                continue;
            };
            // Work and precision are deterministic: gate them directly.
            let base_work = b["injected"]["work"].as_f64().unwrap_or(0.0);
            if (r.injected.work as f64) > base_work * slack {
                eprintln!(
                    "FAIL: {} injected work {} regressed past baseline {} (slack {:.0}%)",
                    r.version,
                    r.injected.work,
                    base_work,
                    max_regress * 100.0
                );
                failed = true;
            }
            // Injection must stay within `max_regress` of the specialized
            // run's call-graph precision on the current measurement.
            // (`avg_points_to` is NOT comparable across the two programs —
            // specialization multiplies variable nodes via clone temps,
            // diluting the average — so it is gated same-mode against the
            // baseline file instead.)
            let spec_poly = r.specialized.poly_sites as f64;
            if r.injected.poly_sites as f64 > spec_poly * slack + 1.0 {
                eprintln!(
                    "FAIL: {} injected poly sites {} vs specialized {}",
                    r.version, r.injected.poly_sites, r.specialized.poly_sites
                );
                failed = true;
            }
            let spec_reach = r.specialized.reachable_funcs as f64;
            if r.injected.reachable_funcs as f64 > spec_reach * slack + 1.0 {
                eprintln!(
                    "FAIL: {} injected reachable funcs {} vs specialized {}",
                    r.version, r.injected.reachable_funcs, r.specialized.reachable_funcs
                );
                failed = true;
            }
            let base_avg = b["injected"]["avg_points_to"].as_f64().unwrap_or(0.0);
            if r.injected.avg_points_to > base_avg * slack + f64::EPSILON {
                eprintln!(
                    "FAIL: {} injected avg points-to {:.3} regressed past baseline {:.3}",
                    r.version, r.injected.avg_points_to, base_avg
                );
                failed = true;
            }
        }
        if !failed {
            eprintln!("check: ok");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn measure(label: &str, iters: usize, spec_depth: Option<usize>) -> Measurement {
    let micro_cases: Vec<(&str, String)> = vec![
        ("arith_chain_4k", workload::arithmetic_chain(4000)),
        ("object_graph_1500", workload::object_graph(1500)),
        ("call_tree_fib18", workload::call_tree(18)),
        ("string_workload_800", workload::string_workload(800)),
    ];
    let micro = micro_cases
        .into_iter()
        .map(|(name, src)| {
            let mut h = Harness::from_src(&src).expect("workload parses");
            // Warm-up run (also populates eval-lowered functions, if any).
            h.run(Default::default()).expect_ok();
            let mut best = f64::INFINITY;
            let mut steps = 0;
            for _ in 0..iters.max(1) {
                let t0 = Instant::now();
                let out = h.run(Default::default());
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                out.expect_ok();
                steps = out.steps;
                if dt < best {
                    best = dt;
                }
            }
            MicroResult {
                name: name.to_owned(),
                wall_ms: best,
                steps,
                steps_per_sec: steps as f64 / (best / 1e3),
            }
        })
        .collect();

    // Corpus-level: instrumented analysis over the Table 1 corpus (the
    // headline number) and the eval suite, best-of-iters.
    let table1_analysis = best_of(iters, || {
        let mut steps = 0u64;
        let t0 = Instant::now();
        for v in jquery_like::all_versions() {
            let (_, out) = mujs_bench::pipeline::analyze_page(
                &v.src,
                &v.doc,
                &v.plan,
                AnalysisConfig::default(),
            )
            .expect("table1 version analyzes");
            steps += out.stats.steps;
        }
        (t0.elapsed().as_secs_f64() * 1e3, steps)
    });

    let eval_elim_analysis = best_of(iters, || {
        let mut steps = 0u64;
        let t0 = Instant::now();
        for b in evalbench::all().iter().filter(|b| b.runnable) {
            let mut h = match DetHarness::from_src(&b.src) {
                Ok(h) => h,
                Err(_) => continue,
            };
            let out = determinacy::supervised_analyze_dom(
                &mut h,
                AnalysisConfig::default(),
                b.doc(),
                &b.plan(),
                &RunHooks::supervised(),
            );
            if let Ok(out) = out {
                steps += out.stats.steps;
            }
        }
        (t0.elapsed().as_secs_f64() * 1e3, steps)
    });

    // Full Table 1 (analysis + specializer + PTA), best-of-iters like
    // the analysis-only number, since `--check` gates both.
    let table1_full_wall_ms = best_of(iters, || {
        let t0 = Instant::now();
        for v in jquery_like::all_versions() {
            let _ = mujs_bench::pipeline::run_table1_at_depth(
                &v,
                mujs_bench::pipeline::TABLE1_PTA_BUDGET,
                spec_depth,
            );
        }
        (t0.elapsed().as_secs_f64() * 1e3, 0)
    })
    .wall_ms;

    Measurement {
        label: label.to_owned(),
        mode: MODE,
        micro,
        table1_analysis,
        eval_elim_analysis,
        table1_full_wall_ms,
    }
}

fn best_of(iters: usize, mut f: impl FnMut() -> (f64, u64)) -> CorpusResult {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..iters.max(1) {
        let (wall, s) = f();
        steps = s;
        if wall < best {
            best = wall;
        }
    }
    CorpusResult {
        wall_ms: best,
        steps,
        steps_per_sec: steps as f64 / (best / 1e3),
    }
}

fn report(m: &Measurement) {
    eprintln!("detbench [{}] mode={}", m.label, m.mode);
    for r in &m.micro {
        eprintln!(
            "  micro {:<22} {:>9.2} ms  {:>12.0} steps/s",
            r.name, r.wall_ms, r.steps_per_sec
        );
    }
    eprintln!(
        "  table1 analysis        {:>9.2} ms  {:>12.0} steps/s",
        m.table1_analysis.wall_ms, m.table1_analysis.steps_per_sec
    );
    eprintln!(
        "  eval-elim analysis     {:>9.2} ms  {:>12.0} steps/s",
        m.eval_elim_analysis.wall_ms, m.eval_elim_analysis.steps_per_sec
    );
    eprintln!("  table1 full pipeline   {:>9.2} ms", m.table1_full_wall_ms);
}
