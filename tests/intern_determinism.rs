//! Interning must be invisible in every exported artifact.
//!
//! The symbol-interning / slot-resolution work rewires how the machines
//! represent names, but the fact exports and batch reports are external
//! contracts: their bytes were captured from the pre-interning engine
//! (`tests/golden/`) and must never change. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test intern_determinism` **only** when a
//! change is *supposed* to alter analysis results.
//!
//! The same holds for the concrete shortcut replay: the portable summary
//! artifact (`summaries_exports.txt`) is pinned byte for byte, so a change
//! to the replay interpreter or its tracer cannot move the summaries the
//! service caches.
//!
//! Also re-checks the PR 2 scheduling guarantee end-to-end: `detjobs`
//! batch reports are byte-identical for any worker count (the 1-vs-8
//! pattern from `crates/jobs/tests/scheduler.rs`), now across the full
//! built-in corpus.

use determinacy::multirun::export_json;
use determinacy::{AnalysisConfig, DetHarness, PortableSummaries};
use mujs_jobs::{run_manifest, JobPool, JobSpec, Manifest};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the checked-in golden bytes, or rewrites the
/// golden when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "{name}: exported bytes changed — interning/slot work must not \
         alter analysis output (regenerate goldens only for intentional \
         analysis changes)"
    );
}

/// One sorted JSON fact export per Table 1 corpus version, byte-compared
/// against the pre-interning capture.
#[test]
fn table1_fact_exports_match_pre_interning_bytes() {
    let mut all = String::new();
    for v in mujs_corpus::jquery_like::all_versions() {
        let mut h = DetHarness::from_src(&v.src).expect("corpus parses");
        let out = determinacy::supervised_analyze_dom(
            &mut h,
            AnalysisConfig::default(),
            v.doc.clone(),
            &v.plan,
            &determinacy::RunHooks::supervised(),
        )
        .expect("corpus analyzes");
        let json = export_json(&out.facts, &h.program, &h.source, &out.ctxs);
        let _ = writeln!(all, "=== jquery-like {} ===\n{json}", v.version);
    }
    assert_golden("table1_exports.txt", &all);
}

/// Fact exports over the runnable §5.2 eval suite.
#[test]
fn evalbench_fact_exports_match_pre_interning_bytes() {
    let mut all = String::new();
    for b in mujs_corpus::evalbench::all().iter().filter(|b| b.runnable) {
        let mut h = match DetHarness::from_src(&b.src) {
            Ok(h) => h,
            Err(_) => continue,
        };
        let out = determinacy::supervised_analyze_dom(
            &mut h,
            AnalysisConfig::default(),
            b.doc(),
            &b.plan(),
            &determinacy::RunHooks::supervised(),
        );
        let json = match out {
            Ok(out) => export_json(&out.facts, &h.program, &h.source, &out.ctxs),
            Err(e) => format!("run failed: {e}"),
        };
        let _ = writeln!(all, "=== {} ===\n{json}", b.name);
    }
    assert_golden("evalbench_exports.txt", &all);
}

/// The portable shortcut summaries (`PortableSummaries::to_value`) of
/// every Table 1 corpus version under the DetDOM configuration.
#[test]
fn shortcut_summary_exports_match_golden_bytes() {
    let mut all = String::new();
    for v in mujs_corpus::jquery_like::all_versions() {
        let cfg = AnalysisConfig {
            det_dom: true,
            ..Default::default()
        };
        let mut h = DetHarness::from_src(&v.src).expect("corpus parses");
        let out = determinacy::supervised_analyze_dom(
            &mut h,
            cfg.clone(),
            v.doc.clone(),
            &v.plan,
            &determinacy::RunHooks::supervised(),
        )
        .expect("corpus analyzes");
        let sums = determinacy::shortcut_summaries(
            &v.src,
            &v.doc,
            &v.plan,
            &cfg,
            &out.facts,
            &mut h.program,
        );
        let portable = PortableSummaries::from_summaries(&sums.summaries, &h.program);
        let json = serde_json::to_string(&portable.to_value()).expect("summaries serialize");
        let _ = writeln!(
            all,
            "=== jquery-like {} (candidates {}, degraded {}) ===\n{json}",
            v.version, sums.candidates, sums.degraded
        );
    }
    assert_golden("summaries_exports.txt", &all);
}

fn full_corpus_manifest() -> Manifest {
    let mut jobs = Vec::new();
    for (name, src) in mujs_corpus::jquery_like::named_sources() {
        jobs.push(JobSpec::new(name, src));
    }
    for (name, src) in mujs_corpus::evalbench::named_sources() {
        jobs.push(JobSpec::new(name, src));
    }
    jobs.push(JobSpec {
        seeds: Some(vec![1, 2, 3, 4]),
        ..JobSpec::new(
            "coin-multiseed",
            "var coin = Math.random() < 0.5;\n\
             if (coin) { var a = 11; } else { var b = 22; }",
        )
    });
    Manifest::new(jobs)
}

/// The `detjobs` batch report over the full built-in corpus: identical
/// for 1 and 8 workers, and identical to the pre-interning bytes.
#[test]
fn detjobs_full_corpus_report_is_schedule_and_interning_invariant() {
    let m = full_corpus_manifest();
    let sequential = run_manifest(&m, &JobPool::new(1));
    let parallel = run_manifest(&m, &JobPool::new(8));
    let seq_report = sequential.report_json(true);
    assert_eq!(
        seq_report,
        parallel.report_json(true),
        "batch report must not depend on worker count"
    );
    assert_golden("detjobs_full_corpus_report.json", &seq_report);
}
