//! The `paper` workload: what a reader reproducing the paper runs.
//!
//! Each of the four jQuery-like pages (with its document and event plan)
//! goes through `run_table1`, then `run_pta_compare` at
//! `PTA_COMPARE_BUDGET` (root-cause provenance solve included), then
//! `run_shortcut_compare` at `TABLE1_PTA_BUDGET`; after the pages, the 24
//! runnable §5.2 programs go through `run_eval_elim`. The seed sets only
//! the order of pages and programs. A pass is all 36 of those calls;
//! passes repeat until the run's time is up.
//!
//! For the latency percentiles an operation is one page call or a sweep
//! of [`PROGRAMS_PER_SWEEP`] consecutive programs, 20 per pass. Each
//! program call takes well under a millisecond; counted one by one they
//! would be 24 of 36 samples, the median would sit in their tail, and
//! there it follows the host's page-fault and scheduling jitter (0.55–1.1
//! ms over five seeds) more than the program. Every program is still
//! checked on its own.

use crate::layers::{Overhead, Tracer};
use crate::refs::{check_eval, Refs};
use crate::report::{put_end_to_end, ratio, Pass, Report, SetupTimer};
use crate::Args;
use determinacy::{AnalysisConfig, AnalysisStatus};
use mujs_bench::pipeline::{
    run_shortcut_compare, spec_config, ShortcutCompareRow, PTA_COMPARE_BUDGET, TABLE1_PTA_BUDGET,
};
use mujs_bench::{
    run_eval_elim, run_pta_compare, run_table1, EvalElimRow, PtaCompareRow, PtaModeRow,
    RootCauseCol, Table1Row,
};
use mujs_corpus::evalbench::EvalBenchmark;
use mujs_corpus::jquery_like::JQueryLike;
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaStatus};
use std::collections::BTreeMap;
use std::time::Instant;

/// Programs per latency sample: 24 ÷ 3 = 8 sweeps, so that a 40 s run
/// of 5 or more passes leaves at least ten samples beyond the 90th
/// percentile.
const PROGRAMS_PER_SWEEP: usize = 3;

struct Inputs {
    pages: Vec<JQueryLike>,
    programs: Vec<EvalBenchmark>,
    refs: Refs,
}

fn inputs(seed: u64) -> Inputs {
    let mut pages: Vec<Option<JQueryLike>> = mujs_corpus::jquery_like::all_versions()
        .into_iter()
        .map(Some)
        .collect();
    let mut programs: Vec<Option<EvalBenchmark>> = mujs_corpus::evalbench::all()
        .into_iter()
        .filter(|b| b.runnable)
        .map(Some)
        .collect();
    let (page_order, program_order) = crate::gen::paper_order(seed, pages.len(), programs.len());
    Inputs {
        pages: page_order.iter().filter_map(|&i| pages[i].take()).collect(),
        programs: program_order
            .iter()
            .filter_map(|&i| programs[i].take())
            .collect(),
        refs: Refs::load(),
    }
}

/// One call of a pass.
#[derive(Clone, Copy)]
enum Op<'a> {
    Table1(&'a JQueryLike),
    PtaCompare(&'a JQueryLike),
    Shortcut(&'a JQueryLike),
    EvalElim(&'a EvalBenchmark),
}

impl Op<'_> {
    fn label(&self) -> String {
        match self {
            Op::Table1(v) => format!("run_table1 {}", v.version),
            Op::PtaCompare(v) => format!("run_pta_compare {}", v.version),
            Op::Shortcut(v) => format!("run_shortcut_compare {}", v.version),
            Op::EvalElim(b) => format!("run_eval_elim {}", b.name),
        }
    }

    /// The product path: the bench crate's own entry point, checked
    /// against its reference.
    fn run_product(&self, refs: &Refs) -> Result<(), String> {
        match *self {
            Op::Table1(v) => refs.check_table1(&run_table1(v, TABLE1_PTA_BUDGET).map_err(err)?),
            Op::PtaCompare(v) => {
                refs.check_pta_compare(&run_pta_compare(v, PTA_COMPARE_BUDGET).map_err(err)?)
            }
            Op::Shortcut(v) => {
                refs.check_shortcut(&run_shortcut_compare(v, TABLE1_PTA_BUDGET).map_err(err)?)
            }
            Op::EvalElim(b) => check_eval(b, &run_eval_elim(b)),
        }
    }

    /// The traced composition of the same call sequence from the layers'
    /// public functions, checked against the same reference.
    fn run_traced(&self, t: &Tracer, item: u64, refs: &Refs) -> Result<(), String> {
        match *self {
            Op::Table1(v) => t.rec.span("bench.table1", item, || {
                refs.check_table1(&traced_table1(t, item, v)?)
            }),
            Op::PtaCompare(v) => t.rec.span("bench.pta_compare", item, || {
                refs.check_pta_compare(&traced_pta_compare(t, item, v)?)
            }),
            Op::Shortcut(v) => t.rec.span("bench.shortcut_compare", item, || {
                refs.check_shortcut(&traced_shortcut_compare(t, item, v)?)
            }),
            Op::EvalElim(b) => t.rec.span("bench.eval_elim", item, || {
                check_eval(b, &traced_eval_elim(t, item, b))
            }),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn pass_ops(inp: &Inputs) -> Vec<Op<'_>> {
    let mut ops = Vec::new();
    for v in &inp.pages {
        ops.extend([Op::Table1(v), Op::PtaCompare(v), Op::Shortcut(v)]);
    }
    ops.extend(inp.programs.iter().map(Op::EvalElim));
    ops
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut setup = SetupTimer::new(|| inputs(args.seed));
    let inp = setup.first(crate::SETUP_REPS);
    let ops = pass_ops(&inp);
    let mut rep = Report::default();
    let tracer = args.trace.then(Tracer::default);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut overhead = Overhead::default();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t_pass = Instant::now();
        let mut pass = Pass::default();
        let mut sweep = (0, 0.0);
        for (i, op) in ops.iter().enumerate() {
            let item = (passes.len() * ops.len() + i) as u64;
            let t0 = Instant::now();
            let outcome = op.run_product(&inp.refs);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if !matches!(op, Op::EvalElim(_)) {
                pass.op_ms.push(ms);
            } else if sweep.0 + 1 < PROGRAMS_PER_SWEEP {
                sweep = (sweep.0 + 1, sweep.1 + ms);
            } else {
                pass.op_ms.push(sweep.1 + ms);
                sweep = (0, 0.0);
            }
            rep.check(&op.label(), outcome);
            if let Some(t) = &tracer {
                let traced = || op.run_traced(t, item, &inp.refs);
                let (on, off) = t.on_and_off(&mut overhead, i.is_multiple_of(2), traced, traced);
                rep.check(&format!("traced {}", op.label()), on);
                rep.check(&format!("unrecorded {}", op.label()), off);
            }
        }
        if sweep.0 > 0 {
            pass.op_ms.push(sweep.1);
        }
        pass.wall_s = t_pass.elapsed().as_secs_f64();
        passes.push(pass);
        if tracer.is_none() {
            setup.between_passes();
        }
    }
    match &tracer {
        None => put_end_to_end(&mut rep, setup.median_s(), &passes),
        Some(t) => {
            let product_ms: f64 = passes.iter().flat_map(|p| &p.op_ms).sum();
            let mut extra = BTreeMap::new();
            extra.insert(
                "trace.coverage",
                ratio(crate::layers::layer_ms(t), product_ms),
            );
            extra.insert("trace.overhead_frac", overhead.frac());
            t.put_layer_metrics(&mut rep, &extra);
            crate::write_trace(t, args);
        }
    }
    rep
}

// ------------------------------------------------- traced compositions

fn page_cfg(det_dom: bool) -> AnalysisConfig {
    AnalysisConfig {
        det_dom,
        ..Default::default()
    }
}

fn budget(b: u64) -> PtaConfig {
    PtaConfig {
        budget: b,
        ..Default::default()
    }
}

/// `spec_pipeline`: instrumented run, optional specialization, budgeted
/// solve. Returns (flushes, flush cap hit, PTA completed, PTA work).
fn traced_spec_pipeline(
    t: &Tracer,
    item: u64,
    v: &JQueryLike,
    det_dom: bool,
    spec: bool,
) -> Result<(u32, bool, bool, u64), String> {
    let mut h = t.harness(item, &v.src)?;
    let mut out = t.analyze(item, &mut h, page_cfg(det_dom), &v.doc, &v.plan)?;
    let (prog, mode) = if spec {
        let s = t.specialize(
            item,
            &h.program,
            &out.facts,
            &mut out.ctxs,
            &spec_config(None),
        );
        (s.program, "specialized")
    } else {
        (h.program.clone(), "baseline")
    };
    let r = t.solve(item, mode, &prog, &budget(TABLE1_PTA_BUDGET));
    Ok((
        out.stats.heap_flushes,
        out.status == AnalysisStatus::FlushCapReached,
        r.status == PtaStatus::Completed,
        r.stats.propagations,
    ))
}

fn traced_table1(t: &Tracer, item: u64, v: &JQueryLike) -> Result<Table1Row, String> {
    let (_, _, baseline_ok, baseline_work) = traced_spec_pipeline(t, item, v, false, false)?;
    let (spec_flushes, spec_capped, spec_ok, spec_work) =
        traced_spec_pipeline(t, item, v, false, true)?;
    let (detdom_flushes, detdom_capped, detdom_ok, detdom_work) =
        traced_spec_pipeline(t, item, v, true, true)?;
    Ok(Table1Row {
        version: v.version,
        baseline_ok,
        baseline_work,
        spec_ok,
        spec_work,
        spec_flushes,
        spec_capped,
        detdom_ok,
        detdom_work,
        detdom_flushes,
        detdom_capped,
    })
}

/// A solve plus its precision, as one comparison column.
fn mode_row(t: &Tracer, item: u64, mode: &str, prog: &Program, cfg: &PtaConfig) -> PtaModeRow {
    let t0 = Instant::now();
    let r = t.solve(item, mode, prog, cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let p = t.precision(item, &r, prog);
    PtaModeRow {
        ok: r.status == PtaStatus::Completed,
        work: r.stats.propagations,
        wall_ms,
        work_per_sec: ratio(r.stats.propagations as f64, wall_ms / 1e3),
        call_sites: p.call_sites,
        poly_sites: p.poly_sites,
        avg_points_to: p.avg_points_to,
        reachable_funcs: p.reachable_funcs,
    }
}

fn traced_pta_compare(t: &Tracer, item: u64, v: &JQueryLike) -> Result<PtaCompareRow, String> {
    let mut h = t.harness(item, &v.src)?;
    let mut out = t.analyze(item, &mut h, page_cfg(true), &v.doc, &v.plan)?;
    let mut prog = h.program;
    let facts = t.inject(item, &out.facts, &mut prog);
    let injected_sites = facts.len();
    let baseline = mode_row(t, item, "baseline", &prog, &budget(PTA_COMPARE_BUDGET));
    let inj_cfg = PtaConfig {
        facts: Some(facts),
        ..budget(PTA_COMPARE_BUDGET)
    };
    let injected = mode_row(t, item, "injected", &prog, &inj_cfg);
    let spec = t.specialize(item, &prog, &out.facts, &mut out.ctxs, &spec_config(None));
    let specialized = mode_row(
        t,
        item,
        "specialized",
        &spec.program,
        &budget(PTA_COMPARE_BUDGET),
    );
    let prov_cfg = PtaConfig {
        provenance: true,
        ..budget(PTA_COMPARE_BUDGET)
    };
    let r = t.solve(item, "provenance", &prog, &prov_cfg);
    let report = t.rec.span("analysis.blame", item, || {
        mujs_analysis::blame_report(&prog, &r, 3)
    });
    let root_causes = report
        .map(|rep| {
            rep.causes
                .iter()
                .map(|c| RootCauseCol {
                    label: c.cause.label(),
                    kind: c.cause.kind().to_owned(),
                    tuples: c.tuples,
                    suggestions: c.suggestions.len(),
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(PtaCompareRow {
        version: v.version.to_owned(),
        injected_sites,
        baseline,
        injected,
        specialized,
        root_causes,
    })
}

fn traced_shortcut_compare(
    t: &Tracer,
    item: u64,
    v: &JQueryLike,
) -> Result<ShortcutCompareRow, String> {
    let cfg = page_cfg(true);
    let mut h = t.harness(item, &v.src)?;
    let out = t.analyze(item, &mut h, cfg.clone(), &v.doc, &v.plan)?;
    let mut prog = h.program;
    let facts = t.inject(item, &out.facts, &mut prog);
    let sums = t.rec.span("core.replay", item, || {
        determinacy::shortcut_summaries(&v.src, &v.doc, &v.plan, &cfg, &out.facts, &mut prog)
    });
    t.record_replay(&sums);
    let inj_cfg = PtaConfig {
        facts: Some(facts.clone()),
        ..budget(TABLE1_PTA_BUDGET)
    };
    let injected = mode_row(t, item, "injected", &prog, &inj_cfg);
    let sc_cfg = PtaConfig {
        facts: Some(facts),
        shortcuts: Some(std::sync::Arc::new(sums.summaries.clone())),
        ..budget(TABLE1_PTA_BUDGET)
    };
    let shortcut = mode_row(t, item, "shortcut", &prog, &sc_cfg);
    Ok(ShortcutCompareRow {
        version: v.version.to_owned(),
        candidates: sums.candidates,
        regions: sums.summaries.len(),
        tuples: sums.summaries.tuple_count(),
        degraded: sums.degraded,
        injected,
        shortcut,
    })
}

/// `eliminate`: analyze, specialize, and count the eval sites that were
/// not specialized away in every rewrite visit.
fn traced_eliminate(t: &Tracer, item: u64, b: &EvalBenchmark, det_dom: bool) -> bool {
    let Ok(mut h) = t.harness(item, &b.src) else {
        return false;
    };
    let Ok(mut out) = t.analyze(item, &mut h, page_cfg(det_dom), &b.doc(), &b.plan()) else {
        return false;
    };
    let spec = t.specialize(
        item,
        &h.program,
        &out.facts,
        &mut out.ctxs,
        &mujs_specialize::SpecConfig::default(),
    );
    use mujs_specialize::EvalStatus;
    let mut per_site: std::collections::HashMap<mujs_ir::StmtId, bool> = Default::default();
    for (site, st) in &spec.report.eval_events {
        let ok = matches!(st, EvalStatus::Eliminated | EvalStatus::DeadCode);
        per_site
            .entry(*site)
            .and_modify(|v| *v = *v && ok)
            .or_insert(ok);
    }
    let mut failures = 0usize;
    for f in &h.program.funcs {
        Program::walk_block(&f.body, &mut |s| {
            if matches!(s.kind, mujs_ir::StmtKind::Eval { .. })
                && !matches!(per_site.get(&s.id), Some(true))
            {
                failures += 1;
            }
        });
    }
    failures == 0
}

fn traced_eval_elim(t: &Tracer, item: u64, b: &EvalBenchmark) -> EvalElimRow {
    EvalElimRow {
        name: b.name,
        plain_ok: traced_eliminate(t, item, b, false),
        detdom_ok: traced_eliminate(t, item, b, true),
        plain_remaining: 0,
    }
}
