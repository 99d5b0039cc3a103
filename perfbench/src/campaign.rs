//! The `campaign` workload: many small inputs through the batch
//! scheduler.
//!
//! Each batch is a seeded manifest of generated programs of varied size
//! plus eval-suite and jQuery-like sources; every job fans out over four
//! seeds with the 150k PTA stage, through `mujs_jobs::run_manifest_with`
//! on a 2-worker `JobPool`. A pass is one batch including its report;
//! batches repeat until the run's time is up. Every job must complete.

use crate::gen::{campaign_manifest, CampaignCorpus};
use crate::layers::{Overhead, Tracer};
use crate::report::{median, put_end_to_end, ratio, Pass, Report, SetupTimer};
use crate::Args;
use determinacy::AnalysisConfig;
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_jobs::{run_manifest_with, BatchOptions, JobEvent, JobPool, JobStatus, Manifest};
use mujs_pta::PtaConfig;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

/// Pool workers (the host's CPU count in the reference setup).
const WORKERS: usize = 2;

/// The PTA stage budget of every job.
const PTA_BUDGET: u64 = 150_000;

/// Watchdog grace past a job's deadline before it counts as wedged.
const WATCHDOG_GRACE_MS: u64 = 10_000;

/// What one batch measured.
struct Batch {
    /// Batch wall time and each job's run time, `Started` to `Finished`.
    pass: Pass,
    /// Each job's wait from the batch start to `Started`, in ms.
    wait_ms: Vec<f64>,
    report_ms: f64,
    attempts: Vec<u32>,
}

fn run_batch(m: &Manifest, rep: &mut Report) -> Batch {
    let (tx, rx) = mpsc::channel();
    let pool = JobPool::new(WORKERS).with_events(tx);
    let opts = BatchOptions {
        pta_budget: Some(PTA_BUDGET),
        pta_threads: 1,
        watchdog_grace_ms: Some(WATCHDOG_GRACE_MS),
        ..Default::default()
    };
    let t0 = Instant::now();
    let (outcome, events, report_ms, wall_s) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|ev| (t0.elapsed().as_secs_f64() * 1e3, ev))
                .collect::<Vec<_>>()
        });
        let outcome = run_manifest_with(m, &pool, &opts);
        let t_report = Instant::now();
        let report = outcome.report_json(false);
        let report_ms = t_report.elapsed().as_secs_f64() * 1e3;
        let wall_s = t0.elapsed().as_secs_f64();
        std::hint::black_box(report);
        drop(pool);
        (
            outcome,
            collector.join().expect("event collector"),
            report_ms,
            wall_s,
        )
    });
    let mut started = vec![None; m.jobs.len()];
    let mut finished = vec![None; m.jobs.len()];
    for (at, ev) in &events {
        match ev {
            JobEvent::Started { job, .. } => started[*job] = Some(*at),
            JobEvent::Finished { job, .. } => finished[*job] = Some(*at),
            _ => {}
        }
    }
    let mut pass = Pass {
        wall_s,
        op_ms: Vec::new(),
    };
    let mut wait_ms = Vec::new();
    for (i, rec) in outcome.jobs.iter().enumerate() {
        let verdict = match (&rec.status, &rec.outcome) {
            (JobStatus::Completed, Some(o)) if o.multi.failures.is_empty() && o.pta.is_some() => {
                match (started[i], finished[i]) {
                    (Some(s), Some(f)) => {
                        wait_ms.push(s);
                        pass.op_ms.push(f - s);
                        Ok(())
                    }
                    _ => Err("no Started/Finished events".to_owned()),
                }
            }
            (JobStatus::Completed, Some(o)) => Err(format!("run failures: {:?}", o.multi.failures)),
            (status, _) => Err(format!("did not complete: {status:?}")),
        };
        rep.check(&format!("job {}", rec.name), verdict);
    }
    Batch {
        pass,
        wait_ms,
        report_ms,
        attempts: outcome.jobs.iter().map(|r| r.attempts).collect(),
    }
}

/// The traced composition of one job: parse and lower on a big-stack
/// thread, the seed fan-out, the combine, the budgeted solve.
fn traced_job(t: &Tracer, item: u64, spec: &mujs_jobs::JobSpec) -> Result<(), String> {
    t.rec.span("bench.job", item, || {
        let mut h = t.harness(item, &spec.src)?;
        let base = spec.effective_config();
        let doc = DocumentBuilder::new().title(&spec.name).build();
        let plan = EventPlan::new();
        let runs: Vec<_> = spec
            .effective_seeds()
            .into_iter()
            .map(|seed| {
                let cfg = AnalysisConfig {
                    seed,
                    ..base.clone()
                };
                t.rec.span("core.analyze", item, || {
                    determinacy::supervised_analyze_dom(
                        &mut h,
                        cfg,
                        doc.clone(),
                        &plan,
                        &determinacy::RunHooks::supervised(),
                    )
                })
            })
            .collect();
        for s in runs.iter().flatten() {
            t.record_run(&s.stats);
        }
        let multi = determinacy::multirun::MultiRunOutcome::combine(runs, base.max_facts);
        let cfg = PtaConfig {
            budget: PTA_BUDGET,
            threads: 1,
            ..Default::default()
        };
        let r = t.solve(item, "baseline", &h.program, &cfg);
        t.precision(item, &r, &h.program);
        if multi.failures.is_empty() {
            Ok(())
        } else {
            Err(format!("run failures: {:?}", multi.failures))
        }
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut setup = SetupTimer::new(|| {
        let corpus = CampaignCorpus::load();
        std::hint::black_box(campaign_manifest(args.seed, 0, &corpus));
        corpus
    });
    let corpus = setup.first(crate::SETUP_REPS);
    let mut rep = Report::default();
    let tracer = args.trace.then(Tracer::default);
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut overhead = Overhead::default();
    while batches.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let m = campaign_manifest(args.seed, batches.len() as u64, &corpus);
        batches.push(run_batch(&m, &mut rep));
        let Some(t) = &tracer else {
            setup.between_passes();
            continue;
        };
        let base = (batches.len() as u64) << 20;
        let traced = || {
            let jobs: Vec<(String, _)> = m
                .jobs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let job = move |_: &mujs_jobs::JobCtx| traced_job(t, base + i as u64, spec);
                    (spec.name.clone(), job)
                })
                .collect();
            JobPool::new(WORKERS).run(jobs)
        };
        let (on, off) = t.on_and_off(
            &mut overhead,
            batches.len().is_multiple_of(2),
            traced,
            traced,
        );
        for (side, verdicts) in [("traced", on), ("unrecorded", off)] {
            for (spec, v) in m.jobs.iter().zip(verdicts) {
                let outcome = match v.into_done() {
                    Some(r) => r,
                    None => Err(format!("{side} job did not complete")),
                };
                rep.check(&format!("{side} job {}", spec.name), outcome);
            }
        }
    }
    match &tracer {
        None => {
            let passes: Vec<Pass> = batches.into_iter().map(|b| b.pass).collect();
            put_end_to_end(&mut rep, setup.median_s(), &passes);
        }
        Some(t) => {
            let jobs: f64 = batches.iter().map(|b| b.pass.op_ms.len() as f64).sum();
            let run_total: f64 = batches.iter().flat_map(|b| &b.pass.op_ms).sum();
            let wait_total: f64 = batches.iter().flat_map(|b| &b.wait_ms).sum();
            let wall: f64 = batches.iter().map(|b| b.pass.wall_s).sum();
            let attempts: Vec<f64> = batches
                .iter()
                .flat_map(|b| b.attempts.iter().map(|&a| f64::from(a)))
                .collect();
            let report_ms: Vec<f64> = batches.iter().map(|b| b.report_ms).collect();
            let product_ms = wall * 1e3;
            let mut extra = BTreeMap::new();
            extra.insert("jobs.wait_ms", ratio(wait_total, jobs));
            extra.insert("jobs.run_ms", ratio(run_total, jobs));
            extra.insert(
                "jobs.idle_frac",
                1.0 - ratio(run_total, WORKERS as f64 * product_ms),
            );
            extra.insert(
                "jobs.attempts",
                ratio(attempts.iter().sum(), attempts.len() as f64),
            );
            extra.insert("jobs.report_ms", median(&report_ms));
            // Job spans run on two workers, like the product's jobs, so
            // coverage compares them with the product's busy job time.
            extra.insert(
                "trace.coverage",
                ratio(crate::layers::layer_ms(t), run_total),
            );
            extra.insert("trace.overhead_frac", overhead.frac());
            t.put_layer_metrics(&mut rep, &extra);
            crate::write_trace(t, args);
        }
    }
    rep
}
