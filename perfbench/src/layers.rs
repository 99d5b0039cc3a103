//! The traced run's view of the layers: span-wrapped calls into each
//! layer's public functions, the work counts those calls return, and the
//! per-layer metrics folded from both.
//!
//! Span names are `<layer>.<call>`; the benchmark's own glue (one root
//! span per operation) is `bench.<op>` and belongs to no layer.

use crate::report::{ratio, Report};
use crate::trace::Recorder;
use determinacy::{
    supervised_analyze_dom, AnalysisConfig, AnalysisOutcome, AnalysisStats, DetHarness, RunHooks,
};
use mujs_dom::document::Document;
use mujs_dom::events::EventPlan;
use mujs_ir::Program;
use mujs_pta::{PtaConfig, PtaResult, PtaStatus};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The span recorder plus the work counters of one traced run.
#[derive(Default)]
pub struct Tracer {
    /// Spans.
    pub rec: Recorder,
    work: Mutex<BTreeMap<&'static str, f64>>,
}

/// The PTA solve modes, each with its own span name.
pub const SOLVE_MODES: [&str; 5] = [
    "baseline",
    "injected",
    "shortcut",
    "specialized",
    "provenance",
];

/// The span name of a solve in `mode` (one of [`SOLVE_MODES`]).
pub fn solve_span(mode: &str) -> &'static str {
    match mode {
        "baseline" => "pta.solve.baseline",
        "injected" => "pta.solve.injected",
        "shortcut" => "pta.solve.shortcut",
        "specialized" => "pta.solve.specialized",
        "provenance" => "pta.solve.provenance",
        other => panic!("unknown solve mode {other}"),
    }
}

impl Tracer {
    /// Adds `v` to the work counter `name` (only while recording).
    pub fn add(&self, name: &'static str, v: f64) {
        if !self.rec.recording() {
            return;
        }
        *self
            .work
            .lock()
            .expect("work counters")
            .entry(name)
            .or_default() += v;
    }

    /// The work counter `name` (0 when never added to).
    pub fn work(&self, name: &str) -> f64 {
        self.work
            .lock()
            .expect("work counters")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Parse and lower `src` exactly as `DetHarness::from_src` does (both
    /// on one big-stack thread), with a span around each.
    pub fn harness(&self, item: u64, src: &str) -> Result<DetHarness, String> {
        let parent = self.rec.current();
        let program = mujs_syntax::with_parser_stack(|| -> Result<Program, String> {
            let ast = self
                .rec
                .span_in(parent, "syntax.parse", item, || mujs_syntax::parse(src))
                .map_err(|e| format!("parse failed: {e}"))?;
            Ok(self
                .rec
                .span_in(parent, "ir.lower", item, || mujs_ir::lower_program(&ast)))
        })?;
        self.add("syntax.bytes", src.len() as f64);
        Ok(DetHarness {
            program,
            source: mujs_syntax::SourceFile::new("main.js", src),
        })
    }

    /// One supervised instrumented run.
    pub fn analyze(
        &self,
        item: u64,
        h: &mut DetHarness,
        cfg: AnalysisConfig,
        doc: &Document,
        plan: &EventPlan,
    ) -> Result<AnalysisOutcome, String> {
        let out = self
            .rec
            .span("core.analyze", item, || {
                supervised_analyze_dom(h, cfg, doc.clone(), plan, &RunHooks::supervised())
            })
            .map_err(|e| format!("analysis failed: {e}"))?;
        self.record_run(&out.stats);
        Ok(out)
    }

    /// Counts one instrumented run's statistics.
    pub fn record_run(&self, s: &AnalysisStats) {
        self.add("core.runs", 1.0);
        self.add("core.steps", s.steps as f64);
        self.add("core.counterfactuals", s.counterfactuals as f64);
        self.add("core.cf_aborts", s.cf_aborts as f64);
        self.add("core.heap_flushes", f64::from(s.heap_flushes));
        self.add("core.handlers_fired", s.handlers_fired as f64);
    }

    /// One PTA solve under the span of `mode`.
    pub fn solve(&self, item: u64, mode: &str, prog: &Program, cfg: &PtaConfig) -> PtaResult {
        let span = solve_span(mode);
        let r = self.rec.span(span, item, || mujs_pta::solve(prog, cfg));
        // The propagation count is kept under the solve's span name.
        self.add(span, r.stats.propagations as f64);
        self.add("pta.solves", 1.0);
        self.add("pta.nodes", r.stats.nodes as f64);
        self.add("pta.edges", r.stats.edges as f64);
        self.add("pta.scc_passes", r.stats.scc_passes as f64);
        self.add("pta.nodes_merged", r.stats.nodes_merged as f64);
        if r.status == PtaStatus::BudgetExceeded {
            self.add("pta.exhausted", 1.0);
        }
        r
    }

    /// `PtaResult::precision` under its span.
    pub fn precision(&self, item: u64, r: &PtaResult, prog: &Program) -> mujs_pta::PtaPrecision {
        self.rec.span("pta.precision", item, || r.precision(prog))
    }

    /// `mujs_specialize::specialize` under its span.
    pub fn specialize(
        &self,
        item: u64,
        prog: &Program,
        facts: &determinacy::FactDb,
        ctxs: &mut mujs_interp::context::ContextTable,
        cfg: &mujs_specialize::SpecConfig,
    ) -> mujs_specialize::Specialized {
        let s = self.rec.span("specialize.specialize", item, || {
            mujs_specialize::specialize(prog, facts, ctxs, cfg)
        });
        self.add("specialize.funcs_out", s.program.funcs.len() as f64);
        s
    }

    /// `determinacy::injectable_facts` under its span.
    pub fn inject(
        &self,
        item: u64,
        db: &determinacy::FactDb,
        prog: &mut Program,
    ) -> mujs_pta::InjectedFacts {
        let f = self.rec.span("core.inject", item, || {
            determinacy::injectable_facts(db, prog)
        });
        self.add("core.injected_sites", f.len() as f64);
        f
    }

    /// Counts one shortcut replay's outcome.
    pub fn record_replay(&self, out: &determinacy::ShortcutOutcome) {
        self.add("core.replay_candidates", out.candidates as f64);
        self.add("core.replay_regions", out.summaries.len() as f64);
        if out.degraded {
            self.add("core.replay_degraded", 1.0);
        }
    }

    /// Runs `on` with recording on and `off`, the same composition, with
    /// it off, and adds both wall times to `overhead`. `on_first` says
    /// which runs first; callers alternate it, so that neither side always
    /// finds the caches warm.
    pub fn on_and_off<A, B>(
        &self,
        overhead: &mut Overhead,
        on_first: bool,
        on: impl FnOnce() -> A,
        off: impl FnOnce() -> B,
    ) -> (A, B) {
        let timed_on = || {
            let t0 = Instant::now();
            let out = on();
            (out, t0.elapsed().as_secs_f64() * 1e3)
        };
        let timed_off = || {
            self.rec.set_recording(false);
            let t0 = Instant::now();
            let out = off();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.rec.set_recording(true);
            (out, ms)
        };
        let ((a, on_ms), (b, off_ms)) = if on_first {
            let a = timed_on();
            (a, timed_off())
        } else {
            let b = timed_off();
            (timed_on(), b)
        };
        overhead.on_ms += on_ms;
        overhead.off_ms += off_ms;
        (a, b)
    }

    /// Adds the per-layer metrics every workload reports. `extra` holds
    /// the `serve.*`, `jobs.*` and `trace.*` values the workload measured
    /// itself; metrics of a layer that does not run read 0.
    pub fn put_layer_metrics(&self, rep: &mut Report, extra: &BTreeMap<&'static str, f64>) {
        let st = self.rec.self_times();
        let total = |name: &str| st.get(name).map_or(0.0, |e| e.0);
        let calls = |name: &str| st.get(name).map_or(0, |e| e.1);
        let mean = |name: &str| ratio(total(name), calls(name) as f64);
        let per_s = |count: f64, span: &str| ratio(count, total(span) / 1e3);
        let w = |name: &str| self.work(name);

        rep.put_n(
            "syntax.parse_ms",
            mean("syntax.parse"),
            "ms",
            calls("syntax.parse"),
        );
        rep.put(
            "syntax.bytes_per_s",
            per_s(w("syntax.bytes"), "syntax.parse"),
            "1/s",
        );
        rep.put_n("ir.lower_ms", mean("ir.lower"), "ms", calls("ir.lower"));

        let runs = w("core.runs");
        rep.put_n(
            "core.analyze_ms",
            ratio(total("core.analyze"), runs),
            "ms",
            runs as usize,
        );
        rep.put("core.steps", ratio(w("core.steps"), runs), "count");
        rep.put(
            "core.steps_per_s",
            per_s(w("core.steps"), "core.analyze"),
            "1/s",
        );
        for (name, key) in [
            ("core.counterfactuals", "core.counterfactuals"),
            ("core.cf_aborts", "core.cf_aborts"),
            ("core.heap_flushes", "core.heap_flushes"),
            ("core.handlers_fired", "core.handlers_fired"),
        ] {
            rep.put(name, ratio(w(key), runs), "count");
        }

        let replays = calls("core.replay") as f64;
        rep.put_n(
            "core.replay_ms",
            mean("core.replay"),
            "ms",
            calls("core.replay"),
        );
        rep.put(
            "core.replay_candidates",
            ratio(w("core.replay_candidates"), replays),
            "count",
        );
        rep.put(
            "core.replay_regions",
            ratio(w("core.replay_regions"), replays),
            "count",
        );
        rep.put(
            "core.replay_yield",
            ratio(w("core.replay_regions"), w("core.replay_candidates")),
            "ratio",
        );
        rep.put(
            "core.replay_degraded",
            ratio(w("core.replay_degraded"), replays),
            "ratio",
        );

        rep.put_n(
            "core.inject_ms",
            mean("core.inject"),
            "ms",
            calls("core.inject"),
        );
        rep.put(
            "core.injected_sites",
            ratio(w("core.injected_sites"), calls("core.inject") as f64),
            "count",
        );

        rep.put_n(
            "specialize.ms",
            mean("specialize.specialize"),
            "ms",
            calls("specialize.specialize"),
        );
        rep.put(
            "specialize.funcs_out",
            ratio(
                w("specialize.funcs_out"),
                calls("specialize.specialize") as f64,
            ),
            "count",
        );

        for mode in SOLVE_MODES {
            let span = solve_span(mode);
            let props = w(span);
            rep.put_n(
                format!("pta.solve_ms.{mode}"),
                mean(span),
                "ms",
                calls(span),
            );
            rep.put(
                format!("pta.propagations.{mode}"),
                ratio(props, calls(span) as f64),
                "count",
            );
            rep.put(format!("pta.props_per_s.{mode}"), per_s(props, span), "1/s");
        }
        let solves = w("pta.solves");
        for name in [
            "pta.nodes",
            "pta.edges",
            "pta.scc_passes",
            "pta.nodes_merged",
        ] {
            rep.put(name, ratio(w(name), solves), "count");
        }
        rep.put("pta.exhausted", ratio(w("pta.exhausted"), solves), "ratio");
        rep.put_n(
            "pta.precision_ms",
            mean("pta.precision"),
            "ms",
            calls("pta.precision"),
        );

        rep.put_n(
            "analysis.blame_ms",
            mean("analysis.blame"),
            "ms",
            calls("analysis.blame"),
        );

        // `stage::execute` computes the stage keys itself; the traced run
        // times that computation separately as `serve.keys`, so the
        // execute figure is the rest of the pipeline.
        rep.put_n(
            "serve.proto_ms",
            mean("serve.proto"),
            "ms",
            calls("serve.proto"),
        );
        rep.put_n(
            "serve.keys_ms",
            mean("serve.keys"),
            "ms",
            calls("serve.keys"),
        );
        rep.put_n(
            "serve.execute_ms",
            (mean("serve.execute") - mean("serve.keys")).max(0.0),
            "ms",
            calls("serve.execute"),
        );
        rep.put_n(
            "serve.render_ms",
            mean("serve.render"),
            "ms",
            calls("serve.render"),
        );
        for (name, unit) in SERVE_EXTRA.iter().chain(JOBS_EXTRA).chain(TRACE_EXTRA) {
            rep.put(*name, extra.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The wall time of the traced composition with recording on and with it
/// off, summed over a run.
#[derive(Debug, Default)]
pub struct Overhead {
    on_ms: f64,
    off_ms: f64,
}

impl Overhead {
    /// What recording costs, as a share of the unrecorded time.
    pub fn frac(&self) -> f64 {
        if self.off_ms > 0.0 {
            self.on_ms / self.off_ms - 1.0
        } else {
            0.0
        }
    }
}

/// Per-layer `serve.*` metrics a workload measures itself, with units.
pub const SERVE_EXTRA: &[(&str, &str)] = &[
    ("serve.dispatch_ms", "ms"),
    ("serve.parse_hit_ratio", "ratio"),
    ("serve.facts_hit_ratio", "ratio"),
    ("serve.summary_hit_ratio", "ratio"),
    ("serve.pta_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.recomputed_stages", "count"),
    ("serve.pta_propagations", "count"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.cold_ms_p90", "ms"),
    ("serve.warm_ms_p50", "ms"),
    ("serve.warm_ms_p90", "ms"),
];

/// Per-layer `jobs.*` metrics a workload measures itself, with units.
pub const JOBS_EXTRA: &[(&str, &str)] = &[
    ("jobs.wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.idle_frac", "ratio"),
    ("jobs.attempts", "count"),
    ("jobs.report_ms", "ms"),
];

/// The traced run's own figures: how much of the product path the layer
/// spans cover, and what recording costs: the traced composition's time
/// with recording on over the same composition's time with it off,
/// minus 1.
pub const TRACE_EXTRA: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The sum of the self time of every layer span (everything but the
/// benchmark's own `bench.*` glue), in milliseconds.
pub fn layer_ms(t: &Tracer) -> f64 {
    t.rec
        .self_times()
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, (ms, _))| ms)
        .sum()
}
