//! The `serve` workload: an in-process detserved driven as a closed loop.
//!
//! `Server::serve` runs on a loopback listener in this process; one client
//! on one connection sends the seeded request stream (`gen::ServeStream`)
//! and waits for each request's terminal frame before sending the next,
//! as an editor or CI bot does. Every request carries a `deadline_ms` and
//! the server runs with its watchdog, so a wedged request comes back as an
//! `error` frame (a failed operation) instead of hanging the run. A pass
//! is a block of [`BLOCK`] consecutive requests.
//!
//! A request is *warm* when its result frame says every stage it asked
//! for came from the cache. Every response must be a `result` frame, and
//! every response to a request seen before must carry a report
//! byte-identical to the first one.

use crate::gen::{Mode, ServeReq, ServeStream};
use crate::layers::{Overhead, Tracer};
use crate::report::{median, put_end_to_end, quantile, ratio, Pass, Report, SetupTimer};
use crate::Args;
use determinacy::{AnalysisConfig, CancelToken};
use mujs_dom::document::DocumentBuilder;
use mujs_dom::events::EventPlan;
use mujs_pta::PtaConfig;
use mujs_serve::proto::{self, Request};
use mujs_serve::stage::{self, CachedFlags, StageKeys, StageRequest};
use mujs_serve::{CacheConfig, PipelineCounters, ServeOptions, Server, StageCache};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per pass.
const BLOCK: usize = 100;

/// Watchdog grace past a request's deadline before it is wedged.
const WATCHDOG_GRACE_MS: u64 = 10_000;

/// A read that waits longer than this fails the run (the watchdog fires
/// well before it).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The document title the service analyzes every source against.
const SERVICE_DOC_TITLE: &str = "detserved";

fn serve_options() -> ServeOptions {
    ServeOptions {
        cache: CacheConfig::default(),
        watchdog_grace_ms: Some(WATCHDOG_GRACE_MS),
        pta_threads: 1,
        ..Default::default()
    }
}

/// One terminal reply and the times its frames arrived (ms after send).
struct Reply {
    rtt_ms: f64,
    started_ms: Option<f64>,
    finished_ms: Option<f64>,
    terminal: String,
}

/// The client side of one connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line and reads frames up to its terminal one.
    fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut started_ms = None;
        let mut finished_ms = None;
        loop {
            let mut frame = String::new();
            if self.reader.read_line(&mut frame)? == 0 {
                return Err(std::io::Error::other("server closed the connection"));
            }
            let at = t0.elapsed().as_secs_f64() * 1e3;
            let frame = frame.trim_end().to_owned();
            if frame.starts_with(r#"{"ev":"started""#) {
                started_ms.get_or_insert(at);
            } else if frame.starts_with(r#"{"ev":"finished""#) {
                finished_ms = Some(at);
            } else if !frame.starts_with(r#"{"ev":"progress""#) {
                return Ok(Reply {
                    rtt_ms: at,
                    started_ms,
                    finished_ms,
                    terminal: frame,
                });
            }
        }
    }
}

/// A running in-process server and the client's connection to it.
struct Session {
    stream: ServeStream,
    conn: Conn,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Session {
    fn start(seed: u64) -> std::io::Result<Session> {
        let stream = ServeStream::new(seed);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let srv = Arc::new(Server::new(serve_options()));
        let server = std::thread::spawn(move || srv.serve(listener));
        let mut conn = Conn::open(addr)?;
        let pong = conn.request(r#"{"op":"ping","id":"setup"}"#)?;
        if !pong.terminal.starts_with(r#"{"ev":"pong""#) {
            return Err(std::io::Error::other(format!("no pong: {}", pong.terminal)));
        }
        Ok(Session {
            stream,
            conn,
            server: Some(server),
        })
    }

    /// Stops the server and waits for its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let bye = self
            .conn
            .request(r#"{"op":"shutdown","id":"end"}"#)
            .map_err(|e| e.to_string())?;
        if !bye.terminal.starts_with(r#"{"ev":"bye""#) {
            return Err(format!("no bye: {}", bye.terminal));
        }
        match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The parts of a result frame the checks need.
struct Parsed<'a> {
    cached: CachedFlags,
    report: &'a str,
}

fn parse_result(frame: &str) -> Result<Parsed<'_>, String> {
    if !frame.starts_with(r#"{"ev":"result""#) {
        return Err(format!("not a result frame: {}", truncate(frame)));
    }
    const CACHED: &str = r#","cached":"#;
    const REPORT: &str = r#","report":"#;
    let c0 = frame.find(CACHED).ok_or("no cached flags")? + CACHED.len();
    let r0 = frame.find(REPORT).ok_or("no report")?;
    let flags: Value =
        serde_json::from_str(&frame[c0..r0]).map_err(|e| format!("cached flags: {e:?}"))?;
    let flag = |k: &str| flags.get(k).and_then(Value::as_bool);
    Ok(Parsed {
        cached: CachedFlags {
            parse: flag("parse").unwrap_or(false),
            facts: flag("facts").unwrap_or(false),
            summary: flag("summary"),
            pta: flag("pta"),
        },
        report: &frame[r0 + REPORT.len()..frame.len() - 1],
    })
}

fn is_warm(c: &CachedFlags) -> bool {
    c.parse && c.facts && c.summary.unwrap_or(true) && c.pta.unwrap_or(true)
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// What the untraced and traced runs both measure per request.
#[derive(Default)]
struct Measured {
    rtt: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
    passes: Vec<Pass>,
    wait: Vec<f64>,
    run: Vec<f64>,
    /// First report per distinct request.
    reports: HashMap<u64, String>,
}

impl Measured {
    /// Records one reply and checks it; returns its cached flags.
    fn record(&mut self, req: &ServeReq, reply: &Reply) -> Result<CachedFlags, String> {
        self.rtt.push(reply.rtt_ms);
        if let (Some(s), Some(f)) = (reply.started_ms, reply.finished_ms) {
            self.wait.push(s);
            self.run.push(f - s);
        }
        let parsed = parse_result(&reply.terminal)?;
        if is_warm(&parsed.cached) {
            self.warm.push(reply.rtt_ms);
        } else {
            self.cold.push(reply.rtt_ms);
        }
        match self.reports.get(&req.ident) {
            Some(first) if first != parsed.report => {
                Err("report differs from the first response to the same request".to_owned())
            }
            Some(_) => Ok(parsed.cached),
            None => {
                self.reports.insert(req.ident, parsed.report.to_owned());
                Ok(parsed.cached)
            }
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let mut setup = SetupTimer::new(|| Session::start(args.seed));
    let mut session = match setup.first(crate::SETUP_REPS) {
        Ok(s) => s,
        Err(e) => {
            rep.check("server set-up", Err(e.to_string()));
            return rep;
        }
    };
    let tracer = args.trace.then(Tracer::default);
    let mut mirror = tracer.as_ref().map(|_| Mirror::default());
    let mut m = Measured::default();
    let start = Instant::now();
    let mut block_start = Instant::now();
    let mut block = Pass::default();
    while m.passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let req = session.stream.next_req();
        let reply = match session.conn.request(&req.line) {
            Ok(r) => r,
            Err(e) => {
                rep.check(&format!("request {}", req.id), Err(e.to_string()));
                break;
            }
        };
        let flags = m.record(&req, &reply);
        rep.check(
            &format!("request {}", req.id),
            flags.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        block.op_ms.push(reply.rtt_ms);
        if block.op_ms.len() == BLOCK {
            block.wall_s = block_start.elapsed().as_secs_f64();
            m.passes.push(std::mem::take(&mut block));
            if tracer.is_none() {
                setup.between_passes();
            }
            block_start = Instant::now();
        }
        if let (Some(t), Some(mirror), Ok(flags)) = (&tracer, &mut mirror, flags) {
            let outcome = mirror.request(t, &mut session, &req, &reply, &flags);
            rep.check(&format!("traced request {}", req.id), outcome);
        }
    }
    // The measured mix, from the server's own counters (after the
    // measured requests, so it costs them nothing).
    let evictions = session
        .conn
        .request(r#"{"op":"stats","id":"end"}"#)
        .map_err(|e| e.to_string())
        .and_then(|r| flatten_stats(&r.terminal))
        .map(|s| s.get("cache.evictions").copied().unwrap_or(0.0));
    rep.check(
        "server stats",
        evictions.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    rep.check("server shutdown", session.stop());
    match (&tracer, mirror) {
        (Some(t), Some(mirror)) => {
            let extra = mirror.extra(&m);
            t.put_layer_metrics(&mut rep, &extra);
            crate::write_trace(t, args);
        }
        _ => {
            put_end_to_end(&mut rep, setup.median_s(), &m.passes);
            let requests = m.rtt.len() as f64;
            rep.notes.push(format!(
                "serve: {} cold requests (p50 {:.3} ms, p90 {:.3} ms), {} warm (p50 {:.3} ms, p90 {:.3} ms)",
                m.cold.len(),
                median(&m.cold),
                quantile(&m.cold, 0.9),
                m.warm.len(),
                median(&m.warm),
                quantile(&m.warm, 0.9)
            ));
            rep.notes.push(format!(
                "serve mix: cold share {:.4} (16% by construction: 6 edits + 10 switches per 100), \
                 evictions per request {:.4} (n={requests})",
                ratio(m.cold.len() as f64, requests),
                ratio(evictions.unwrap_or(0.0), requests)
            ));
        }
    }
    rep
}

// ------------------------------------------------------------ traced run

/// The traced run's mirror of the server: the same calls
/// `handle_analyze` makes (`parse_request`, `stage::execute` with its key
/// computation, `result_line`), recorded and unrecorded, each against its
/// own cache of the same size that sees the same request sequence, plus a
/// decomposition of every stage that missed into the layer calls the
/// stage makes.
struct Mirror {
    cache: StageCache,
    counters: PipelineCounters,
    /// The unrecorded composition's cache and counters.
    plain: StageCache,
    plain_counters: PipelineCounters,
    stats: BTreeMap<String, f64>,
    /// Per-request stats deltas, summed.
    deltas: BTreeMap<String, f64>,
    /// Per request: round trip minus the product-path spans.
    dispatch: Vec<f64>,
    covered_ms: f64,
    rtt_ms: f64,
    overhead: Overhead,
}

impl Default for Mirror {
    fn default() -> Self {
        Mirror {
            cache: StageCache::new(CacheConfig::default()),
            counters: PipelineCounters::default(),
            plain: StageCache::new(CacheConfig::default()),
            plain_counters: PipelineCounters::default(),
            stats: BTreeMap::new(),
            deltas: BTreeMap::new(),
            dispatch: Vec::new(),
            covered_ms: 0.0,
            rtt_ms: 0.0,
            overhead: Overhead::default(),
        }
    }
}

/// The counters of a `stats` frame, flattened to `section.name`.
fn flatten_stats(frame: &str) -> Result<BTreeMap<String, f64>, String> {
    let v: Value = serde_json::from_str(frame).map_err(|e| format!("stats frame: {e:?}"))?;
    let mut out = BTreeMap::new();
    for section in ["cache", "pipeline"] {
        let fields = v
            .get("stats")
            .and_then(|s| s.get(section))
            .and_then(Value::as_object)
            .ok_or("stats frame lacks counters")?;
        for (k, n) in fields {
            out.insert(format!("{section}.{k}"), n.as_f64().unwrap_or(0.0));
        }
    }
    Ok(out)
}

/// The calls `handle_analyze` makes for one request line: parse it, build
/// the stage request, compute its keys, run the stages against `cache`
/// and render the result frame. Returns the frame, its cached flags and
/// the time inside those calls in milliseconds.
fn compose(
    t: &Tracer,
    item: u64,
    line: &str,
    cache: &StageCache,
    counters: &PipelineCounters,
) -> Result<(String, CachedFlags, f64), String> {
    t.rec.span("bench.request", item, || {
        let p0 = Instant::now();
        let parsed = t
            .rec
            .span("serve.proto", item, || proto::parse_request(line));
        let proto_ms = p0.elapsed().as_secs_f64() * 1e3;
        let Ok(Request::Analyze(a)) = parsed else {
            return Err("request does not parse as analyze".to_owned());
        };
        let sreq = StageRequest {
            src: a.src.clone(),
            cfg: a.effective_config(),
            seeds: a.effective_seeds(),
            pta_budget: a.pta_budget,
            inject: a.inject,
            spec_depth: a.spec_depth,
            shortcuts: a.shortcuts,
            pta_threads: 1,
            pta_shards: 0,
        };
        t.rec.span("serve.keys", item, || StageKeys::compute(&sreq));
        let e0 = Instant::now();
        let ex = t.rec.span("serve.execute", item, || {
            stage::execute(
                &sreq,
                "completed",
                a.include_facts,
                &a.name,
                cache,
                counters,
                &CancelToken::new(),
                &|_| {},
            )
        });
        let execute_ms = e0.elapsed().as_secs_f64() * 1e3;
        let r0 = Instant::now();
        let line = t.rec.span("serve.render", item, || {
            proto::result_line(&a.id, &ex.cached, &ex.report)
        });
        let render_ms = r0.elapsed().as_secs_f64() * 1e3;
        Ok((line, ex.cached, proto_ms + execute_ms + render_ms))
    })
}

impl Mirror {
    fn request(
        &mut self,
        t: &Tracer,
        session: &mut Session,
        req: &ServeReq,
        reply: &Reply,
        server_flags: &CachedFlags,
    ) -> Result<(), String> {
        // The request class from the server's own counters.
        let stats = session
            .conn
            .request(r#"{"op":"stats","id":"trace"}"#)
            .map_err(|e| e.to_string())?;
        let now = flatten_stats(&stats.terminal)?;
        let prev = std::mem::take(&mut self.stats);
        let delta =
            |k: &str| now.get(k).copied().unwrap_or(0.0) - prev.get(k).copied().unwrap_or(0.0);
        let recomputed: f64 = ["parse", "facts", "summary", "pta"]
            .iter()
            .map(|s| delta(&format!("cache.{s}_misses")))
            .sum();
        let pipeline_work: f64 = ["parses", "analyses", "summary_replays", "pta_solves"]
            .iter()
            .map(|k| delta(&format!("pipeline.{k}")))
            .sum();
        for k in now.keys() {
            *self.deltas.entry(k.clone()).or_default() += delta(k);
        }
        self.stats = now;
        if is_warm(server_flags) != (recomputed == 0.0 && pipeline_work == 0.0) {
            return Err(format!(
                "cached flags and stats counters disagree ({recomputed} misses, {pipeline_work} recomputations)"
            ));
        }

        // The composition runs twice, on two mirror caches that see the
        // same requests: once recorded and once not, alternating which
        // goes first, so that the difference is what recording costs.
        let item = req.id;
        let on = || compose(t, item, &req.line, &self.cache, &self.counters);
        let off = || compose(t, item, &req.line, &self.plain, &self.plain_counters);
        let (on, off) = t.on_and_off(&mut self.overhead, item.is_multiple_of(2), on, off);
        let (line, flags, spans_ms) = on?;
        let (plain_line, _, _) = off?;
        self.covered_ms += spans_ms;
        self.rtt_ms += reply.rtt_ms;
        self.dispatch.push(reply.rtt_ms - spans_ms);

        let served = parse_result(&reply.terminal)?;
        for (side, line) in [("traced", &line), ("unrecorded", &plain_line)] {
            let mirrored = parse_result(line)?;
            if mirrored.report != served.report {
                return Err(format!("{side} report differs from the served one"));
            }
            if is_warm(&mirrored.cached) != is_warm(&served.cached) {
                return Err(format!(
                    "{side} cache disposition differs from the server's"
                ));
            }
        }
        t.rec.span("bench.decompose", item, || {
            self.decompose(t, req, session, &flags)
        })
    }

    /// Runs the layer calls behind every stage that missed, as the stage
    /// code makes them: a parse whenever any stage recomputes, the seed
    /// fan-out and fact distillation, the concrete replay, and the
    /// specialization and solve.
    fn decompose(
        &self,
        t: &Tracer,
        req: &ServeReq,
        session: &Session,
        flags: &CachedFlags,
    ) -> Result<(), String> {
        if is_warm(flags) {
            return Ok(());
        }
        let item = req.id;
        let src = session.stream.source(req.doc);
        let mut h = t.harness(item, &src)?;
        let doc = DocumentBuilder::new().title(SERVICE_DOC_TITLE).build();
        let plan = EventPlan::new();
        let cfg = AnalysisConfig {
            deadline_ms: Some(crate::gen::SERVE_DEADLINE_MS),
            ..AnalysisConfig::default()
        };
        let summary_cold = flags.summary == Some(false);
        let pta_cold = flags.pta == Some(false);
        let spec = matches!(req.mode, Mode::SpecDepth(_));
        // The stage code runs the seed fan-out when the facts miss, and
        // again for a summary or a specialization whose facts came from the
        // cache. A solve that consumes cached facts or summaries rehydrates
        // them from the artifacts instead; the decomposition recomputes
        // those inputs under a `bench.rehydrate` span, outside every layer.
        let traced_fan_out = !flags.facts || summary_cold || (pta_cold && spec);
        let rehydrate = pta_cold && matches!(req.mode, Mode::Inject | Mode::Shortcuts);
        let fan_out = |h: &mut determinacy::DetHarness| {
            determinacy::multirun::analyze_many_with(h, &[cfg.seed], cfg.clone(), Some(&doc), &plan)
        };
        let multi = if traced_fan_out {
            let m = t.rec.span("core.analyze", item, || fan_out(&mut h));
            for run in &m.runs {
                t.record_run(&run.stats);
            }
            Some(m)
        } else if rehydrate {
            Some(t.rec.span("bench.rehydrate", item, || fan_out(&mut h)))
        } else {
            None
        };
        let mut facts = None;
        if let Some(m) = &multi {
            if !flags.facts {
                facts = Some(t.inject(item, &m.facts, &mut h.program));
            } else if rehydrate && req.mode == Mode::Inject {
                facts = Some(t.rec.span("bench.rehydrate", item, || {
                    determinacy::injectable_facts(&m.facts, &mut h.program)
                }));
            }
        }
        let mut shortcuts = None;
        if let (Some(m), Mode::Shortcuts) = (&multi, req.mode) {
            let replay = |prog: &mut mujs_ir::Program| {
                determinacy::shortcut_summaries(&src, &doc, &plan, &cfg, &m.facts, prog)
            };
            let out = if summary_cold {
                let out = t.rec.span("core.replay", item, || replay(&mut h.program));
                t.record_replay(&out);
                out
            } else {
                t.rec
                    .span("bench.rehydrate", item, || replay(&mut h.program))
            };
            shortcuts = Some(Arc::new(out.summaries));
        }
        if !pta_cold {
            return Ok(());
        }
        let pcfg = PtaConfig {
            budget: req.budget,
            threads: 1,
            ..Default::default()
        };
        let (prog, pcfg, mode) = match (req.mode, multi) {
            (Mode::SpecDepth(depth), Some(mut m)) => {
                let spec_cfg = mujs_specialize::SpecConfig {
                    max_context_depth: depth,
                    ..Default::default()
                };
                let s = t.specialize(item, &h.program, &m.facts, &mut m.ctxs, &spec_cfg);
                (s.program, pcfg, "specialized")
            }
            (Mode::Inject, _) => (h.program, PtaConfig { facts, ..pcfg }, "injected"),
            (Mode::Shortcuts, _) => (h.program, PtaConfig { shortcuts, ..pcfg }, "shortcut"),
            _ => (h.program, pcfg, "baseline"),
        };
        let r = t.solve(item, mode, &prog, &pcfg);
        t.precision(item, &r, &prog);
        Ok(())
    }

    fn extra(&self, m: &Measured) -> BTreeMap<&'static str, f64> {
        let d = |k: &str| self.deltas.get(k).copied().unwrap_or(0.0);
        let requests = m.rtt.len() as f64;
        let hit_ratio = |stage: &str| {
            let hits = d(&format!("cache.{stage}_hits"));
            ratio(hits, hits + d(&format!("cache.{stage}_misses")))
        };
        let mut extra = BTreeMap::new();
        extra.insert(
            "serve.dispatch_ms",
            ratio(self.dispatch.iter().sum(), self.dispatch.len() as f64),
        );
        extra.insert("serve.parse_hit_ratio", hit_ratio("parse"));
        extra.insert("serve.facts_hit_ratio", hit_ratio("facts"));
        extra.insert("serve.summary_hit_ratio", hit_ratio("summary"));
        extra.insert("serve.pta_hit_ratio", hit_ratio("pta"));
        extra.insert("serve.evictions", ratio(d("cache.evictions"), requests));
        let misses: f64 = ["parse", "facts", "summary", "pta"]
            .iter()
            .map(|s| d(&format!("cache.{s}_misses")))
            .sum();
        extra.insert("serve.recomputed_stages", ratio(misses, requests));
        extra.insert(
            "serve.pta_propagations",
            ratio(d("pipeline.pta_propagations"), requests),
        );
        extra.insert("serve.cold_ms_p50", median(&m.cold));
        extra.insert("serve.cold_ms_p90", quantile(&m.cold, 0.9));
        extra.insert("serve.warm_ms_p50", median(&m.warm));
        extra.insert("serve.warm_ms_p90", quantile(&m.warm, 0.9));
        extra.insert(
            "jobs.wait_ms",
            ratio(m.wait.iter().sum(), m.wait.len() as f64),
        );
        extra.insert("jobs.run_ms", ratio(m.run.iter().sum(), m.run.len() as f64));
        extra.insert("trace.coverage", ratio(self.covered_ms, self.rtt_ms));
        extra.insert("trace.overhead_frac", self.overhead.frac());
        extra
    }
}
