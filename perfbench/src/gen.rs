//! Seeded input generation. Every input the program under test sees is
//! made here from the workload seed: the order of the paper's pages and
//! programs, the `serve` request stream and the `campaign` manifests. The
//! same seed gives byte-identical inputs.

use mujs_gen::GenConfig;
use mujs_jobs::{JobSpec, Manifest};
use std::sync::Arc;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that inputs
    /// made from the same seed do not share random draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut v);
    v
}

/// A Zipf(1) popularity table over `n` items: item `i` has rank `i + 1`.
#[derive(Debug, Clone)]
pub struct Popularity {
    cumulative: Vec<f64>,
}

impl Popularity {
    /// Zipf(1) weights over `n` items.
    pub fn zipf(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Popularity { cumulative }
    }

    /// Draws one item.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Size classes of generated programs.
pub const SIZE_CLASSES: usize = 16;

/// A generated program of size class `class` (top-level statements,
/// nesting, helper functions and indeterminacy all grow or cycle with
/// it); the content comes from `rng`. Fixing the classes, not drawing
/// them, keeps the mix of program sizes the same for every seed.
pub fn gen_program(rng: &mut Rng, class: usize) -> String {
    let c = class % SIZE_CLASSES;
    let cfg = GenConfig {
        top_stmts: 6 + 3 * c,
        max_depth: 2 + c % 3,
        n_funcs: 1 + c % 6,
        indet_pct: 10 + (c * 7 % 21) as u32,
    };
    mujs_gen::generate(rng.next_u64(), &cfg)
}

// ---------------------------------------------------------------- paper

/// The seeded order of the paper workload: indices into the four pages
/// and into the runnable eval programs.
pub fn paper_order(seed: u64, pages: usize, programs: usize) -> (Vec<usize>, Vec<usize>) {
    (permutation(seed, 1, pages), permutation(seed, 2, programs))
}

// ---------------------------------------------------------------- serve

/// How a `serve` request's PTA stage consumes the determinacy facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No PTA consumer of the facts (baseline solve).
    Plain,
    /// Facts injected into the solver.
    Inject,
    /// Concrete-replay region summaries (no injected facts).
    Shortcuts,
    /// The program specialized at this context depth.
    SpecDepth(usize),
}

/// The request modes of the `serve` stream.
pub const SERVE_MODES: [Mode; 4] = [
    Mode::Plain,
    Mode::Inject,
    Mode::Shortcuts,
    Mode::SpecDepth(2),
];

/// The PTA budgets of the `serve` stream: the Table 1 budget and the
/// comparison budget.
pub const SERVE_BUDGETS: [u64; 2] = [150_000, 2_000_000];

/// Every `serve` request carries this wall-clock budget.
pub const SERVE_DEADLINE_MS: u64 = 30_000;

/// One cycle of the `serve` stream: per 100 requests, how many of each
/// (document class, request kind). The seed shuffles each cycle; fixing
/// the counts keeps the mix, and so the cost of a run, the same for every
/// seed. jQuery-like sources get 10% of the requests.
///
/// No record of real editor traffic exists, so these counts are chosen.
/// The 16 cold requests per 100 follow the cold-to-warm ratio of the
/// repository's own service benchmark (`detload`: one cold pass to five
/// warm passes, 17%); the split into edits and switches, the jQuery-like
/// share, the working-set size and the Zipf(1) popularity are
/// assumptions. Evictions add cold requests on top; every untraced run
/// prints the measured cold share and evictions per request.
const CYCLE: [(bool, Kind, usize); 6] = [
    (true, Kind::Edit, 1),
    (true, Kind::Switch, 1),
    (true, Kind::Repeat, 8),
    (false, Kind::Edit, 5),
    (false, Kind::Switch, 9),
    (false, Kind::Repeat, 76),
];

/// What a request does to its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Change one statement: every stage misses.
    Edit,
    /// Ask for a mode/budget not yet asked of this revision: parse and
    /// facts hit, the summary and PTA stages miss.
    Switch,
    /// Ask again for something already asked: every stage hits (unless
    /// evicted).
    Repeat,
}

/// The seed of the generated documents in the `serve` working set.
const SERVE_DOC_SEED: u64 = 0x5e12e;

/// Generated documents in the `serve` working set.
const SERVE_GEN_DOCS: usize = 64;

struct Doc {
    name: String,
    base: Arc<str>,
    rev: u64,
    /// The JSON-escaped source of the current revision.
    src_json: Arc<str>,
    /// Indices into the mode × budget combinations already requested for
    /// the current revision.
    seen: Vec<usize>,
}

impl Doc {
    fn new(name: String, base: &str) -> Self {
        let base: Arc<str> = Arc::from(base);
        let src_json = escape(&revision(&base, 0));
        Doc {
            name,
            base,
            rev: 0,
            src_json,
            seen: Vec::new(),
        }
    }

    fn edit(&mut self) {
        self.rev += 1;
        self.src_json = escape(&revision(&self.base, self.rev));
        self.seen.clear();
    }
}

/// A document's text at revision `rev`: every revision differs from the
/// previous one in exactly one statement.
fn revision(base: &str, rev: u64) -> String {
    format!("{base}\nvar __rev = {rev};\n")
}

fn escape(src: &str) -> Arc<str> {
    Arc::from(serde_json::to_string(&serde_json::Value::Str(src.to_owned())).expect("escapes"))
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct ServeReq {
    /// The request id (its position in the stream).
    pub id: u64,
    /// The request line, without the trailing newline.
    pub line: String,
    /// A digest of everything but the id: equal requests share it.
    pub ident: u64,
    /// The document's index in the stream.
    pub doc: usize,
    /// The PTA consumer mode.
    pub mode: Mode,
    /// The PTA budget.
    pub budget: u64,
}

/// The seeded `serve` request stream: an editor-like mix of repeats,
/// one-statement edits and mode or budget switches over the jQuery-like
/// sources and seeded generated programs, with Zipf-skewed popularity.
pub struct ServeStream {
    rng: Rng,
    docs: Vec<Doc>,
    jquery: Popularity,
    generated: Popularity,
    n_jquery: usize,
    cycle: Vec<(bool, Kind)>,
    next_id: u64,
}

impl ServeStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut docs: Vec<Doc> = mujs_corpus::jquery_like::named_sources()
            .into_iter()
            .map(|(name, src)| Doc::new(name, &src))
            .collect();
        let n_jquery = docs.len();
        // The documents are the same for every seed; the seed shapes the
        // traffic over them (order, kinds, modes and budgets, edits).
        let mut doc_rng = Rng::new(SERVE_DOC_SEED, 4);
        for i in 0..SERVE_GEN_DOCS {
            // Scatter the size classes over the popularity ranks.
            let class = i * 7 % SIZE_CLASSES;
            docs.push(Doc::new(
                format!("gen-{i}"),
                &gen_program(&mut doc_rng, class),
            ));
        }
        ServeStream {
            rng: Rng::new(seed, 3),
            docs,
            jquery: Popularity::zipf(n_jquery),
            generated: Popularity::zipf(SERVE_GEN_DOCS),
            n_jquery,
            cycle: Vec::new(),
            next_id: 0,
        }
    }

    /// The document's current source text (its latest revision).
    pub fn source(&self, doc: usize) -> String {
        let d = &self.docs[doc];
        revision(&d.base, d.rev)
    }

    /// The next request.
    pub fn next_req(&mut self) -> ServeReq {
        let combos = SERVE_MODES.len() * SERVE_BUDGETS.len();
        if self.cycle.is_empty() {
            for (jquery, kind, n) in CYCLE {
                self.cycle.extend(std::iter::repeat_n((jquery, kind), n));
            }
            self.rng.shuffle(&mut self.cycle);
        }
        let (jquery, kind) = self.cycle.pop().expect("cycle refilled");
        let doc = if jquery {
            self.jquery.pick(&mut self.rng)
        } else {
            self.n_jquery + self.generated.pick(&mut self.rng)
        };
        let d = &mut self.docs[doc];
        let combo = if d.seen.is_empty() {
            self.rng.below(combos)
        } else if kind == Kind::Edit {
            d.edit();
            self.rng.below(combos)
        } else if kind == Kind::Switch && d.seen.len() < combos {
            let fresh: Vec<usize> = (0..combos).filter(|c| !d.seen.contains(c)).collect();
            fresh[self.rng.below(fresh.len())]
        } else {
            d.seen[self.rng.below(d.seen.len())]
        };
        if !d.seen.contains(&combo) {
            d.seen.push(combo);
        }
        let mode = SERVE_MODES[combo / SERVE_BUDGETS.len()];
        let budget = SERVE_BUDGETS[combo % SERVE_BUDGETS.len()];
        let flag = match mode {
            Mode::Plain => String::new(),
            Mode::Inject => ",\"inject\":true".to_owned(),
            Mode::Shortcuts => ",\"shortcuts\":true".to_owned(),
            Mode::SpecDepth(k) => format!(",\"spec_depth\":{k}"),
        };
        let body = format!(
            "\"op\":\"analyze\",\"name\":\"{}\",\"src\":{},\"deadline_ms\":{},\"pta_budget\":{}{}}}",
            d.name, d.src_json, SERVE_DEADLINE_MS, budget, flag
        );
        let id = self.next_id;
        self.next_id += 1;
        ServeReq {
            id,
            line: format!("{{\"id\":{id},{body}"),
            ident: fnv1a(body.as_bytes()),
            doc,
            mode,
            budget,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------- campaign

/// Jobs per `campaign` manifest. This count, the split below into
/// generated, eval-suite and jQuery-like sources, and the four seeds per
/// job are chosen so that many small inputs dominate; no record of real
/// campaign manifests exists to set them from.
pub const CAMPAIGN_JOBS: usize = 120;

/// Seeds each `campaign` job fans out over.
pub const CAMPAIGN_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Per-job wall-clock budget of the `campaign` manifests (the watchdog
/// arms at this plus its grace).
pub const CAMPAIGN_DEADLINE_MS: u64 = 30_000;

/// Eval-suite sources per manifest.
const CAMPAIGN_EVAL_JOBS: usize = 8;

/// jQuery-like sources per manifest.
const CAMPAIGN_JQUERY_JOBS: usize = 1;

/// The `batch`-th manifest of the seeded `campaign` stream: generated
/// programs of varied size plus a fixed number of eval-suite and
/// jQuery-like sources, in seeded order. `corpus` holds the eval-suite
/// sources first, then the jQuery-like ones.
pub fn campaign_manifest(seed: u64, batch: u64, corpus: &CampaignCorpus) -> Manifest {
    let mut rng = Rng::new(seed, 1000 + batch);
    let mut sources: Vec<(String, String)> = Vec::with_capacity(CAMPAIGN_JOBS);
    // The corpus sources rotate with the batch index, so every run of a
    // few batches sees the same corpus mix whatever the seed.
    let b = batch as usize;
    for k in 0..CAMPAIGN_EVAL_JOBS {
        let (name, src) = &corpus.eval[(b * CAMPAIGN_EVAL_JOBS + k) % corpus.eval.len()];
        sources.push((name.clone(), src.clone()));
    }
    for k in 0..CAMPAIGN_JQUERY_JOBS {
        let (name, src) = &corpus.jquery[(b * CAMPAIGN_JQUERY_JOBS + k) % corpus.jquery.len()];
        sources.push((name.clone(), src.clone()));
    }
    let mut class = 0;
    while sources.len() < CAMPAIGN_JOBS {
        sources.push(("gen".to_owned(), gen_program(&mut rng, class)));
        class += 1;
    }
    rng.shuffle(&mut sources);
    let jobs = sources
        .into_iter()
        .enumerate()
        .map(|(i, (name, src))| JobSpec {
            seeds: Some(CAMPAIGN_SEEDS.to_vec()),
            deadline_ms: Some(CAMPAIGN_DEADLINE_MS),
            ..JobSpec::new(format!("b{batch}-{i:03}-{name}"), src)
        })
        .collect();
    Manifest::new(jobs)
}

/// The fixed sources `campaign` manifests draw from.
#[derive(Debug, Clone)]
pub struct CampaignCorpus {
    /// Runnable eval-suite programs.
    pub eval: Vec<(String, String)>,
    /// jQuery-like sources.
    pub jquery: Vec<(String, String)>,
}

impl CampaignCorpus {
    /// Loads the corpus.
    pub fn load() -> Self {
        CampaignCorpus {
            eval: mujs_corpus::evalbench::named_sources(),
            jquery: mujs_corpus::jquery_like::named_sources(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, n: usize) -> Vec<String> {
        let mut s = ServeStream::new(seed);
        (0..n).map(|_| s.next_req().line).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        assert_eq!(stream_bytes(7, 400), stream_bytes(7, 400));
        assert_ne!(stream_bytes(7, 400), stream_bytes(8, 400));
    }

    #[test]
    fn same_seed_gives_byte_identical_manifests() {
        let corpus = CampaignCorpus::load();
        let a = campaign_manifest(11, 3, &corpus).to_json();
        assert_eq!(a, campaign_manifest(11, 3, &corpus).to_json());
        assert_ne!(a, campaign_manifest(12, 3, &corpus).to_json());
        assert_ne!(a, campaign_manifest(11, 4, &corpus).to_json());
        let m = Manifest::from_json(&a).expect("manifest validates");
        assert_eq!(m.jobs.len(), CAMPAIGN_JOBS);
        assert!(m.jobs.iter().all(|j| j.effective_seeds() == CAMPAIGN_SEEDS));
    }

    #[test]
    fn paper_order_is_a_seeded_permutation() {
        let (pages, programs) = paper_order(5, 4, 24);
        assert_eq!(paper_order(5, 4, 24), (pages.clone(), programs.clone()));
        let mut sorted = programs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        assert_eq!(pages.len(), 4);
    }

    #[test]
    fn stream_mixes_repeats_edits_and_switches() {
        let mut s = ServeStream::new(1);
        let reqs: Vec<ServeReq> = (0..3000).map(|_| s.next_req()).collect();
        let mut seen = std::collections::HashSet::new();
        let repeats = reqs.iter().filter(|r| !seen.insert(r.ident)).count();
        assert!(repeats > 1500, "repeats {repeats}");
        assert!(reqs.iter().any(|r| r.line.contains("__rev = 2;")));
        let jq = reqs.iter().filter(|r| r.doc < 4).count();
        assert!((150..450).contains(&jq), "jquery requests {jq}");
        for r in &reqs[..50] {
            assert!(
                mujs_serve::proto::parse_request(&r.line).is_ok(),
                "{}",
                &r.line[..80]
            );
        }
    }
}
