//! The concrete big-step interpreter — the trace semantics of Figure 8,
//! extended to the full muJS subset (prototype chains, `this`, exceptions,
//! `eval`, DOM bindings).
//!
//! The machine evaluates the structured IR directly. Exceptions propagate
//! through `Result`; the other abrupt completions travel in [`Flow`].

use crate::coerce::{self, CoerceError};
use crate::context::{ContextTable, CtxId};
use crate::values::{NativeId, ObjClass, ObjId, Object, ScopeId, Slot, Value};
use mujs_dom::document::Document;
use mujs_dom::events::EventRegistry;
use mujs_ir::hash::{FastMap, FastSet};
use mujs_ir::ir::{FuncKind, Place, PropKey, StmtKind};
use mujs_ir::{Block, FuncId, Program, Stmt, StmtId, Sym, TempId};
use mujs_syntax::ast::Lit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::rc::Rc;

/// Fatal outcomes of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An uncaught JavaScript exception.
    Thrown(Value),
    /// The configured step budget was exhausted.
    StepLimit,
    /// `return`/`break`/`continue` escaped its legal context (e.g. a
    /// `return` inside eval code).
    IllegalCompletion,
    /// The run was cancelled through [`InterpOptions::cancel`].
    Cancelled,
    /// The wall-clock deadline ([`InterpOptions::deadline_ms`]) elapsed.
    Deadline,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Thrown(v) => write!(f, "uncaught exception: {}", v.kind_str()),
            RunError::StepLimit => write!(f, "step limit exceeded"),
            RunError::IllegalCompletion => write!(f, "illegal abrupt completion"),
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::Deadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

/// Non-exceptional completions of a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `return v`.
    Return(Value),
}

/// Configuration of a run.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Seed for `Math.random` (the analysis' canonical indeterminate
    /// input); re-randomize across runs to explore executions.
    pub seed: u64,
    /// Statement budget; exceeded ⇒ [`RunError::StepLimit`].
    pub max_steps: u64,
    /// Record per-statement `(point, context, value)` observations for the
    /// soundness harness.
    pub record_observations: bool,
    /// Cap on recorded observations.
    pub max_observations: usize,
    /// Cooperative cancellation flag, polled every
    /// [`InterpOptions::poll_interval`] statements; setting it makes the
    /// run stop with [`RunError::Cancelled`] at a statement boundary.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Wall-clock budget in milliseconds, measured from machine
    /// construction; elapsing ⇒ [`RunError::Deadline`].
    pub deadline_ms: Option<u64>,
    /// Statements between cancellation/deadline polls (clamped to ≥ 1).
    pub poll_interval: u64,
    /// Record a [`HeapTrace`] of abstracted heap effects at the configured
    /// sites (the dynamic-shortcut summarizer's data source). `None` (the
    /// default) records nothing and changes no behavior.
    pub trace: Option<TraceConfig>,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            seed: 0xD5EA51DE,
            max_steps: 20_000_000,
            record_observations: false,
            max_observations: 2_000_000,
            cancel: None,
            deadline_ms: None,
            poll_interval: 1024,
            trace: None,
        }
    }
}

/// Which program points the heap trace records events at.
///
/// The point and function filters are dense bitsets indexed by
/// `StmtId`/`FuncId`: the machine consults them on every define, so a
/// membership test is one shift and mask.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    points: Vec<u64>,
    funcs: Vec<u64>,
    max_events: usize,
}

impl TraceConfig {
    /// A configuration recording nothing yet. `max_events` caps the
    /// distinct recorded events; exceeding it sets
    /// [`HeapTrace::truncated`] and stops recording (allocation-site
    /// tagging continues, so already-recorded events stay well-formed).
    pub fn new(max_events: usize) -> Self {
        TraceConfig {
            max_events,
            ..Default::default()
        }
    }

    /// Records define / property-write / call events at `point`.
    pub fn add_point(&mut self, point: StmtId) {
        bit_insert(&mut self.points, point.0);
    }

    /// Records the `return` values of `func`.
    pub fn add_func(&mut self, func: FuncId) {
        bit_insert(&mut self.funcs, func.0);
    }

    fn has_point(&self, point: StmtId) -> bool {
        bit_test(&self.points, point.0)
    }

    fn has_func(&self, func: FuncId) -> bool {
        bit_test(&self.funcs, func.0)
    }
}

fn bit_insert(words: &mut Vec<u64>, i: u32) {
    let w = (i / 64) as usize;
    if w >= words.len() {
        words.resize(w + 1, 0);
    }
    words[w] |= 1 << (i % 64);
}

fn bit_test(words: &[u64], i: u32) -> bool {
    words
        .get((i / 64) as usize)
        .is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// The abstraction of a concrete heap value, resolved *at record time*
/// (when the machine still knows every object's allocation provenance).
/// Mirrors the points-to analysis' abstract object domain: site-allocated
/// objects, closures, per-function `.prototype` records, the global, and
/// an opaque bucket for everything the analysis does not model (natives,
/// DOM values, stdlib-internal allocations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceAbs {
    /// The global (`window`) object.
    Global,
    /// A closure of the function.
    Closure(FuncId),
    /// The fresh `.prototype` object created with each closure.
    ProtoOf(FuncId),
    /// An object allocated at the statement (`{}`/`[]` literals, `for-in`
    /// key arrays, `new F` results).
    Alloc(StmtId),
    /// Unmodeled: native functions and their results, DOM values.
    Opaque,
}

/// One recorded call through a trace point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCall {
    /// The call/new site.
    pub site: StmtId,
    /// The user-code callee; `None` for native/opaque callees (whose
    /// object arguments escape the modeled world).
    pub callee: Option<FuncId>,
    /// The observed `this` abstraction, recorded only when the site
    /// passes an explicit receiver (mirrors the solver's wiring).
    pub this: Option<TraceAbs>,
    /// Argument abstractions (`None` = primitive).
    pub args: Vec<Option<TraceAbs>>,
    /// Whether the site is a `new`.
    pub is_new: bool,
    /// For `new`: the constructed object's prototype-chain parent.
    pub proto: Option<TraceAbs>,
}

/// Deduplicated, abstracted heap events of one concrete run — everything
/// the dynamic-shortcut summarizer needs to distill a region's effects
/// into points-to tuples. Event vectors are in first-occurrence order;
/// consumers sort before use.
#[derive(Debug, Default)]
pub struct HeapTrace {
    /// `(site, value)` for every object value a recorded statement wrote
    /// into its destination place.
    pub defines: Vec<(StmtId, TraceAbs)>,
    /// `(site, base, key, value)` for every object value a recorded
    /// `SetProp` stored (concrete key, post-coercion).
    pub writes: Vec<(StmtId, TraceAbs, Sym, TraceAbs)>,
    /// Calls executed at recorded call/new sites.
    pub calls: Vec<TraceCall>,
    /// `(function, value)` for every object value a traced function
    /// returned.
    pub rets: Vec<(FuncId, TraceAbs)>,
    /// The event cap was hit; the trace is incomplete and must not be
    /// used for summarization.
    pub truncated: bool,
}

impl HeapTrace {
    /// Total recorded (distinct) events.
    pub fn len(&self) -> usize {
        self.defines.len() + self.writes.len() + self.calls.len() + self.rets.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dedup state backing [`HeapTrace`] recording.
#[derive(Debug, Default)]
struct TraceState {
    out: HeapTrace,
    seen_defines: FastSet<(StmtId, TraceAbs)>,
    seen_writes: FastSet<(StmtId, TraceAbs, Sym, TraceAbs)>,
    seen_calls: FastSet<TraceCall>,
    seen_rets: FastSet<(FuncId, TraceAbs)>,
    /// Allocation provenance: site-allocated objects and closure
    /// `.prototype` records. Objects absent here abstract to
    /// [`TraceAbs::Opaque`].
    tags: FastMap<ObjId, TraceAbs>,
}

/// One recorded definition event: statement `point` under calling context
/// `ctx` wrote `value` into its destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The program point.
    pub point: StmtId,
    /// The interned calling context.
    pub ctx: CtxId,
    /// The written value (object ids refer to this machine's heap).
    pub value: Value,
}

/// A lexical scope: slot-addressed locals plus by-name overflow bindings
/// and the parent link. `parent == None` means the global object
/// terminates the chain.
///
/// Function activations carry `func` and a `slots` vector laid out by the
/// owning [`mujs_ir::Function::locals`]; slot-resolved places index it
/// directly. Catch scopes (and any binding outside the static layout,
/// e.g. introduced by `eval`) live in `ext`. A name is stored in at most
/// one of the two.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Owning function for activation scopes; `None` for catch scopes.
    func: Option<FuncId>,
    /// The activation's locals, indexed by the static layout.
    slots: Vec<Value>,
    /// Bindings outside the static layout.
    ext: FastMap<Sym, Value>,
    parent: Option<ScopeId>,
    /// Nearest enclosing activation scope (catch scopes skipped); slot
    /// coordinates with `hops ≥ 1` climb this chain.
    fn_parent: Option<ScopeId>,
    /// Set when a closure captures this scope (used by the instrumented
    /// machine's flush policy; tracked here for API parity).
    pub captured: bool,
}

/// An activation record.
#[derive(Debug)]
pub struct Frame {
    /// The function being executed.
    pub func: FuncId,
    /// Scope for named lookups (`None` ⇒ global object only).
    pub scope: Option<ScopeId>,
    /// The frame's own activation scope — the base of slot addressing.
    /// Stays fixed while `scope` moves through catch scopes.
    pub activation: Option<ScopeId>,
    /// Temporary slots.
    pub temps: Vec<Value>,
    /// The `this` binding.
    pub this_val: Value,
    /// Calling context of this activation.
    pub ctx: CtxId,
    /// Per-site dynamic occurrence counters within this activation,
    /// indexed by the statement's dense per-function index.
    pub occurrences: Vec<u32>,
}

/// Built-in prototype objects.
#[derive(Debug, Clone, Copy)]
pub struct Protos {
    /// `Object.prototype`
    pub object: ObjId,
    /// `Function.prototype`
    pub function: ObjId,
    /// `Array.prototype`
    pub array: ObjId,
    /// `String.prototype`
    pub string: ObjId,
    /// `Number.prototype`
    pub number: ObjId,
    /// `Boolean.prototype`
    pub boolean: ObjId,
    /// `Error.prototype`
    pub error: ObjId,
}

/// Well-known constructor objects needing special `new` behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct Specials {
    /// `Array`
    pub array_ctor: Option<ObjId>,
    /// `Error`
    pub error_ctor: Option<ObjId>,
    /// `Object`
    pub object_ctor: Option<ObjId>,
    /// the `eval` function value (for indirect calls)
    pub eval_fn: Option<ObjId>,
}

/// Signature of built-in functions.
pub type NativeFn = fn(&mut Interp<'_>, Value, &[Value]) -> Result<Value, RunError>;

/// The concrete interpreter.
pub struct Interp<'p> {
    /// The program (mutable: `eval` appends lowered chunks).
    pub prog: &'p mut Program,
    heap: Vec<Object<()>>,
    scopes: Vec<Scope>,
    global: ObjId,
    /// Built-in prototypes.
    pub protos: Protos,
    /// Well-known constructors.
    pub specials: Specials,
    natives: Vec<(&'static str, NativeFn)>,
    /// The emulated document, if DOM bindings are installed.
    pub doc: Option<Document>,
    /// Registered event handlers (closure object ids).
    pub events: EventRegistry<ObjId>,
    pub(crate) dom_nodes: FastMap<mujs_dom::document::NodeId, ObjId>,
    pub(crate) dom_document_obj: Option<ObjId>,
    pub(crate) dom_element_proto: Option<ObjId>,
    rng: StdRng,
    now: f64,
    steps: u64,
    opts: InterpOptions,
    /// Wall-clock stop point derived from `opts.deadline_ms`.
    deadline: Option<std::time::Instant>,
    /// Captured `console.log`/`alert` output.
    pub output: Vec<String>,
    /// Interned calling contexts.
    pub ctxs: ContextTable,
    /// Recorded observations (when enabled).
    pub observations: Vec<Observation>,
    /// Heap-trace recording state (when [`InterpOptions::trace`] is set).
    trace: Option<TraceState>,
    /// The `new` site currently being constructed (for tagging the fresh
    /// object inside [`Interp::construct`]); saved/restored across nested
    /// constructions.
    trace_new_site: Option<StmtId>,
}

impl<'p> Interp<'p> {
    /// Creates a machine over `prog` and installs the standard library
    /// globals.
    pub fn new(prog: &'p mut Program, opts: InterpOptions) -> Self {
        let mut heap = Vec::new();
        let mut alloc = |class: ObjClass, proto: Option<ObjId>| {
            let id = ObjId(heap.len() as u32);
            heap.push(Object::new(class, proto));
            id
        };
        let object = alloc(ObjClass::Plain, None);
        let function = alloc(ObjClass::Plain, Some(object));
        let array = alloc(ObjClass::Plain, Some(object));
        let string = alloc(ObjClass::Plain, Some(object));
        let number = alloc(ObjClass::Plain, Some(object));
        let boolean = alloc(ObjClass::Plain, Some(object));
        let error = alloc(ObjClass::Plain, Some(object));
        let global = alloc(ObjClass::Plain, Some(object));
        let mut interp = Interp {
            prog,
            heap,
            scopes: Vec::new(),
            global,
            protos: Protos {
                object,
                function,
                array,
                string,
                number,
                boolean,
                error,
            },
            specials: Specials::default(),
            natives: Vec::new(),
            doc: None,
            events: EventRegistry::new(),
            dom_nodes: FastMap::default(),
            dom_document_obj: None,
            dom_element_proto: None,
            rng: StdRng::seed_from_u64(opts.seed),
            now: 1.6e12,
            steps: 0,
            deadline: opts
                .deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            trace: opts.trace.as_ref().map(|_| TraceState::default()),
            trace_new_site: None,
            opts,
            output: Vec::new(),
            ctxs: ContextTable::new(),
            observations: Vec::new(),
        };
        crate::natives::install_stdlib(&mut interp);
        interp
    }

    // ------------------------------------------------------------ plumbing

    /// The global (`window`) object.
    pub fn global(&self) -> ObjId {
        self.global
    }

    /// Number of statements executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Allocates a heap object.
    pub fn alloc(&mut self, class: ObjClass, proto: Option<ObjId>) -> ObjId {
        let id = ObjId(self.heap.len() as u32);
        self.heap.push(Object::new(class, proto));
        id
    }

    /// Borrows an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid heap address.
    pub fn obj(&self, id: ObjId) -> &Object<()> {
        &self.heap[id.0 as usize]
    }

    /// Mutably borrows an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid heap address.
    pub fn obj_mut(&mut self, id: ObjId) -> &mut Object<()> {
        &mut self.heap[id.0 as usize]
    }

    /// Number of heap objects.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Registers a native function and wraps it in a callable object.
    pub fn register_native(&mut self, name: &'static str, f: NativeFn) -> ObjId {
        let nid = NativeId(self.natives.len() as u32);
        self.natives.push((name, f));
        let obj = self.alloc(ObjClass::Native(nid), Some(self.protos.function));
        self.obj_mut(obj).builtin = true;
        obj
    }

    /// Sets `obj.name = value` directly (no array/DOM magic); used while
    /// building the standard library.
    pub fn set_raw(&mut self, obj: ObjId, name: &str, value: Value) {
        let key = self.prog.interner.intern(name);
        self.set_raw_s(obj, key, value);
    }

    /// [`Interp::set_raw`] with a pre-interned key.
    pub fn set_raw_s(&mut self, obj: ObjId, key: Sym, value: Value) {
        self.obj_mut(obj).props.insert(key, Slot { value, ann: () });
    }

    /// Reads `obj.name` directly (own properties only).
    pub fn get_raw(&self, obj: ObjId, name: &str) -> Option<Value> {
        // An un-interned name cannot be a key of any property table.
        let key = self.prog.interner.get(name)?;
        self.get_raw_s(obj, key)
    }

    /// [`Interp::get_raw`] with a pre-interned key.
    pub fn get_raw_s(&self, obj: ObjId, key: Sym) -> Option<Value> {
        self.obj(obj).props.get(key).map(|s| s.value.clone())
    }

    /// Throws a fresh error object with the given message.
    pub fn throw_error(&mut self, kind: &str, msg: &str) -> RunError {
        let e = self.alloc(ObjClass::Plain, Some(self.protos.error));
        self.set_raw(e, "name", Value::Str(Rc::from(kind)));
        self.set_raw(e, "message", Value::Str(Rc::from(msg)));
        RunError::Thrown(Value::Object(e))
    }

    fn coerce_err(&mut self, _e: CoerceError) -> RunError {
        self.throw_error("TypeError", "cannot convert object to primitive")
    }

    /// Draws from the seeded RNG (`Math.random`).
    pub fn random(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Monotonic clock for `Date.now` (advances each call; indeterminate
    /// input for the analysis).
    pub fn now(&mut self) -> f64 {
        self.now += 1.0 + self.rng.gen::<f64>() * 10.0;
        self.now
    }

    // ------------------------------------------------------------- scopes

    /// Creates an ext-only scope (catch blocks).
    fn new_scope(&mut self, parent: Option<ScopeId>) -> ScopeId {
        let id = ScopeId(self.scopes.len() as u32);
        let fn_parent = self.nearest_activation(parent);
        self.scopes.push(Scope {
            func: None,
            slots: Vec::new(),
            ext: FastMap::default(),
            parent,
            fn_parent,
            captured: false,
        });
        id
    }

    /// Creates a function activation with its slot vector laid out by the
    /// function's static `locals`, all initialized to `undefined`.
    fn new_activation(&mut self, func: FuncId, parent: Option<ScopeId>) -> ScopeId {
        let id = ScopeId(self.scopes.len() as u32);
        let n = self.prog.func(func).locals.len();
        let fn_parent = self.nearest_activation(parent);
        self.scopes.push(Scope {
            func: Some(func),
            slots: vec![Value::Undefined; n],
            ext: FastMap::default(),
            parent,
            fn_parent,
            captured: false,
        });
        id
    }

    /// The nearest activation scope at or above `from` (catch scopes are
    /// transparent to slot addressing).
    fn nearest_activation(&self, from: Option<ScopeId>) -> Option<ScopeId> {
        let mut cur = from;
        while let Some(sid) = cur {
            let s = &self.scopes[sid.0 as usize];
            if s.func.is_some() {
                return Some(sid);
            }
            cur = s.parent;
        }
        None
    }

    /// Position of `name` in the scope's slot layout, if it is a static
    /// local of the owning function.
    fn slot_of(&self, sid: ScopeId, name: Sym) -> Option<u32> {
        let f = self.scopes[sid.0 as usize].func?;
        self.prog.func(f).local_slot(name)
    }

    fn declare(&mut self, scope: Option<ScopeId>, name: Sym, value: Value) {
        match scope {
            Some(sid) => {
                // Reuse the static slot when the name has one, so a name
                // lives in exactly one place per scope.
                if let Some(i) = self.slot_of(sid, name) {
                    self.scopes[sid.0 as usize].slots[i as usize] = value;
                } else {
                    self.scopes[sid.0 as usize].ext.insert(name, value);
                }
            }
            None => {
                let g = self.global;
                self.obj_mut(g).props.insert(name, Slot { value, ann: () });
            }
        }
    }

    fn lookup(&self, scope: Option<ScopeId>, name: Sym) -> Option<Value> {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_of(sid, name) {
                return Some(self.scopes[sid.0 as usize].slots[i as usize].clone());
            }
            let s = &self.scopes[sid.0 as usize];
            if let Some(v) = s.ext.get(&name) {
                return Some(v.clone());
            }
            cur = s.parent;
        }
        self.get_raw_s(self.global, name)
    }

    /// Assigns `name`, walking the scope chain; creates a global if the
    /// name is unbound anywhere (sloppy-mode JS).
    fn assign(&mut self, scope: Option<ScopeId>, name: Sym, value: Value) {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_of(sid, name) {
                self.scopes[sid.0 as usize].slots[i as usize] = value;
                return;
            }
            let s = &mut self.scopes[sid.0 as usize];
            if let Some(slot) = s.ext.get_mut(&name) {
                *slot = value;
                return;
            }
            cur = s.parent;
        }
        let g = self.global;
        self.obj_mut(g).props.insert(name, Slot { value, ann: () });
    }

    /// The activation scope `hops` function levels above the frame's own.
    fn hop_scope(&self, frame: &Frame, hops: u32) -> Option<ScopeId> {
        let mut sid = frame.activation?;
        for _ in 0..hops {
            sid = self.scopes[sid.0 as usize].fn_parent?;
        }
        Some(sid)
    }

    /// Marks every scope from `scope` outward as captured.
    fn mark_captured(&mut self, scope: Option<ScopeId>) {
        let mut cur = scope;
        while let Some(sid) = cur {
            let s = &mut self.scopes[sid.0 as usize];
            if s.captured {
                break;
            }
            s.captured = true;
            cur = s.parent;
        }
    }

    // ------------------------------------------------------------- frames

    fn read_place(&mut self, frame: &Frame, place: &Place) -> Result<Value, RunError> {
        match place {
            Place::Temp(TempId(i)) => Ok(frame.temps[*i as usize].clone()),
            Place::Named(name) => match self.lookup(frame.scope, *name) {
                Some(v) => Ok(v),
                None => Err(self.ref_error(*name)),
            },
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => Ok(self.scopes[sid.0 as usize].slots[*slot as usize].clone()),
                // Defensive: code running without an activation (shouldn't
                // happen for slot-resolved bodies) falls back to by-name.
                None => match self.lookup(frame.scope, *sym) {
                    Some(v) => Ok(v),
                    None => Err(self.ref_error(*sym)),
                },
            },
        }
    }

    fn ref_error(&mut self, name: Sym) -> RunError {
        let name = self.prog.interner.resolve(name).to_owned();
        self.throw_error("ReferenceError", &format!("{name} is not defined"))
    }

    fn write_place(&mut self, frame: &mut Frame, place: &Place, value: Value) {
        match place {
            Place::Temp(TempId(i)) => frame.temps[*i as usize] = value,
            Place::Named(name) => self.assign(frame.scope, *name, value),
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => self.scopes[sid.0 as usize].slots[*slot as usize] = value,
                None => self.assign(frame.scope, *sym, value),
            },
        }
    }

    fn observe(&mut self, frame: &Frame, point: StmtId, value: &Value) {
        if self.opts.record_observations && self.observations.len() < self.opts.max_observations {
            self.observations.push(Observation {
                point,
                ctx: frame.ctx,
                value: value.clone(),
            });
        }
    }

    fn define(
        &mut self,
        frame: &mut Frame,
        point: StmtId,
        dst: &Place,
        value: Value,
    ) -> Result<(), RunError> {
        self.observe(frame, point, &value);
        if self.trace.is_some() {
            self.trace_define(point, &value);
        }
        self.write_place(frame, dst, value);
        Ok(())
    }

    // ------------------------------------------------------- heap tracing

    /// Takes the recorded heap trace, ending recording. `None` when
    /// tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<HeapTrace> {
        self.trace.take().map(|t| t.out)
    }

    /// Whether events at `point` are recorded.
    fn trace_point(&self, point: StmtId) -> bool {
        self.opts.trace.as_ref().is_some_and(|c| c.has_point(point))
    }

    /// Tags an object's allocation provenance (always on while tracing,
    /// regardless of the point filter: objects allocated anywhere can flow
    /// into recorded events).
    fn trace_tag(&mut self, obj: ObjId, tag: TraceAbs) {
        if let Some(t) = self.trace.as_mut() {
            t.tags.insert(obj, tag);
        }
    }

    /// The record-time abstraction of a value; `None` for primitives.
    fn trace_abs(&self, v: &Value) -> Option<TraceAbs> {
        match v {
            Value::Object(id) => Some(self.trace_abs_obj(*id)),
            _ => None,
        }
    }

    fn trace_abs_obj(&self, id: ObjId) -> TraceAbs {
        if id == self.global {
            return TraceAbs::Global;
        }
        if let ObjClass::Function { func, .. } = &self.obj(id).class {
            return TraceAbs::Closure(*func);
        }
        self.trace
            .as_ref()
            .and_then(|t| t.tags.get(&id))
            .copied()
            .unwrap_or(TraceAbs::Opaque)
    }

    /// Checks the event cap; trips `truncated` when full.
    fn trace_room(&mut self) -> bool {
        let cap = self.opts.trace.as_ref().map_or(0, |c| c.max_events);
        let Some(t) = self.trace.as_mut() else {
            return false;
        };
        if t.out.truncated {
            return false;
        }
        if t.out.len() >= cap {
            t.out.truncated = true;
            return false;
        }
        true
    }

    fn trace_define(&mut self, point: StmtId, value: &Value) {
        if !self.trace_point(point) {
            return;
        }
        let Some(abs) = self.trace_abs(value) else {
            return;
        };
        if !self.trace_room() {
            return;
        }
        let t = self.trace.as_mut().expect("room implies state");
        if t.seen_defines.insert((point, abs)) {
            t.out.defines.push((point, abs));
        }
    }

    fn trace_write(&mut self, site: StmtId, base: &Value, key: Sym, value: &Value) {
        if !self.trace_point(site) {
            return;
        }
        let (Some(b), Some(v)) = (self.trace_abs(base), self.trace_abs(value)) else {
            return;
        };
        if !self.trace_room() {
            return;
        }
        let t = self.trace.as_mut().expect("room implies state");
        if t.seen_writes.insert((site, b, key, v)) {
            t.out.writes.push((site, b, key, v));
        }
    }

    fn trace_call_event(&mut self, ev: TraceCall) {
        if !self.trace_room() {
            return;
        }
        let t = self.trace.as_mut().expect("room implies state");
        if t.seen_calls.insert(ev.clone()) {
            t.out.calls.push(ev);
        }
    }

    /// Tags an object allocated on behalf of an enclosing `new` site.
    fn trace_construct_tag(&mut self, obj: ObjId) {
        if let Some(site) = self.trace_new_site {
            self.trace_tag(obj, TraceAbs::Alloc(site));
        }
    }

    /// Records the call event for the innermost in-flight `new` site.
    fn trace_construct_event(
        &mut self,
        callee_func: Option<FuncId>,
        args: &[Value],
        proto: Option<TraceAbs>,
    ) {
        let Some(site) = self.trace_new_site else {
            return;
        };
        if self.trace.is_none() || !self.trace_point(site) {
            return;
        }
        let args_abs = args.iter().map(|a| self.trace_abs(a)).collect();
        self.trace_call_event(TraceCall {
            site,
            callee: callee_func,
            this: None,
            args: args_abs,
            is_new: true,
            proto,
        });
    }

    fn trace_ret(&mut self, func: FuncId, value: &Value) {
        if !self.opts.trace.as_ref().is_some_and(|c| c.has_func(func)) {
            return;
        }
        let Some(abs) = self.trace_abs(value) else {
            return;
        };
        if !self.trace_room() {
            return;
        }
        let t = self.trace.as_mut().expect("room implies state");
        if t.seen_rets.insert((func, abs)) {
            t.out.rets.push((func, abs));
        }
    }

    // ---------------------------------------------------------- execution

    /// Runs the entry script to completion.
    ///
    /// # Errors
    ///
    /// Uncaught exceptions, step-limit exhaustion, or illegal completions.
    pub fn run(&mut self) -> Result<(), RunError> {
        let entry = self.prog.entry().expect("program has an entry");
        let f = self.prog.func_rc(entry);
        debug_assert_eq!(f.kind, FuncKind::Script);
        // Script declarations go to the global object.
        for &v in &f.decls.vars {
            if self.get_raw_s(self.global, v).is_none() {
                self.declare(None, v, Value::Undefined);
            }
        }
        for &(name, fid) in &f.decls.funcs {
            let clos = self.make_closure(fid, None);
            self.declare(None, name, Value::Object(clos));
        }
        let mut frame = Frame {
            func: entry,
            scope: None,
            activation: None,
            temps: vec![Value::Undefined; f.n_temps as usize],
            this_val: Value::Object(self.global),
            ctx: CtxId::ROOT,
            occurrences: vec![0; self.prog.stmt_count_of(entry) as usize],
        };
        match self.exec_block(&mut frame, &f.body)? {
            Flow::Normal => Ok(()),
            _ => Err(RunError::IllegalCompletion),
        }
    }

    /// Creates a closure object over `env` with its fresh `.prototype`.
    pub fn make_closure(&mut self, func: FuncId, env: Option<ScopeId>) -> ObjId {
        self.mark_captured(env);
        let clos = self.alloc(ObjClass::Function { func, env }, Some(self.protos.function));
        let proto = self.alloc(ObjClass::Plain, Some(self.protos.object));
        self.trace_tag(proto, TraceAbs::ProtoOf(func));
        self.set_raw_s(proto, Sym::CONSTRUCTOR, Value::Object(clos));
        self.set_raw_s(clos, Sym::PROTOTYPE, Value::Object(proto));
        let f = self.prog.func(func);
        let nparams = f.params.len() as f64;
        let name = f.name;
        self.set_raw_s(clos, Sym::LENGTH, Value::Num(nparams));
        if let Some(n) = name {
            let text = self.prog.interner.name(n).clone();
            self.set_raw_s(clos, Sym::NAME, Value::Str(text));
        }
        clos
    }

    fn exec_block(&mut self, frame: &mut Frame, block: &Block) -> Result<Flow, RunError> {
        for stmt in block {
            match self.exec_stmt(frame, stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, frame: &mut Frame, stmt: &Stmt) -> Result<Flow, RunError> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(RunError::StepLimit);
        }
        if self.steps.is_multiple_of(self.opts.poll_interval.max(1)) {
            if let Some(c) = &self.opts.cancel {
                if c.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err(RunError::Cancelled);
                }
            }
            if let Some(dl) = self.deadline {
                if std::time::Instant::now() >= dl {
                    return Err(RunError::Deadline);
                }
            }
        }
        let id = stmt.id;
        match &stmt.kind {
            StmtKind::Const { dst, lit } => {
                let v = lit_value(lit);
                self.define(frame, id, dst, v)?;
            }
            StmtKind::Copy { dst, src } => {
                let v = self.read_place(frame, src)?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::Closure { dst, func } => {
                let env = frame.scope;
                let clos = self.make_closure(*func, env);
                self.define(frame, id, dst, Value::Object(clos))?;
            }
            StmtKind::NewObject { dst, is_array } => {
                let o = if *is_array {
                    let a = self.alloc(ObjClass::Array, Some(self.protos.array));
                    self.set_raw(a, "length", Value::Num(0.0));
                    a
                } else {
                    self.alloc(ObjClass::Plain, Some(self.protos.object))
                };
                self.trace_tag(o, TraceAbs::Alloc(id));
                self.define(frame, id, dst, Value::Object(o))?;
            }
            StmtKind::GetProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let k = self.key_sym(frame, key)?;
                let v = self.get_prop(&o, k)?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::SetProp { obj, key, val } => {
                let o = self.read_place(frame, obj)?;
                let k = self.key_sym(frame, key)?;
                let v = self.read_place(frame, val)?;
                if self.trace.is_some() {
                    self.trace_write(id, &o, k, &v);
                }
                self.set_prop(&o, k, v)?;
            }
            StmtKind::DeleteProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let k = self.key_sym(frame, key)?;
                if let Value::Object(oid) = o {
                    self.obj_mut(oid).props.remove(k);
                }
                self.define(frame, id, dst, Value::Bool(true))?;
            }
            StmtKind::BinOp { dst, op, lhs, rhs } => {
                let a = self.read_place(frame, lhs)?;
                let b = self.read_place(frame, rhs)?;
                let v = coerce::bin_op(*op, &a, &b).map_err(|e| self.coerce_err(e))?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::UnOp { dst, op, src } => {
                let a = self.read_place(frame, src)?;
                let ov = self.typeof_override(&a);
                let v = coerce::un_op(*op, &a, ov).map_err(|e| self.coerce_err(e))?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                let f = self.read_place(frame, callee)?;
                let this = match this_arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => Value::Object(self.global),
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.read_place(frame, a)?);
                }
                let ctx = self.enter_site(frame, id);
                if self.trace.is_some() && self.trace_point(id) {
                    if let Value::Object(fo) = &f {
                        let callee_func = match &self.obj(*fo).class {
                            ObjClass::Function { func, .. } => Some(Some(*func)),
                            ObjClass::Native(_) => Some(None),
                            _ => None,
                        };
                        if let Some(callee_func) = callee_func {
                            let this_abs = if this_arg.is_some() {
                                self.trace_abs(&this)
                            } else {
                                None
                            };
                            let args_abs = argv.iter().map(|a| self.trace_abs(a)).collect();
                            self.trace_call_event(TraceCall {
                                site: id,
                                callee: callee_func,
                                this: this_abs,
                                args: args_abs,
                                is_new: false,
                                proto: None,
                            });
                        }
                    }
                }
                let v = self.call_value(&f, this, &argv, ctx)?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::New { dst, callee, args } => {
                let f = self.read_place(frame, callee)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.read_place(frame, a)?);
                }
                let ctx = self.enter_site(frame, id);
                let saved_site = self.trace_new_site;
                if self.trace.is_some() {
                    self.trace_new_site = Some(id);
                }
                let v = self.construct(&f, &argv, ctx);
                self.trace_new_site = saved_site;
                let v = v?;
                self.define(frame, id, dst, v)?;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.read_place(frame, cond)?;
                let blk = if coerce::to_boolean(&c) {
                    then_blk
                } else {
                    else_blk
                };
                return self.exec_block(frame, blk);
            }
            StmtKind::Loop {
                cond_blk,
                cond,
                body,
                update,
                check_cond_first,
            } => {
                let mut first = true;
                loop {
                    if *check_cond_first || !first {
                        match self.exec_block(frame, cond_blk)? {
                            Flow::Normal => {}
                            other => return Ok(other),
                        }
                        let c = self.read_place(frame, cond)?;
                        if !coerce::to_boolean(&c) {
                            break;
                        }
                    }
                    first = false;
                    match self.exec_block(frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    match self.exec_block(frame, update)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
            }
            StmtKind::Breakable { body } => match self.exec_block(frame, body)? {
                Flow::Normal | Flow::Break => {}
                other => return Ok(other),
            },
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                let mut result = self.exec_block(frame, block);
                if let (Err(RunError::Thrown(exn)), Some((name, handler))) = (&result, catch) {
                    let exn = exn.clone();
                    // The catch variable lives in its own little scope.
                    let saved = frame.scope;
                    let cscope = self.new_scope(saved);
                    self.declare(Some(cscope), *name, exn);
                    frame.scope = Some(cscope);
                    result = self.exec_block(frame, handler);
                    frame.scope = saved;
                }
                if let Some(fin) = finally {
                    let fin_flow = self.exec_block(frame, fin)?;
                    if fin_flow != Flow::Normal {
                        return Ok(fin_flow); // finally overrides
                    }
                }
                return result;
            }
            StmtKind::Return { arg } => {
                let v = match arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => Value::Undefined,
                };
                if self.trace.is_some() {
                    self.trace_ret(frame.func, &v);
                }
                return Ok(Flow::Return(v));
            }
            StmtKind::Break => return Ok(Flow::Break),
            StmtKind::Continue => return Ok(Flow::Continue),
            StmtKind::Throw { arg } => {
                let v = self.read_place(frame, arg)?;
                return Err(RunError::Thrown(v));
            }
            StmtKind::LoadThis { dst } => {
                let v = frame.this_val.clone();
                self.define(frame, id, dst, v)?;
            }
            StmtKind::TypeofName { dst, name } => {
                let v = match self.lookup(frame.scope, *name) {
                    Some(v) => {
                        let ov = self.typeof_override(&v);
                        coerce::un_op(mujs_ir::UnOp::Typeof, &v, ov)
                            .map_err(|e| self.coerce_err(e))?
                    }
                    None => Value::Str(Rc::from("undefined")),
                };
                self.define(frame, id, dst, v)?;
            }
            StmtKind::HasProp { dst, key, obj } => {
                let k = self.read_place(frame, key)?;
                let k = coerce::to_string(&k).map_err(|e| self.coerce_err(e))?;
                let k = self.prog.interner.intern_rc(&k);
                let o = self.read_place(frame, obj)?;
                let Value::Object(oid) = o else {
                    return Err(self.throw_error("TypeError", "'in' requires an object"));
                };
                let has = self.has_prop_chain(oid, k);
                self.define(frame, id, dst, Value::Bool(has))?;
            }
            StmtKind::InstanceOf { dst, val, ctor } => {
                let v = self.read_place(frame, val)?;
                let c = self.read_place(frame, ctor)?;
                let Value::Object(cid) = c else {
                    return Err(self.throw_error("TypeError", "instanceof requires a function"));
                };
                if !self.obj(cid).class.is_callable() {
                    return Err(self.throw_error("TypeError", "instanceof requires a function"));
                }
                let proto = self.get_raw_s(cid, Sym::PROTOTYPE);
                let mut result = false;
                if let (Value::Object(mut o), Some(Value::Object(p))) = (v, proto) {
                    let mut fuel = 10_000;
                    while let Some(next) = self.obj(o).proto {
                        if next == p {
                            result = true;
                            break;
                        }
                        o = next;
                        fuel -= 1;
                        if fuel == 0 {
                            break;
                        }
                    }
                }
                self.define(frame, id, dst, Value::Bool(result))?;
            }
            StmtKind::EnumProps { dst, obj } => {
                let o = self.read_place(frame, obj)?;
                let keys = self.enum_props(&o);
                let arr = self.alloc(ObjClass::Array, Some(self.protos.array));
                self.trace_tag(arr, TraceAbs::Alloc(id));
                self.set_raw_s(arr, Sym::LENGTH, Value::Num(keys.len() as f64));
                for (i, k) in keys.into_iter().enumerate() {
                    let text = self.prog.interner.name(k).clone();
                    let slot = self.prog.interner.intern_index(i);
                    self.set_raw_s(arr, slot, Value::Str(text));
                }
                self.define(frame, id, dst, Value::Object(arr))?;
            }
            StmtKind::Eval { dst, arg } => {
                let a = self.read_place(frame, arg)?;
                let ctx = self.enter_site(frame, id);
                let v = self.eval_direct(frame, &a, ctx)?;
                self.define(frame, id, dst, v)?;
            }
        }
        Ok(Flow::Normal)
    }

    /// Allocates this activation's next occurrence of `site` and interns
    /// the child context.
    fn enter_site(&mut self, frame: &mut Frame, site: StmtId) -> CtxId {
        let local = self.prog.local_of(site) as usize;
        if local >= frame.occurrences.len() {
            // The function grew after this frame was created (possible only
            // through exotic re-entrancy); keep counting correctly.
            frame.occurrences.resize(local + 1, 0);
        }
        let this_occ = frame.occurrences[local];
        frame.occurrences[local] += 1;
        self.ctxs.child(frame.ctx, site, this_occ)
    }

    fn key_sym(&mut self, frame: &Frame, key: &PropKey) -> Result<Sym, RunError> {
        match key {
            PropKey::Static(name) => Ok(*name),
            PropKey::Dynamic(p) => {
                let v = self.read_place_imm(frame, p)?;
                let s = coerce::to_string(&v).map_err(|e| self.coerce_err(e))?;
                Ok(self.prog.interner.intern_rc(&s))
            }
        }
    }

    fn read_place_imm(&mut self, frame: &Frame, place: &Place) -> Result<Value, RunError> {
        match place {
            Place::Temp(TempId(i)) => Ok(frame.temps[*i as usize].clone()),
            Place::Named(name) => match self.lookup(frame.scope, *name) {
                Some(v) => Ok(v),
                None => Err(self.ref_error(*name)),
            },
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => Ok(self.scopes[sid.0 as usize].slots[*slot as usize].clone()),
                None => match self.lookup(frame.scope, *sym) {
                    Some(v) => Ok(v),
                    None => Err(self.ref_error(*sym)),
                },
            },
        }
    }

    fn typeof_override(&self, v: &Value) -> Option<&'static str> {
        match v {
            Value::Object(id) if self.obj(*id).class.is_callable() => Some("function"),
            _ => None,
        }
    }

    fn has_prop_chain(&self, mut obj: ObjId, key: Sym) -> bool {
        let mut fuel = 10_000;
        loop {
            if self.obj(obj).props.contains(key) {
                return true;
            }
            match self.obj(obj).proto {
                Some(p) if fuel > 0 => {
                    obj = p;
                    fuel -= 1;
                }
                _ => return false,
            }
        }
    }

    // ------------------------------------------------------- property ops

    /// Full property read: primitives, DOM interception, prototype chain.
    ///
    /// # Errors
    ///
    /// `TypeError` on `null`/`undefined` bases.
    pub fn get_prop(&mut self, base: &Value, key: Sym) -> Result<Value, RunError> {
        match base {
            Value::Undefined | Value::Null => {
                let key = self.prog.interner.resolve(key).to_owned();
                Err(self.throw_error(
                    "TypeError",
                    &format!("cannot read property '{key}' of {}", base.kind_str()),
                ))
            }
            Value::Str(s) => {
                if key == Sym::LENGTH {
                    return Ok(Value::Num(s.chars().count() as f64));
                }
                if let Ok(idx) = self.prog.interner.resolve(key).parse::<usize>() {
                    return Ok(match s.chars().nth(idx) {
                        Some(c) => Value::Str(Rc::from(c.to_string().as_str())),
                        None => Value::Undefined,
                    });
                }
                Ok(self.proto_lookup(self.protos.string, key))
            }
            Value::Num(_) => Ok(self.proto_lookup(self.protos.number, key)),
            Value::Bool(_) => Ok(self.proto_lookup(self.protos.boolean, key)),
            Value::Object(oid) => {
                if let Some(v) = self.dom_get_hook(*oid, key) {
                    return Ok(v);
                }
                let mut cur = *oid;
                let mut fuel = 10_000;
                loop {
                    if let Some(slot) = self.obj(cur).props.get(key) {
                        return Ok(slot.value.clone());
                    }
                    match self.obj(cur).proto {
                        Some(p) if fuel > 0 => {
                            cur = p;
                            fuel -= 1;
                        }
                        _ => return Ok(Value::Undefined),
                    }
                }
            }
        }
    }

    fn proto_lookup(&self, start: ObjId, key: Sym) -> Value {
        let mut cur = start;
        let mut fuel = 10_000;
        loop {
            if let Some(slot) = self.obj(cur).props.get(key) {
                return slot.value.clone();
            }
            match self.obj(cur).proto {
                Some(p) if fuel > 0 => {
                    cur = p;
                    fuel -= 1;
                }
                _ => return Value::Undefined,
            }
        }
    }

    /// Full property write (array length maintenance, DOM interception).
    ///
    /// # Errors
    ///
    /// `TypeError` on `null`/`undefined` bases. Writes to other primitives
    /// are silently ignored (sloppy-mode JS).
    pub fn set_prop(&mut self, base: &Value, key: Sym, value: Value) -> Result<(), RunError> {
        match base {
            Value::Undefined | Value::Null => {
                let key = self.prog.interner.resolve(key).to_owned();
                Err(self.throw_error(
                    "TypeError",
                    &format!("cannot set property '{key}' of {}", base.kind_str()),
                ))
            }
            Value::Object(oid) => {
                if self.dom_set_hook(*oid, key, &value) {
                    return Ok(());
                }
                let is_array = self.obj(*oid).class == ObjClass::Array;
                if is_array {
                    if key == Sym::LENGTH {
                        self.array_set_length(*oid, &value);
                        return Ok(());
                    }
                    if let Some(idx) = array_index(self.prog.interner.resolve(key)) {
                        let len = match self.get_raw_s(*oid, Sym::LENGTH) {
                            Some(Value::Num(n)) => n,
                            _ => 0.0,
                        };
                        if (idx as f64) >= len {
                            self.set_raw_s(*oid, Sym::LENGTH, Value::Num(idx as f64 + 1.0));
                        }
                    }
                }
                self.obj_mut(*oid)
                    .props
                    .insert(key, Slot { value, ann: () });
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn array_set_length(&mut self, arr: ObjId, value: &Value) {
        let new_len = coerce::to_number(value).unwrap_or(0.0).max(0.0).trunc();
        let old_len = match self.get_raw_s(arr, Sym::LENGTH) {
            Some(Value::Num(n)) => n,
            _ => 0.0,
        };
        if new_len < old_len {
            let doomed: Vec<Sym> = self
                .obj(arr)
                .props
                .keys()
                .filter(|&k| {
                    array_index(self.prog.interner.resolve(k))
                        .is_some_and(|i| (i as f64) >= new_len)
                })
                .collect();
            for k in doomed {
                self.obj_mut(arr).props.remove(k);
            }
        }
        self.set_raw_s(arr, Sym::LENGTH, Value::Num(new_len));
    }

    /// Enumerable keys for `for-in`: own properties (minus hidden ones),
    /// then prototype-chain properties of non-builtin objects.
    pub fn enum_props(&self, base: &Value) -> Vec<Sym> {
        let Value::Object(oid) = base else {
            return Vec::new();
        };
        let mut out: Vec<Sym> = Vec::new();
        let mut seen: FastSet<Sym> = FastSet::default();
        let mut cur = Some(*oid);
        let mut fuel = 10_000;
        while let Some(id) = cur {
            let o = self.obj(id);
            if !o.builtin {
                for k in o.props.keys() {
                    if self.hidden_from_enum(o, k) {
                        continue;
                    }
                    if seen.insert(k) {
                        out.push(k);
                    }
                }
            }
            cur = o.proto;
            fuel -= 1;
            if fuel == 0 {
                break;
            }
        }
        out
    }

    fn hidden_from_enum(&self, o: &Object<()>, key: Sym) -> bool {
        match &o.class {
            ObjClass::Array => key == Sym::LENGTH,
            ObjClass::Function { .. } | ObjClass::Native(_) => {
                key == Sym::PROTOTYPE || key == Sym::LENGTH || key == Sym::NAME
            }
            _ => false,
        }
    }

    // -------------------------------------------------------------- calls

    /// Calls a value. `ctx` is the callee's calling context.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-callables; whatever the body throws.
    pub fn call_value(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
        ctx: CtxId,
    ) -> Result<Value, RunError> {
        let Value::Object(fid) = callee else {
            return Err(self.throw_error("TypeError", "value is not a function"));
        };
        match self.obj(*fid).class.clone() {
            ObjClass::Function { func, env } => {
                self.call_function(func, env, Some(*fid), this, args, ctx)
            }
            ObjClass::Native(nid) => {
                let f = self.natives[nid.0 as usize].1;
                f(self, this, args)
            }
            _ => Err(self.throw_error("TypeError", "value is not a function")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn call_function(
        &mut self,
        func: FuncId,
        env: Option<ScopeId>,
        self_obj: Option<ObjId>,
        this: Value,
        args: &[Value],
        ctx: CtxId,
    ) -> Result<Value, RunError> {
        let f = self.prog.func_rc(func);
        let scope = self.new_activation(func, env);
        for (i, &p) in f.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Undefined);
            self.declare(Some(scope), p, v);
        }
        // `arguments` array.
        let args_arr = self.alloc(ObjClass::Array, Some(self.protos.array));
        self.set_raw_s(args_arr, Sym::LENGTH, Value::Num(args.len() as f64));
        for (i, v) in args.iter().enumerate() {
            let slot = self.prog.interner.intern_index(i);
            self.set_raw_s(args_arr, slot, v.clone());
        }
        self.declare(Some(scope), Sym::ARGUMENTS, Value::Object(args_arr));
        // Static locals are pre-initialized to `undefined` by the slot
        // layout; only names outside it (e.g. specializer-added after
        // layout) still need declaring.
        for &v in &f.decls.vars {
            if self.slot_of(scope, v).is_none()
                && !self.scopes[scope.0 as usize].ext.contains_key(&v)
            {
                self.declare(Some(scope), v, Value::Undefined);
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, Some(scope));
            self.declare(Some(scope), name, Value::Object(clos));
        }
        if f.bind_self {
            if let (Some(name), Some(clos)) = (f.name, self_obj) {
                // The self-binding loses to any like-named declaration.
                let shadowed = name == Sym::ARGUMENTS
                    || f.params.contains(&name)
                    || f.decls.vars.contains(&name)
                    || f.decls.funcs.iter().any(|&(n, _)| n == name);
                if !shadowed {
                    self.declare(Some(scope), name, Value::Object(clos));
                }
            }
        }
        let mut frame = Frame {
            func,
            scope: Some(scope),
            activation: Some(scope),
            temps: vec![Value::Undefined; f.n_temps as usize],
            this_val: this,
            ctx,
            occurrences: vec![0; self.prog.stmt_count_of(func) as usize],
        };
        match self.exec_block(&mut frame, &f.body)? {
            Flow::Normal => Ok(Value::Undefined),
            Flow::Return(v) => Ok(v),
            Flow::Break | Flow::Continue => Err(RunError::IllegalCompletion),
        }
    }

    /// `new F(args)`.
    ///
    /// # Errors
    ///
    /// `TypeError` for non-constructables; whatever the body throws.
    pub fn construct(
        &mut self,
        callee: &Value,
        args: &[Value],
        ctx: CtxId,
    ) -> Result<Value, RunError> {
        let Value::Object(fid) = callee else {
            return Err(self.throw_error("TypeError", "value is not a constructor"));
        };
        // Special built-in constructors.
        if Some(*fid) == self.specials.array_ctor {
            let arr = self.alloc(ObjClass::Array, Some(self.protos.array));
            self.trace_construct_tag(arr);
            self.trace_construct_event(None, args, None);
            if args.len() == 1 {
                if let Value::Num(n) = args[0] {
                    self.set_raw(arr, "length", Value::Num(n.trunc()));
                    return Ok(Value::Object(arr));
                }
            }
            self.set_raw(arr, "length", Value::Num(args.len() as f64));
            for (i, v) in args.iter().enumerate() {
                let slot = self.prog.interner.intern_index(i);
                self.set_raw_s(arr, slot, v.clone());
            }
            return Ok(Value::Object(arr));
        }
        if Some(*fid) == self.specials.object_ctor {
            let o = self.alloc(ObjClass::Plain, Some(self.protos.object));
            self.trace_construct_tag(o);
            self.trace_construct_event(None, args, None);
            return Ok(Value::Object(o));
        }
        if Some(*fid) == self.specials.error_ctor {
            let e = self.alloc(ObjClass::Plain, Some(self.protos.error));
            self.trace_construct_tag(e);
            self.trace_construct_event(None, args, None);
            let msg = match args.first() {
                Some(v) => coerce::to_string(v).unwrap_or_else(|_| Rc::from("[object]")),
                None => Rc::from(""),
            };
            self.set_raw(e, "message", Value::Str(msg));
            self.set_raw(e, "name", Value::Str(Rc::from("Error")));
            return Ok(Value::Object(e));
        }
        let class = self.obj(*fid).class.clone();
        match class {
            ObjClass::Function { func, env } => {
                let proto = match self.get_raw(*fid, "prototype") {
                    Some(Value::Object(p)) => p,
                    _ => self.protos.object,
                };
                let this_obj = self.alloc(ObjClass::Plain, Some(proto));
                self.trace_construct_tag(this_obj);
                if self.trace.is_some() {
                    let proto_abs = self.trace_abs_obj(proto);
                    self.trace_construct_event(Some(func), args, Some(proto_abs));
                }
                let r =
                    self.call_function(func, env, Some(*fid), Value::Object(this_obj), args, ctx)?;
                Ok(match r {
                    Value::Object(_) => r,
                    _ => Value::Object(this_obj),
                })
            }
            ObjClass::Native(nid) => {
                // Generic natives used with `new`: call with a fresh object.
                let this_obj = self.alloc(ObjClass::Plain, Some(self.protos.object));
                self.trace_construct_tag(this_obj);
                self.trace_construct_event(None, args, None);
                let f = self.natives[nid.0 as usize].1;
                let r = f(self, Value::Object(this_obj), args)?;
                Ok(match r {
                    Value::Object(_) => r,
                    _ => Value::Object(this_obj),
                })
            }
            _ => Err(self.throw_error("TypeError", "value is not a constructor")),
        }
    }

    // --------------------------------------------------------------- eval

    /// Direct `eval` in the caller's scope. Non-string arguments are
    /// returned unchanged (as in JS).
    fn eval_direct(
        &mut self,
        frame: &mut Frame,
        arg: &Value,
        ctx: CtxId,
    ) -> Result<Value, RunError> {
        let Value::Str(src) = arg else {
            return Ok(arg.clone());
        };
        let parsed = match mujs_syntax::parse(src) {
            Ok(p) => p,
            Err(e) => {
                return Err(self.throw_error("SyntaxError", &e.to_string()));
            }
        };
        let chunk = mujs_ir::lower_chunk(self.prog, &parsed, FuncKind::EvalChunk, Some(frame.func));
        #[cfg(debug_assertions)]
        mujs_analysis::assert_valid(self.prog);
        self.run_eval_chunk(frame, chunk, ctx)
    }

    /// Runs an eval chunk in the caller's scope; used for both direct and
    /// (with a global pseudo-frame) indirect eval.
    pub(crate) fn run_eval_chunk(
        &mut self,
        frame: &mut Frame,
        chunk: FuncId,
        ctx: CtxId,
    ) -> Result<Value, RunError> {
        let f = self.prog.func_rc(chunk);
        // Hoist the chunk's declarations into the caller's scope.
        for &v in &f.decls.vars {
            if self.lookup(frame.scope, v).is_none() {
                self.declare(frame.scope, v, Value::Undefined);
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, frame.scope);
            self.assign(frame.scope, name, Value::Object(clos));
        }
        let mut eframe = Frame {
            func: chunk,
            scope: frame.scope,
            activation: frame.activation,
            temps: vec![Value::Undefined; f.n_temps as usize],
            this_val: frame.this_val.clone(),
            ctx,
            occurrences: vec![0; self.prog.stmt_count_of(chunk) as usize],
        };
        match self.exec_block(&mut eframe, &f.body)? {
            Flow::Normal => Ok(eframe.temps.first().cloned().unwrap_or(Value::Undefined)),
            _ => Err(RunError::IllegalCompletion),
        }
    }

    /// Calls a closure object as an event handler or test hook, from the
    /// root context.
    pub fn call_closure_by_id(
        &mut self,
        clos: ObjId,
        this: Value,
        args: &[Value],
    ) -> Result<Value, RunError> {
        self.call_value(&Value::Object(clos), this, args, CtxId::ROOT)
    }

    /// Renders a value for `console.log`/`alert` capture.
    pub fn display(&self, v: &Value) -> String {
        match v {
            Value::Str(s) => s.to_string(),
            Value::Object(id) => match &self.obj(*id).class {
                ObjClass::Array => {
                    let len = match self.obj(*id).props.get(Sym::LENGTH) {
                        Some(Slot {
                            value: Value::Num(n),
                            ..
                        }) => *n as usize,
                        _ => 0,
                    };
                    let items: Vec<String> = (0..len.min(100))
                        .map(|i| {
                            self.prog
                                .interner
                                .get(&i.to_string())
                                .and_then(|k| self.obj(*id).props.get(k))
                                .map(|s| self.display(&s.value))
                                .unwrap_or_default()
                        })
                        .collect();
                    items.join(",")
                }
                c if c.is_callable() => "function".to_owned(),
                _ => "[object Object]".to_owned(),
            },
            other => coerce::to_string(other)
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "[object]".to_owned()),
        }
    }
}

/// Converts an AST literal to a runtime value.
pub fn lit_value(lit: &Lit) -> Value {
    match lit {
        Lit::Num(n) => Value::Num(*n),
        Lit::Str(s) => Value::Str(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Null => Value::Null,
        Lit::Undefined => Value::Undefined,
    }
}

/// Whether `key` is a canonical array index.
pub fn array_index(key: &str) -> Option<u32> {
    if key.is_empty() || (key.len() > 1 && key.starts_with('0')) {
        return None;
    }
    key.parse::<u32>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_filters_are_exact_across_word_boundaries() {
        let mut c = TraceConfig::new(8);
        for i in [0, 63, 64, 200] {
            c.add_point(StmtId(i));
        }
        c.add_func(FuncId(65));
        for i in 0..300 {
            assert_eq!(c.has_point(StmtId(i)), [0, 63, 64, 200].contains(&i), "{i}");
            assert_eq!(c.has_func(FuncId(i)), i == 65, "{i}");
        }
        assert!(!TraceConfig::default().has_point(StmtId(0)));
    }
}
