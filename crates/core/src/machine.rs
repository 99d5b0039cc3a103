//! State and plumbing of the instrumented machine: the annotated heap and
//! scopes, the epoch-counter heap flush (§4), write logs for the
//! conditional rules (Figure 9), and counterfactual rollback.
//!
//! Statement execution lives in [`crate::exec`]; native models in
//! [`crate::natives`] and [`crate::dom_models`].

use crate::config::{AnalysisConfig, AnalysisStats, AnalysisStatus};
use crate::det::{DValue, Det, SlotAnn};
use crate::facts::FactDb;
use crate::supervisor::{CancelToken, RunHooks};
use mujs_dom::document::Document;
use mujs_dom::events::EventRegistry;
use mujs_interp::context::{ContextTable, CtxId};
use mujs_interp::machine::Protos;
use mujs_interp::{ObjClass, ObjId, Object, ScopeId, Slot, Value};
use mujs_ir::hash::FastMap;
use mujs_ir::{FuncId, Program, StmtId, Sym};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Epoch sentinel for slots installed by the standard library setup: they
/// stay determinate across flushes (documented assumption: unanalyzed code
/// does not overwrite built-ins; user overwrites replace the sentinel with
/// a normal epoch and are tracked precisely).
pub const BUILTIN_EPOCH: u64 = u64::MAX;

/// Byte budget for one [`DMachine::display`] rendering. Real corpus output
/// is far below it; the cap only kicks in for pathological arrays, where
/// the old eager rendering built (and often discarded) up to 100 cloned
/// item strings per nesting level.
const DISPLAY_BYTE_CAP: usize = 1 << 16;

/// Abrupt, non-[`DFlow`] outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum DErr {
    /// A JavaScript exception; the flag records whether the throw is
    /// control-dependent on indeterminate data (other executions may not
    /// throw).
    Thrown(DValue, bool),
    /// Abort the innermost counterfactual execution (native with unknown
    /// effects, exception, or budget exhaustion inside a counterfactual).
    CfAbort,
    /// Stop the whole analysis (step limit / flush cap).
    Stop(AnalysisStatus),
}

/// Statement completions.
#[derive(Debug, Clone, PartialEq)]
pub enum DFlow {
    /// Fall through.
    Normal,
    /// `break`; the flag is the indeterminate-control marker.
    Break(bool),
    /// `continue`; the flag is the indeterminate-control marker.
    Continue(bool),
    /// `return v`; the flag is the indeterminate-control marker.
    Return(DValue, bool),
}

impl DFlow {
    /// The indeterminate-control marker of an abrupt completion.
    pub fn indet_ctl(&self) -> bool {
        match self {
            DFlow::Normal => false,
            DFlow::Break(b) | DFlow::Continue(b) | DFlow::Return(_, b) => *b,
        }
    }

    /// The same completion with the marker forced on.
    #[must_use]
    pub fn taint(self) -> DFlow {
        match self {
            DFlow::Normal => DFlow::Normal,
            DFlow::Break(_) => DFlow::Break(true),
            DFlow::Continue(_) => DFlow::Continue(true),
            DFlow::Return(v, _) => DFlow::Return(v, true),
        }
    }
}

/// A scope with annotated bindings: slot-addressed locals for function
/// activations plus by-name overflow (`ext`) for catch bindings and
/// anything `eval` hoists outside the static layout. A name lives in at
/// most one of the two.
#[derive(Debug, Clone)]
pub struct DScope {
    /// The function whose activation this scope belongs to (for the
    /// closure-written flush policy; catch scopes inherit their frame's).
    pub(crate) owner: FuncId,
    /// Whether this is a function activation carrying the static slot
    /// layout of `owner` (catch scopes are ext-only).
    pub(crate) activation: bool,
    /// Locals indexed by the owner's [`mujs_ir::Function::locals`] layout.
    pub(crate) slots: Vec<(Value, SlotAnn)>,
    /// Bindings outside the static layout.
    pub(crate) ext: FastMap<Sym, (Value, SlotAnn)>,
    pub(crate) parent: Option<ScopeId>,
    /// Nearest enclosing activation (catch scopes are transparent to slot
    /// addressing).
    pub(crate) fn_parent: Option<ScopeId>,
    /// Captured scopes can be written by callees (closures), so heap
    /// flushes must invalidate them; never-captured scopes are immune —
    /// the paper's "local variables cannot possibly be written by any
    /// called function".
    pub(crate) captured: bool,
}

/// An activation record of the instrumented machine.
#[derive(Debug)]
pub struct DFrame {
    /// The executing function.
    pub func: FuncId,
    /// Scope for named lookups (`None` ⇒ global object).
    pub scope: Option<ScopeId>,
    /// The frame's own activation scope — the fixed base of slot
    /// addressing while `scope` moves through catch scopes.
    pub activation: Option<ScopeId>,
    /// Temporaries with flags.
    pub temps: Vec<DValue>,
    /// The `this` binding.
    pub this_val: DValue,
    /// This activation's calling context.
    pub ctx: CtxId,
    /// Per-site occurrence counters (must match the concrete machine's),
    /// indexed by the statement's dense per-function index.
    pub occurrences: Vec<u32>,
    /// Unique id for temp-write logging across frame lifetimes.
    pub serial: u64,
}

/// Per-object analysis state kept outside the shared [`Object`] struct.
#[derive(Debug, Clone, Copy)]
pub struct ObjExtra {
    /// Epoch at creation; a record created before the last flush is open.
    pub created_epoch: u64,
    /// Set by stores with indeterminate property names (rule ŜTO) and by
    /// deletions under indeterminate control.
    pub forced_open: bool,
    /// Determinacy of the prototype link (from the `F.prototype` slot the
    /// object was constructed with).
    pub proto_det: Det,
}

/// Where a scope binding lives: a static local slot or an ext entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKey {
    /// Index into the activation's slot vector.
    Slot(u32),
    /// A by-name overflow binding.
    Ext(Sym),
}

/// One undoable/markable mutation.
#[derive(Debug)]
pub enum LogEntry {
    /// A property write or delete; `old == None` means the property did
    /// not exist before.
    Prop {
        /// Receiver.
        obj: ObjId,
        /// Key.
        key: Sym,
        /// Previous slot.
        old: Option<(Value, SlotAnn)>,
    },
    /// A variable write.
    Var {
        /// Owning scope.
        scope: ScopeId,
        /// Where in the scope the binding lives.
        key: VarKey,
        /// Previous binding (a variable write never creates a binding —
        /// declaration handles that — but eval hoisting can).
        old: Option<(Value, SlotAnn)>,
    },
    /// A temp write in some activation.
    Temp {
        /// The activation's serial.
        frame: u64,
        /// Temp index.
        idx: u32,
        /// Previous value.
        old: DValue,
    },
    /// A record's open flag transition.
    Opened {
        /// The record.
        obj: ObjId,
        /// Previous flag.
        was: bool,
    },
}

/// A write-log region (one per active Figure 9 conditional rule).
#[derive(Debug, Default)]
pub struct LogFrame {
    pub(crate) entries: Vec<LogEntry>,
}

/// Instrumented observation for the soundness harness.
#[derive(Debug, Clone, PartialEq)]
pub struct DObservation {
    /// Program point.
    pub point: StmtId,
    /// Calling context.
    pub ctx: CtxId,
    /// Observed annotated value.
    pub value: DValue,
}

/// Native model signature.
pub type DNativeFn = fn(&mut DMachine<'_>, DValue, &[DValue]) -> Result<DValue, DErr>;

/// Well-known constructor objects.
#[derive(Debug, Clone, Copy, Default)]
pub struct DSpecials {
    pub(crate) array_ctor: Option<ObjId>,
    pub(crate) error_ctor: Option<ObjId>,
    pub(crate) object_ctor: Option<ObjId>,
    pub(crate) eval_fn: Option<ObjId>,
}

/// The instrumented determinacy machine.
pub struct DMachine<'p> {
    /// The program (mutable: `eval` appends chunks).
    pub prog: &'p mut Program,
    pub(crate) heap: Vec<Object<SlotAnn>>,
    pub(crate) extras: Vec<ObjExtra>,
    pub(crate) scopes: Vec<DScope>,
    pub(crate) global: ObjId,
    /// Built-in prototype objects.
    pub protos: Protos,
    pub(crate) specials: DSpecials,
    pub(crate) natives: Vec<(&'static str, DNativeFn)>,
    /// The emulated document, if installed.
    pub doc: Option<Document>,
    /// Registered event handlers.
    pub events: EventRegistry<ObjId>,
    pub(crate) dom_nodes: FastMap<mujs_dom::document::NodeId, ObjId>,
    pub(crate) dom_document_obj: Option<ObjId>,
    pub(crate) dom_element_proto: Option<ObjId>,
    pub(crate) rng: StdRng,
    pub(crate) now: f64,
    /// The global epoch counter; incrementing it is the O(1) heap flush.
    pub(crate) epoch: u64,
    pub(crate) steps: u64,
    pub(crate) cf_depth: u32,
    pub(crate) cf_steps: u64,
    pub(crate) next_frame_serial: u64,
    pub(crate) logs: Vec<LogFrame>,
    pub(crate) closure_writes: mujs_ir::closure_writes::ClosureWrites,
    pub(crate) cw_funcs_len: usize,
    /// Analysis configuration.
    pub cfg: AnalysisConfig,
    /// Run statistics (flush counts feed Table 1).
    pub stats: AnalysisStats,
    /// Captured output.
    pub output: Vec<String>,
    /// Interned contexts.
    pub ctxs: ContextTable,
    /// The fact database.
    pub facts: FactDb,
    /// Observations for the soundness harness (real execution only, no
    /// counterfactual hits).
    pub observations: Vec<DObservation>,
    pub(crate) setup_mode: bool,
    /// Wall-clock point after which the run stops with
    /// [`AnalysisStatus::Deadline`], from `cfg.deadline_ms` (measured from
    /// machine construction, so stdlib setup counts toward the budget).
    pub(crate) deadline: Option<std::time::Instant>,
    /// External cancellation, polled at statement boundaries.
    pub(crate) cancel: Option<CancelToken>,
    /// Live statement counter shared with the supervisor; written at every
    /// poll so it stays meaningful even if the machine later panics.
    pub(crate) progress: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    /// Cumulative heap cells allocated: objects plus newly created
    /// property slots. Monotone (slot deletes and counterfactual undos do
    /// not decrement), so `cfg.mem_cell_budget` bounds total allocation
    /// work rather than instantaneous residency — which is what keeps a
    /// runaway allocation loop from exhausting the host.
    pub(crate) cells_allocated: u64,
    /// Fault-injection state (testing only).
    #[cfg(feature = "fault-inject")]
    pub(crate) faults: Option<crate::supervisor::FaultState>,
    /// Set by the injected allocation fault; the next poll reports
    /// [`AnalysisStatus::MemLimit`].
    #[cfg(feature = "fault-inject")]
    pub(crate) forced_memfail: bool,
}

impl<'p> DMachine<'p> {
    /// Creates a machine and installs the standard-library models.
    pub fn new(prog: &'p mut Program, cfg: AnalysisConfig) -> Self {
        let mut heap = Vec::new();
        let mut extras = Vec::new();
        let mut alloc = |class: ObjClass, proto: Option<ObjId>| {
            let id = ObjId(heap.len() as u32);
            heap.push(Object::new(class, proto));
            extras.push(ObjExtra {
                created_epoch: BUILTIN_EPOCH,
                forced_open: false,
                proto_det: Det::D,
            });
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
        let max_facts = cfg.max_facts;
        let deadline = cfg
            .deadline_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let mut m = DMachine {
            prog,
            heap,
            extras,
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
            specials: DSpecials::default(),
            natives: Vec::new(),
            doc: None,
            events: EventRegistry::new(),
            dom_nodes: FastMap::default(),
            dom_document_obj: None,
            dom_element_proto: None,
            rng: StdRng::seed_from_u64(cfg.seed),
            now: 1.6e12,
            epoch: 0,
            steps: 0,
            cf_depth: 0,
            cf_steps: 0,
            next_frame_serial: 0,
            logs: Vec::new(),
            closure_writes: mujs_ir::closure_writes::ClosureWrites::default(),
            cw_funcs_len: 0,
            cfg,
            stats: AnalysisStats::default(),
            output: Vec::new(),
            ctxs: ContextTable::new(),
            facts: FactDb::new(max_facts),
            observations: Vec::new(),
            setup_mode: true,
            deadline,
            cancel: None,
            progress: None,
            cells_allocated: 0,
            #[cfg(feature = "fault-inject")]
            faults: None,
            #[cfg(feature = "fault-inject")]
            forced_memfail: false,
        };
        crate::natives::install_models(&mut m);
        m.setup_mode = false;
        m.refresh_closure_writes();
        m
    }

    /// Installs supervision hooks (cancellation, progress, fault plan).
    /// Call before [`DMachine::run`]; the drivers do this automatically.
    pub fn install_hooks(&mut self, hooks: &RunHooks) {
        self.cancel = hooks.cancel.clone();
        self.progress = hooks.progress.clone();
        #[cfg(feature = "fault-inject")]
        {
            self.faults = hooks.faults.clone().map(crate::supervisor::FaultState::new);
        }
    }

    /// Checks the cooperative stop conditions — cancellation, wall-clock
    /// deadline, heap-cell budget — and publishes progress. Called from
    /// the step loop every `cfg.poll_interval` statements; each stop
    /// reason preserves the sound fact prefix exactly like the flush cap.
    pub(crate) fn poll_budgets(&mut self) -> Result<(), DErr> {
        if let Some(p) = &self.progress {
            p.store(self.steps, std::sync::atomic::Ordering::Relaxed);
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(DErr::Stop(AnalysisStatus::Cancelled));
        }
        #[cfg(feature = "fault-inject")]
        let deadline_suppressed = self.faults.as_ref().is_some_and(|f| f.plan.ignore_deadline);
        #[cfg(not(feature = "fault-inject"))]
        let deadline_suppressed = false;
        if let Some(dl) = self.deadline {
            if !deadline_suppressed && std::time::Instant::now() >= dl {
                return Err(DErr::Stop(AnalysisStatus::Deadline));
            }
        }
        let over_budget = self
            .cfg
            .mem_cell_budget
            .is_some_and(|b| self.cells_allocated > b);
        #[cfg(feature = "fault-inject")]
        let over_budget = over_budget || self.forced_memfail;
        if over_budget {
            return Err(DErr::Stop(AnalysisStatus::MemLimit));
        }
        Ok(())
    }

    /// Recomputes the closure-written-variable set; must be called after
    /// `eval` appends new functions to the program.
    pub(crate) fn refresh_closure_writes(&mut self) {
        if self.prog.funcs.len() != self.cw_funcs_len {
            self.closure_writes = mujs_ir::closure_writes::ClosureWrites::compute(self.prog);
            self.cw_funcs_len = self.prog.funcs.len();
        }
    }

    // ---------------------------------------------------------- accessors

    /// The global (`window`) object.
    pub fn global(&self) -> ObjId {
        self.global
    }

    /// Statements executed (including counterfactual ones).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current epoch (number of heap flushes so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether execution is currently counterfactual.
    pub fn in_counterfactual(&self) -> bool {
        self.cf_depth > 0
    }

    /// Borrows an object.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn obj(&self, id: ObjId) -> &Object<SlotAnn> {
        &self.heap[id.0 as usize]
    }

    /// Mutably borrows an object (bypasses logging; analysis internals
    /// only).
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn obj_mut(&mut self, id: ObjId) -> &mut Object<SlotAnn> {
        &mut self.heap[id.0 as usize]
    }

    /// Allocates an object; its record is closed as of the current epoch.
    pub fn alloc(&mut self, class: ObjClass, proto: Option<ObjId>, proto_det: Det) -> ObjId {
        self.cells_allocated += 1;
        #[cfg(feature = "fault-inject")]
        if let Some(fs) = self.faults.as_mut() {
            fs.allocs += 1;
            if fs.plan.alloc_fail_at == Some(fs.allocs) {
                self.forced_memfail = true;
            }
        }
        let id = ObjId(self.heap.len() as u32);
        self.heap.push(Object::new(class, proto));
        self.extras.push(ObjExtra {
            created_epoch: if self.setup_mode {
                BUILTIN_EPOCH
            } else {
                self.epoch
            },
            forced_open: false,
            proto_det,
        });
        id
    }

    /// Whether the record is open (unknown properties may exist in other
    /// executions). Setup-created objects (globals, prototypes) count as
    /// created at epoch 0: their *slots* survive flushes via the sentinel
    /// epoch, but once any flush has happened an unknown callee may have
    /// added properties, so absent-property reads become indeterminate.
    pub fn is_open(&self, id: ObjId) -> bool {
        let e = &self.extras[id.0 as usize];
        let created = if e.created_epoch == BUILTIN_EPOCH {
            0
        } else {
            e.created_epoch
        };
        e.forced_open || created < self.epoch
    }

    /// The determinacy of the object's prototype link.
    pub fn proto_det(&self, id: ObjId) -> Det {
        self.extras[id.0 as usize].proto_det
    }

    /// Draws from the seeded RNG (`Math.random`) — must match the
    /// concrete machine's stream for soundness testing.
    pub fn random(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// `Date.now` tick.
    pub fn now_tick(&mut self) -> f64 {
        self.now += 1.0 + self.rng.gen::<f64>() * 10.0;
        self.now
    }

    // ------------------------------------------------------------ flushes

    /// The heap flush: one epoch increment invalidates every non-builtin
    /// property slot and every captured-scope variable (§4).
    pub fn flush_heap(&mut self) -> Result<(), DErr> {
        self.epoch += 1;
        self.stats.heap_flushes += 1;
        if let Some(cap) = self.cfg.flush_cap {
            if self.stats.heap_flushes > cap {
                return Err(DErr::Stop(AnalysisStatus::FlushCapReached));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- slots

    fn slot_flushable(ann: &SlotAnn) -> bool {
        ann.epoch != BUILTIN_EPOCH
    }

    /// Effective determinacy of a property slot right now.
    pub fn prop_slot_det(&self, ann: &SlotAnn) -> Det {
        ann.effective(self.epoch, Self::slot_flushable(ann))
    }

    /// Reads an own property with its effective determinacy; absent
    /// properties yield `undefined` flagged by the record's openness.
    pub fn own_prop_s(&self, obj: ObjId, key: Sym) -> DValue {
        match self.heap[obj.0 as usize].props.get(key) {
            Some(Slot { value, ann }) => DValue {
                v: value.clone(),
                d: self.prop_slot_det(ann),
            },
            None => {
                if self.is_open(obj) {
                    DValue::indet(Value::Undefined)
                } else {
                    DValue::det(Value::Undefined)
                }
            }
        }
    }

    /// [`DMachine::own_prop_s`] by name. A never-interned name cannot be
    /// an existing key, so it reads as absent.
    pub fn own_prop(&self, obj: ObjId, key: &str) -> DValue {
        match self.prog.interner.get(key) {
            Some(k) => self.own_prop_s(obj, k),
            None => {
                if self.is_open(obj) {
                    DValue::indet(Value::Undefined)
                } else {
                    DValue::det(Value::Undefined)
                }
            }
        }
    }

    /// Whether the object has an own (live) property.
    pub fn has_own_s(&self, obj: ObjId, key: Sym) -> bool {
        self.heap[obj.0 as usize].props.contains(key)
    }

    /// [`DMachine::has_own_s`] by name.
    pub fn has_own(&self, obj: ObjId, key: &str) -> bool {
        self.prog
            .interner
            .get(key)
            .is_some_and(|k| self.has_own_s(obj, k))
    }

    /// Writes a property slot, logging the old state for the active write
    /// regions.
    pub fn write_prop_s(&mut self, obj: ObjId, key: Sym, dv: DValue) {
        let ann = SlotAnn {
            det: dv.d,
            epoch: if self.setup_mode {
                BUILTIN_EPOCH
            } else {
                self.epoch
            },
        };
        let old = self.heap[obj.0 as usize]
            .props
            .insert(key, Slot { value: dv.v, ann })
            .map(|s| (s.value, s.ann));
        if old.is_none() {
            self.cells_allocated += 1;
        }
        if let Some(top) = self.logs.last_mut() {
            top.entries.push(LogEntry::Prop { obj, key, old });
        }
    }

    /// [`DMachine::write_prop_s`] by name, interning the key.
    pub fn write_prop(&mut self, obj: ObjId, key: &str, dv: DValue) {
        let key = self.prog.interner.intern(key);
        self.write_prop_s(obj, key, dv);
    }

    /// Deletes a property, logging it.
    pub fn delete_prop_s(&mut self, obj: ObjId, key: Sym) {
        let old = self.heap[obj.0 as usize]
            .props
            .remove(key)
            .map(|s| (s.value, s.ann));
        if old.is_some() {
            if let Some(top) = self.logs.last_mut() {
                top.entries.push(LogEntry::Prop { obj, key, old });
            }
        }
    }

    /// [`DMachine::delete_prop_s`] by name.
    pub fn delete_prop(&mut self, obj: ObjId, key: &str) {
        if let Some(k) = self.prog.interner.get(key) {
            self.delete_prop_s(obj, k);
        }
    }

    /// Forces a record open (indeterminate-name store, rule ŜTO) and marks
    /// all its properties indeterminate.
    pub fn open_record(&mut self, obj: ObjId) {
        let was = self.extras[obj.0 as usize].forced_open;
        self.extras[obj.0 as usize].forced_open = true;
        if let Some(top) = self.logs.last_mut() {
            top.entries.push(LogEntry::Opened { obj, was });
        }
        // Mark every property indeterminate (these are *marks*, not value
        // writes; counterfactual undo restores the slots wholesale via the
        // Opened + Prop entries of actual writes, so marks need no log).
        for (_, slot) in self.heap[obj.0 as usize].props.iter_mut() {
            slot.ann.det = Det::I;
        }
    }

    // -------------------------------------------------------- scope slots

    /// Creates an ext-only scope (catch blocks).
    pub(crate) fn new_scope(&mut self, parent: Option<ScopeId>, owner: FuncId) -> ScopeId {
        let id = ScopeId(self.scopes.len() as u32);
        let fn_parent = self.nearest_activation(parent);
        self.scopes.push(DScope {
            owner,
            activation: false,
            slots: Vec::new(),
            ext: FastMap::default(),
            parent,
            fn_parent,
            captured: false,
        });
        id
    }

    /// Creates a function activation whose slot vector follows the
    /// function's static `locals` layout, every slot initialized to a
    /// determinate `undefined` at the current epoch — exactly the binding
    /// state a by-name declaration of `undefined` would produce.
    pub(crate) fn new_activation(&mut self, func: FuncId, parent: Option<ScopeId>) -> ScopeId {
        let id = ScopeId(self.scopes.len() as u32);
        let n = self.prog.func(func).locals.len();
        let fn_parent = self.nearest_activation(parent);
        let init = SlotAnn {
            det: Det::D,
            epoch: self.epoch,
        };
        self.scopes.push(DScope {
            owner: func,
            activation: true,
            slots: vec![(Value::Undefined, init); n],
            ext: FastMap::default(),
            parent,
            fn_parent,
            captured: false,
        });
        id
    }

    /// The nearest activation scope at or above `from`.
    fn nearest_activation(&self, from: Option<ScopeId>) -> Option<ScopeId> {
        let mut cur = from;
        while let Some(sid) = cur {
            let s = &self.scopes[sid.0 as usize];
            if s.activation {
                return Some(sid);
            }
            cur = s.parent;
        }
        None
    }

    /// Position of `name` in the scope's static slot layout, if any.
    fn slot_index(&self, sid: ScopeId, name: Sym) -> Option<u32> {
        let s = &self.scopes[sid.0 as usize];
        if !s.activation {
            return None;
        }
        self.prog.func(s.owner).local_slot(name)
    }

    /// The activation scope `hops` function levels above the frame's own.
    pub(crate) fn hop_scope(&self, frame: &DFrame, hops: u32) -> Option<ScopeId> {
        let mut sid = frame.activation?;
        for _ in 0..hops {
            sid = self.scopes[sid.0 as usize].fn_parent?;
        }
        Some(sid)
    }

    pub(crate) fn mark_captured(&mut self, scope: Option<ScopeId>) {
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

    /// The effective determinacy of a scope binding: a flush models an
    /// unknown call, which can only have written this binding if the scope
    /// is captured *and* some closure actually assigns the name (see
    /// `mujs_ir::closure_writes`).
    fn scope_slot_det(&self, sid: ScopeId, name: Sym, ann: &SlotAnn) -> Det {
        let s = &self.scopes[sid.0 as usize];
        let flushable = Self::slot_flushable(ann)
            && s.captured
            && self.closure_writes.is_written(s.owner, name);
        ann.effective(self.epoch, flushable)
    }

    /// Reads a slot-resolved binding (already located; no name walk).
    pub(crate) fn read_slot(&self, sid: ScopeId, idx: u32, sym: Sym) -> DValue {
        let (v, ann) = &self.scopes[sid.0 as usize].slots[idx as usize];
        DValue {
            v: v.clone(),
            d: self.scope_slot_det(sid, sym, ann),
        }
    }

    /// Writes a slot-resolved binding, logging the old state.
    pub(crate) fn write_slot(&mut self, sid: ScopeId, idx: u32, dv: DValue) {
        let ann = SlotAnn {
            det: dv.d,
            epoch: self.epoch,
        };
        let old = std::mem::replace(
            &mut self.scopes[sid.0 as usize].slots[idx as usize],
            (dv.v, ann),
        );
        if let Some(top) = self.logs.last_mut() {
            top.entries.push(LogEntry::Var {
                scope: sid,
                key: VarKey::Slot(idx),
                old: Some(old),
            });
        }
    }

    /// Declares a binding (not logged as a write: declarations happen at
    /// activation entry, outside conditional regions; eval hoisting logs
    /// via [`DMachine::assign_var`]). Reuses the static slot when the name
    /// has one, so a name lives in exactly one place per scope.
    pub(crate) fn declare(&mut self, scope: Option<ScopeId>, name: Sym, dv: DValue) {
        match scope {
            Some(sid) => {
                let ann = SlotAnn {
                    det: dv.d,
                    epoch: self.epoch,
                };
                if let Some(i) = self.slot_index(sid, name) {
                    self.scopes[sid.0 as usize].slots[i as usize] = (dv.v, ann);
                } else {
                    self.scopes[sid.0 as usize].ext.insert(name, (dv.v, ann));
                }
            }
            None => self.write_prop_s(self.global, name, dv),
        }
    }

    /// Reads a variable through the scope chain; `None` if unbound.
    pub(crate) fn lookup_var(&self, scope: Option<ScopeId>, name: Sym) -> Option<DValue> {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_index(sid, name) {
                return Some(self.read_slot(sid, i, name));
            }
            let s = &self.scopes[sid.0 as usize];
            if let Some((v, ann)) = s.ext.get(&name) {
                return Some(DValue {
                    v: v.clone(),
                    d: self.scope_slot_det(sid, name, ann),
                });
            }
            cur = s.parent;
        }
        if self.has_own_s(self.global, name) {
            Some(self.own_prop_s(self.global, name))
        } else {
            None
        }
    }

    /// Assigns a variable through the scope chain (creates a global when
    /// unbound), logging the write.
    pub(crate) fn assign_var(&mut self, scope: Option<ScopeId>, name: Sym, dv: DValue) {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_index(sid, name) {
                self.write_slot(sid, i, dv);
                return;
            }
            if self.scopes[sid.0 as usize].ext.contains_key(&name) {
                let ann = SlotAnn {
                    det: dv.d,
                    epoch: self.epoch,
                };
                let old = self.scopes[sid.0 as usize].ext.insert(name, (dv.v, ann));
                if let Some(top) = self.logs.last_mut() {
                    top.entries.push(LogEntry::Var {
                        scope: sid,
                        key: VarKey::Ext(name),
                        old,
                    });
                }
                return;
            }
            cur = self.scopes[sid.0 as usize].parent;
        }
        self.write_prop_s(self.global, name, dv);
    }

    /// Writes a temp, logging it.
    pub(crate) fn write_temp(&mut self, frame: &mut DFrame, idx: u32, dv: DValue) {
        let old = std::mem::replace(&mut frame.temps[idx as usize], dv);
        if let Some(top) = self.logs.last_mut() {
            top.entries.push(LogEntry::Temp {
                frame: frame.serial,
                idx,
                old,
            });
        }
    }

    // ------------------------------------------------------- log regions

    /// Opens a write-log region.
    pub(crate) fn push_log(&mut self, _counterfactual: bool) {
        self.logs.push(LogFrame {
            entries: Vec::new(),
        });
    }

    /// Closes the current region, marking every written location
    /// indeterminate (rule ÎF1 with `d = ?`), and propagates the entries
    /// to the enclosing region.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub(crate) fn pop_log_mark(&mut self, frame: &mut DFrame) {
        let region = self.logs.pop().expect("log region open");
        for e in &region.entries {
            self.mark_entry(e, frame);
        }
        self.propagate_entries(region.entries);
    }

    /// Closes the current region, undoing every write in reverse order and
    /// marking the (restored) locations indeterminate — rule ĈNTR's
    /// `ρ̂′[vd(t̂) := ρ̂?]` / `ĥ′[pd(t̂) := ĥ?]`.
    ///
    /// # Panics
    ///
    /// Panics if no region is open.
    pub(crate) fn pop_log_undo_mark(&mut self, frame: &mut DFrame) {
        let region = self.logs.pop().expect("log region open");
        for e in region.entries.iter().rev() {
            self.undo_entry(e, frame);
        }
        for e in &region.entries {
            self.mark_entry(e, frame);
        }
        self.propagate_entries(region.entries);
    }

    fn propagate_entries(&mut self, entries: Vec<LogEntry>) {
        if let Some(parent) = self.logs.last_mut() {
            parent.entries.extend(entries);
        }
    }

    /// Marks the location of a log entry indeterminate in the current
    /// state.
    fn mark_entry(&mut self, e: &LogEntry, frame: &mut DFrame) {
        match e {
            LogEntry::Prop { obj, key, .. } => {
                match self.heap[obj.0 as usize].props.get_mut(*key) {
                    Some(slot) => slot.ann.det = Det::I,
                    // The property is now absent (deleted in the region, or
                    // the undo removed it): other executions may have it,
                    // so the record's contents are unknown.
                    None => {
                        self.extras[obj.0 as usize].forced_open = true;
                    }
                }
            }
            LogEntry::Var { scope, key, .. } => {
                let s = &mut self.scopes[scope.0 as usize];
                match key {
                    VarKey::Slot(i) => s.slots[*i as usize].1.det = Det::I,
                    VarKey::Ext(name) => {
                        if let Some((_, ann)) = s.ext.get_mut(name) {
                            ann.det = Det::I;
                        }
                    }
                }
            }
            LogEntry::Temp { frame: fs, idx, .. } => {
                if *fs == frame.serial {
                    frame.temps[*idx as usize].d = Det::I;
                }
            }
            LogEntry::Opened { .. } => {}
        }
    }

    /// Restores the pre-region state for one entry.
    fn undo_entry(&mut self, e: &LogEntry, frame: &mut DFrame) {
        match e {
            LogEntry::Prop { obj, key, old } => match old {
                Some((v, ann)) => {
                    self.heap[obj.0 as usize].props.insert(
                        *key,
                        Slot {
                            value: v.clone(),
                            ann: *ann,
                        },
                    );
                }
                None => {
                    self.heap[obj.0 as usize].props.remove(*key);
                }
            },
            LogEntry::Var { scope, key, old } => {
                let s = &mut self.scopes[scope.0 as usize];
                match (key, old) {
                    (VarKey::Slot(i), Some((v, ann))) => {
                        s.slots[*i as usize] = (v.clone(), *ann);
                    }
                    // A static slot always exists, so its log entries
                    // always carry the previous state.
                    (VarKey::Slot(_), None) => {}
                    (VarKey::Ext(name), Some((v, ann))) => {
                        s.ext.insert(*name, (v.clone(), *ann));
                    }
                    (VarKey::Ext(name), None) => {
                        s.ext.remove(name);
                    }
                }
            }
            LogEntry::Temp {
                frame: fs,
                idx,
                old,
            } => {
                if *fs == frame.serial {
                    frame.temps[*idx as usize] = old.clone();
                }
            }
            LogEntry::Opened { obj, was } => {
                self.extras[obj.0 as usize].forced_open = *was;
            }
        }
    }

    /// The conservative ĈNTRABORT: flush the heap and mark the static
    /// write domain of the unexecuted code indeterminate. With `eval`
    /// inside, the whole visible scope chain is poisoned.
    pub(crate) fn cntr_abort(
        &mut self,
        frame: &mut DFrame,
        blocks: &[&[mujs_ir::Stmt]],
    ) -> Result<(), DErr> {
        self.stats.cf_aborts += 1;
        self.flush_heap()?;
        for block in blocks {
            let wd = mujs_ir::vd::write_domain(block);
            if wd.contains_eval {
                self.mark_scope_chain_indet(frame.scope);
            }
            for place in &wd.places {
                match place {
                    mujs_ir::Place::Temp(t) => {
                        if let Some(slot) = frame.temps.get_mut(t.0 as usize) {
                            slot.d = Det::I;
                        }
                    }
                    // The write domain canonicalizes slot-resolved places
                    // to names, so a scope walk covers both.
                    p => {
                        if let Some(name) = p.as_var_sym() {
                            self.mark_var_indet(frame.scope, name);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn mark_var_indet(&mut self, scope: Option<ScopeId>, name: Sym) {
        let mut cur = scope;
        while let Some(sid) = cur {
            if let Some(i) = self.slot_index(sid, name) {
                self.scopes[sid.0 as usize].slots[i as usize].1.det = Det::I;
                return;
            }
            let s = &mut self.scopes[sid.0 as usize];
            if let Some((_, ann)) = s.ext.get_mut(&name) {
                ann.det = Det::I;
                return;
            }
            cur = s.parent;
        }
        if let Some(slot) = self.heap[self.global.0 as usize].props.get_mut(name) {
            slot.ann.det = Det::I;
        }
    }

    fn mark_scope_chain_indet(&mut self, scope: Option<ScopeId>) {
        let mut cur = scope;
        while let Some(sid) = cur {
            let s = &mut self.scopes[sid.0 as usize];
            for (_, ann) in s.slots.iter_mut() {
                ann.det = Det::I;
            }
            for (_, (_, ann)) in s.ext.iter_mut() {
                ann.det = Det::I;
            }
            cur = s.parent;
        }
    }

    // -------------------------------------------------------- registration

    /// Registers a native model.
    pub fn register_native(&mut self, name: &'static str, f: DNativeFn) -> ObjId {
        let nid = mujs_interp::NativeId(self.natives.len() as u32);
        self.natives.push((name, f));
        let obj = self.alloc(ObjClass::Native(nid), Some(self.protos.function), Det::D);
        self.heap[obj.0 as usize].builtin = true;
        obj
    }

    /// Raw determinate property install (library setup).
    pub fn set_raw(&mut self, obj: ObjId, name: &str, v: Value) {
        self.write_prop(obj, name, DValue::det(v));
    }

    /// Raw own-property read.
    pub fn get_raw(&self, obj: ObjId, name: &str) -> Option<Value> {
        let k = self.prog.interner.get(name)?;
        self.get_raw_s(obj, k)
    }

    /// Raw own-property read by symbol.
    pub fn get_raw_s(&self, obj: ObjId, key: Sym) -> Option<Value> {
        self.heap[obj.0 as usize]
            .props
            .get(key)
            .map(|s| s.value.clone())
    }

    /// Builds and throws a fresh error object. `indet_ctl` says whether
    /// other executions might not throw here.
    pub fn throw_error(&mut self, kind: &str, msg: &str, indet_ctl: bool) -> DErr {
        let e = self.alloc(ObjClass::Plain, Some(self.protos.error), Det::D);
        self.write_prop_s(e, Sym::NAME, DValue::det(Value::Str(Rc::from(kind))));
        self.write_prop_s(e, Sym::MESSAGE, DValue::det(Value::Str(Rc::from(msg))));
        DErr::Thrown(DValue::det(Value::Object(e)), indet_ctl)
    }

    /// Renders a value for output capture (mirrors the concrete machine).
    /// Rendering streams into one buffer instead of materializing a string
    /// per array element, and stops at [`DISPLAY_BYTE_CAP`]; small-array
    /// output (all of the corpus) is byte-identical to the old eager
    /// rendering.
    pub fn display(&self, v: &Value) -> String {
        let mut out = String::new();
        self.display_into(&mut out, v);
        out
    }

    fn display_into(&self, out: &mut String, v: &Value) {
        match v {
            Value::Str(s) => out.push_str(s),
            Value::Object(id) => match &self.obj(*id).class {
                ObjClass::Array => {
                    let len = match self.get_raw_s(*id, Sym::LENGTH) {
                        Some(Value::Num(n)) => n as usize,
                        _ => 0,
                    };
                    for i in 0..len.min(100) {
                        if i > 0 {
                            out.push(',');
                        }
                        if out.len() > DISPLAY_BYTE_CAP {
                            return;
                        }
                        if let Some(item) = self.get_raw(*id, &i.to_string()) {
                            self.display_into(out, &item);
                        }
                    }
                }
                c if c.is_callable() => out.push_str("function"),
                _ => out.push_str("[object Object]"),
            },
            other => match mujs_interp::coerce::to_string(other) {
                Ok(s) => out.push_str(&s),
                Err(_) => out.push_str("[object]"),
            },
        }
    }
}
