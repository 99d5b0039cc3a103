//! Statement execution of the instrumented semantics — the rules of
//! Figure 9 extended to the full muJS subset, including the merge-point
//! treatment of unstructured control flow (§4).

use crate::config::AnalysisStatus;
use crate::det::{DValue, Det};
use crate::facts::{FactKind, TripFact};
use crate::machine::{DErr, DFlow, DFrame, DMachine, DObservation};
use mujs_interp::coerce::{self, CoerceError};
use mujs_interp::context::CtxId;
use mujs_interp::machine::lit_value;
use mujs_interp::{ObjClass, ObjId, ScopeId, Value};
use mujs_ir::hash::FastSet;
use mujs_ir::ir::{FuncKind, Place, PropKey, StmtKind};
use mujs_ir::{FuncId, Stmt, StmtId, Sym, TempId};
use std::rc::Rc;

impl DMachine<'_> {
    /// Runs the entry script; returns how the analysis ended.
    pub fn run(&mut self) -> AnalysisStatus {
        match self.run_script() {
            Ok(()) => AnalysisStatus::Completed,
            Err(e) => Self::status_of(e),
        }
    }

    pub(crate) fn status_of(e: DErr) -> AnalysisStatus {
        match e {
            DErr::Thrown(..) => AnalysisStatus::UncaughtException,
            DErr::Stop(s) => s,
            // A counterfactual abort can only escape if the machine has a
            // bug; surface it loudly in debug builds.
            DErr::CfAbort => {
                debug_assert!(false, "CfAbort escaped its counterfactual");
                AnalysisStatus::Completed
            }
        }
    }

    pub(crate) fn run_script(&mut self) -> Result<(), DErr> {
        let entry = self.prog.entry().expect("program has an entry");
        let f = self.prog.func_rc(entry);
        for &v in &f.decls.vars {
            if self.get_raw_s(self.global, v).is_none() {
                self.write_prop_s(self.global, v, DValue::undef());
            }
        }
        for &(name, fid) in &f.decls.funcs {
            let clos = self.make_closure(fid, None);
            self.write_prop_s(self.global, name, DValue::det(Value::Object(clos)));
        }
        let mut frame = self.fresh_frame(
            entry,
            None,
            None,
            DValue::det(Value::Object(self.global)),
            CtxId::ROOT,
            f.n_temps,
        );
        match self.exec_block(&mut frame, &f.body)? {
            DFlow::Normal => Ok(()),
            _ => Err(DErr::Stop(AnalysisStatus::UncaughtException)),
        }
    }

    pub(crate) fn fresh_frame(
        &mut self,
        func: FuncId,
        scope: Option<ScopeId>,
        activation: Option<ScopeId>,
        this_val: DValue,
        ctx: CtxId,
        n_temps: u32,
    ) -> DFrame {
        let serial = self.next_frame_serial;
        self.next_frame_serial += 1;
        DFrame {
            func,
            scope,
            activation,
            temps: vec![DValue::undef(); n_temps as usize],
            this_val,
            ctx,
            occurrences: vec![0; self.prog.stmt_count_of(func) as usize],
            serial,
        }
    }

    /// Creates a closure with its `.prototype`, all determinate.
    pub fn make_closure(&mut self, func: FuncId, env: Option<ScopeId>) -> ObjId {
        self.mark_captured(env);
        let clos = self.alloc(
            ObjClass::Function { func, env },
            Some(self.protos.function),
            Det::D,
        );
        let proto = self.alloc(ObjClass::Plain, Some(self.protos.object), Det::D);
        self.write_prop_s(proto, Sym::CONSTRUCTOR, DValue::det(Value::Object(clos)));
        self.write_prop_s(clos, Sym::PROTOTYPE, DValue::det(Value::Object(proto)));
        let f = self.prog.func(func);
        let nparams = f.params.len() as f64;
        let name = f.name;
        self.write_prop_s(clos, Sym::LENGTH, DValue::det(Value::Num(nparams)));
        if let Some(n) = name {
            let text = self.prog.interner.name(n).clone();
            self.write_prop_s(clos, Sym::NAME, DValue::det(Value::Str(text)));
        }
        clos
    }

    // ------------------------------------------------------------- places

    fn ref_error(&mut self, name: Sym) -> DErr {
        let name = self.prog.interner.resolve(name).to_owned();
        self.throw_error(
            "ReferenceError",
            &format!("{name} is not defined"),
            // Other executions may have created the global (we only know
            // that if no flush has happened).
            self.is_open(self.global),
        )
    }

    pub(crate) fn read_place(&mut self, frame: &DFrame, place: &Place) -> Result<DValue, DErr> {
        match place {
            Place::Temp(TempId(i)) => Ok(frame.temps[*i as usize].clone()),
            Place::Named(name) => match self.lookup_var(frame.scope, *name) {
                Some(v) => Ok(v),
                None => Err(self.ref_error(*name)),
            },
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => Ok(self.read_slot(sid, *slot, *sym)),
                // Defensive: code running without an activation (shouldn't
                // happen for slot-resolved bodies) falls back to by-name.
                None => match self.lookup_var(frame.scope, *sym) {
                    Some(v) => Ok(v),
                    None => Err(self.ref_error(*sym)),
                },
            },
        }
    }

    pub(crate) fn write_place(&mut self, frame: &mut DFrame, place: &Place, dv: DValue) {
        match place {
            Place::Temp(TempId(i)) => self.write_temp(frame, *i, dv),
            Place::Named(name) => self.assign_var(frame.scope, *name, dv),
            Place::Slot { hops, slot, sym } => match self.hop_scope(frame, *hops) {
                Some(sid) => self.write_slot(sid, *slot, dv),
                None => self.assign_var(frame.scope, *sym, dv),
            },
        }
    }

    fn define(&mut self, frame: &mut DFrame, point: StmtId, dst: &Place, dv: DValue) {
        if self.cfg.collect_facts {
            let class = match &dv.v {
                Value::Object(id) => Some(self.obj(*id).class.clone()),
                _ => None,
            };
            self.facts
                .record_with_class(FactKind::Define, point, frame.ctx, &dv, class.as_ref());
        }
        if self.cfg.record_observations
            && self.cf_depth == 0
            && self.observations.len() < self.cfg.max_observations
        {
            self.observations.push(DObservation {
                point,
                ctx: frame.ctx,
                value: dv.clone(),
            });
        }
        self.write_place(frame, dst, dv);
    }

    fn coerce_err(&mut self, _e: CoerceError, indet: bool) -> DErr {
        self.throw_error("TypeError", "cannot convert object to primitive", indet)
    }

    fn key_of(&mut self, frame: &DFrame, key: &PropKey) -> Result<(Sym, Det), DErr> {
        match key {
            PropKey::Static(name) => Ok((*name, Det::D)),
            PropKey::Dynamic(p) => {
                let kv = self.read_place(frame, p)?;
                let s = coerce::to_string(&kv.v).map_err(|e| self.coerce_err(e, kv.d == Det::I))?;
                Ok((self.prog.interner.intern_rc(&s), kv.d))
            }
        }
    }

    /// Records an occurrence-qualified PropKey fact for dynamic property
    /// accesses (distinct facts per unrolled-loop iteration).
    fn record_key_fact(
        &mut self,
        frame: &mut DFrame,
        point: StmtId,
        key: &PropKey,
        k: Sym,
        kd: Det,
    ) {
        if matches!(key, PropKey::Dynamic(_)) {
            let ctx = self.enter_site(frame, point);
            if self.cfg.collect_facts {
                let dv = DValue {
                    v: Value::Str(self.prog.interner.name(k).clone()),
                    d: kd,
                };
                self.facts.record(FactKind::PropKey, point, ctx, &dv);
            }
        }
    }

    fn enter_site(&mut self, frame: &mut DFrame, site: StmtId) -> CtxId {
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

    // ---------------------------------------------------------- execution

    pub(crate) fn exec_block(&mut self, frame: &mut DFrame, block: &[Stmt]) -> Result<DFlow, DErr> {
        let mut i = 0;
        while i < block.len() {
            let r = self.exec_stmt(frame, &block[i]);
            i += 1;
            match r {
                Ok(DFlow::Normal) => {}
                Ok(flow) => {
                    // An abrupt completion under indeterminate control
                    // skips the suffix in this run only; account for other
                    // executions by running it counterfactually.
                    if flow.indet_ctl() && i < block.len() {
                        self.counterfactual_blocks(frame, &[&block[i..]])?;
                    }
                    return Ok(flow);
                }
                Err(DErr::Thrown(v, true)) => {
                    if i < block.len() {
                        self.counterfactual_blocks(frame, &[&block[i..]])?;
                    }
                    return Err(DErr::Thrown(v, true));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(DFlow::Normal)
    }

    fn exec_stmt(&mut self, frame: &mut DFrame, stmt: &Stmt) -> Result<DFlow, DErr> {
        self.steps += 1;
        if self.steps > self.cfg.max_steps {
            return Err(DErr::Stop(AnalysisStatus::StepLimit));
        }
        if self.steps.is_multiple_of(self.cfg.poll_interval.max(1)) {
            self.poll_budgets()?;
        }
        // Under fault injection, poll every statement so injected faults
        // surface at a deterministic point regardless of poll_interval.
        #[cfg(feature = "fault-inject")]
        if self.faults.is_some() {
            self.poll_budgets()?;
        }
        if self.cf_depth > 0 {
            self.cf_steps += 1;
            if self.cf_steps > self.cfg.cf_step_budget {
                return Err(DErr::CfAbort);
            }
        }
        let id = stmt.id;
        match &stmt.kind {
            StmtKind::Const { dst, lit } => {
                self.define(frame, id, dst, DValue::det(lit_value(lit)));
            }
            StmtKind::Copy { dst, src } => {
                let v = self.read_place(frame, src)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::Closure { dst, func } => {
                let clos = self.make_closure(*func, frame.scope);
                self.define(frame, id, dst, DValue::det(Value::Object(clos)));
            }
            StmtKind::NewObject { dst, is_array } => {
                let o = if *is_array {
                    let a = self.alloc(ObjClass::Array, Some(self.protos.array), Det::D);
                    self.write_prop_s(a, Sym::LENGTH, DValue::det(Value::Num(0.0)));
                    a
                } else {
                    self.alloc(ObjClass::Plain, Some(self.protos.object), Det::D)
                };
                self.define(frame, id, dst, DValue::det(Value::Object(o)));
            }
            StmtKind::GetProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.key_of(frame, key)?;
                self.record_key_fact(frame, id, key, k, kd);
                let v = self.get_prop_d(&o, k, kd)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::SetProp { obj, key, val } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.key_of(frame, key)?;
                self.record_key_fact(frame, id, key, k, kd);
                let v = self.read_place(frame, val)?;
                self.set_prop_d(&o, k, kd, v)?;
            }
            StmtKind::DeleteProp { dst, obj, key } => {
                let o = self.read_place(frame, obj)?;
                let (k, kd) = self.key_of(frame, key)?;
                self.record_key_fact(frame, id, key, k, kd);
                if let Value::Object(oid) = o.v {
                    self.delete_prop_s(oid, k);
                    if kd == Det::I {
                        self.open_record(oid);
                    }
                    if o.d == Det::I {
                        self.flush_heap()?;
                    }
                }
                self.define(
                    frame,
                    id,
                    dst,
                    DValue {
                        v: Value::Bool(true),
                        d: o.d.join(kd),
                    },
                );
            }
            StmtKind::BinOp { dst, op, lhs, rhs } => {
                let a = self.read_place(frame, lhs)?;
                let b = self.read_place(frame, rhs)?;
                let d = a.d.join(b.d);
                let v =
                    coerce::bin_op(*op, &a.v, &b.v).map_err(|e| self.coerce_err(e, d == Det::I))?;
                self.define(frame, id, dst, DValue { v, d });
            }
            StmtKind::UnOp { dst, op, src } => {
                let a = self.read_place(frame, src)?;
                let ov = self.typeof_override(&a.v);
                let v =
                    coerce::un_op(*op, &a.v, ov).map_err(|e| self.coerce_err(e, a.d == Det::I))?;
                self.define(frame, id, dst, DValue { v, d: a.d });
            }
            StmtKind::Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                let f = self.read_place(frame, callee)?;
                if self.cfg.collect_facts {
                    let class = match &f.v {
                        Value::Object(o) => Some(self.obj(*o).class.clone()),
                        _ => None,
                    };
                    self.facts.record_with_class(
                        FactKind::Callee,
                        id,
                        frame.ctx,
                        &f,
                        class.as_ref(),
                    );
                }
                let this = match this_arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => DValue::det(Value::Object(self.global)),
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.read_place(frame, a)?);
                }
                let ctx = self.enter_site(frame, id);
                let v = self.call_value_d(&f, this, &argv, ctx)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::New { dst, callee, args } => {
                let f = self.read_place(frame, callee)?;
                if self.cfg.collect_facts {
                    let class = match &f.v {
                        Value::Object(o) => Some(self.obj(*o).class.clone()),
                        _ => None,
                    };
                    self.facts.record_with_class(
                        FactKind::Callee,
                        id,
                        frame.ctx,
                        &f,
                        class.as_ref(),
                    );
                }
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.read_place(frame, a)?);
                }
                let ctx = self.enter_site(frame, id);
                let v = self.construct_d(&f, &argv, ctx)?;
                self.define(frame, id, dst, v);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => return self.exec_if(frame, stmt.id, cond, then_blk, else_blk),
            StmtKind::Loop {
                cond_blk,
                cond,
                body,
                update,
                check_cond_first,
            } => {
                return self.exec_loop(
                    frame,
                    stmt.id,
                    cond_blk,
                    cond,
                    body,
                    update,
                    *check_cond_first,
                )
            }
            StmtKind::Breakable { body } => {
                return Ok(match self.exec_block(frame, body)? {
                    DFlow::Normal | DFlow::Break(_) => DFlow::Normal,
                    other => other,
                });
            }
            StmtKind::Try {
                block,
                catch,
                finally,
            } => return self.exec_try(frame, block, catch, finally),
            StmtKind::Return { arg } => {
                let v = match arg {
                    Some(p) => self.read_place(frame, p)?,
                    None => DValue::undef(),
                };
                return Ok(DFlow::Return(v, false));
            }
            StmtKind::Break => return Ok(DFlow::Break(false)),
            StmtKind::Continue => return Ok(DFlow::Continue(false)),
            StmtKind::Throw { arg } => {
                let v = self.read_place(frame, arg)?;
                return Err(DErr::Thrown(v, false));
            }
            StmtKind::LoadThis { dst } => {
                let v = frame.this_val.clone();
                self.define(frame, id, dst, v);
            }
            StmtKind::TypeofName { dst, name } => {
                let v = match self.lookup_var(frame.scope, *name) {
                    Some(dv) => {
                        let ov = self.typeof_override(&dv.v);
                        let v = coerce::un_op(mujs_ir::UnOp::Typeof, &dv.v, ov)
                            .map_err(|e| self.coerce_err(e, dv.d == Det::I))?;
                        DValue { v, d: dv.d }
                    }
                    None => DValue {
                        v: Value::Str(Rc::from("undefined")),
                        d: if self.is_open(self.global) {
                            Det::I
                        } else {
                            Det::D
                        },
                    },
                };
                self.define(frame, id, dst, v);
            }
            StmtKind::HasProp { dst, key, obj } => {
                let kv = self.read_place(frame, key)?;
                let k = coerce::to_string(&kv.v).map_err(|e| self.coerce_err(e, kv.d == Det::I))?;
                let k = self.prog.interner.intern_rc(&k);
                let o = self.read_place(frame, obj)?;
                let Value::Object(oid) = o.v else {
                    return Err(self.throw_error(
                        "TypeError",
                        "'in' requires an object",
                        o.d == Det::I,
                    ));
                };
                let (has, presence_det) = self.has_prop_d(oid, k);
                self.define(
                    frame,
                    id,
                    dst,
                    DValue {
                        v: Value::Bool(has),
                        d: o.d.join(kv.d).join(presence_det),
                    },
                );
            }
            StmtKind::InstanceOf { dst, val, ctor } => {
                let v = self.read_place(frame, val)?;
                let c = self.read_place(frame, ctor)?;
                let Value::Object(cid) = c.v else {
                    return Err(self.throw_error(
                        "TypeError",
                        "instanceof requires a function",
                        c.d == Det::I,
                    ));
                };
                if !self.obj(cid).class.is_callable() {
                    return Err(self.throw_error(
                        "TypeError",
                        "instanceof requires a function",
                        c.d == Det::I,
                    ));
                }
                let proto = self.own_prop_s(cid, Sym::PROTOTYPE);
                let mut d = v.d.join(c.d).join(proto.d);
                let mut result = false;
                if let (Value::Object(mut o), Value::Object(p)) = (v.v, proto.v) {
                    let mut fuel = 10_000;
                    while let Some(next) = self.obj(o).proto {
                        d = d.join(self.proto_det(o));
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
                self.define(
                    frame,
                    id,
                    dst,
                    DValue {
                        v: Value::Bool(result),
                        d,
                    },
                );
            }
            StmtKind::EnumProps { dst, obj } => {
                let o = self.read_place(frame, obj)?;
                let (keys, kd) = self.enum_props_d(&o);
                let arr = self.alloc(ObjClass::Array, Some(self.protos.array), Det::D);
                self.write_prop_s(
                    arr,
                    Sym::LENGTH,
                    DValue {
                        v: Value::Num(keys.len() as f64),
                        d: kd,
                    },
                );
                for (i, k) in keys.into_iter().enumerate() {
                    let text = self.prog.interner.name(k).clone();
                    let slot = self.prog.interner.intern_index(i);
                    self.write_prop_s(
                        arr,
                        slot,
                        DValue {
                            v: Value::Str(text),
                            d: kd,
                        },
                    );
                }
                self.define(
                    frame,
                    id,
                    dst,
                    DValue {
                        v: Value::Object(arr),
                        d: o.d,
                    },
                );
            }
            StmtKind::Eval { dst, arg } => {
                let a = self.read_place(frame, arg)?;
                let ctx = self.enter_site(frame, id);
                // Occurrence-qualified, so per-iteration facts in unrolled
                // loops stay distinct (the paper's `24₀` notation).
                if self.cfg.collect_facts {
                    self.facts.record(FactKind::EvalArg, id, ctx, &a);
                }
                let v = self.eval_direct_d(frame, &a, ctx)?;
                self.define(frame, id, dst, v);
            }
        }
        Ok(DFlow::Normal)
    }

    // ------------------------------------------------------- conditionals

    /// The Figure 9 conditional rules, generalized to two-armed ifs by the
    /// desugaring `if(c) A else B ≡ if(c) A; if(!c) B`:
    /// determinate guard ⇒ plain execution of the taken branch; an
    /// indeterminate guard executes the taken branch under a write log
    /// (ÎF1, marking after the merge) and the untaken branch
    /// counterfactually (ĈNTR).
    fn exec_if(
        &mut self,
        frame: &mut DFrame,
        id: StmtId,
        cond: &Place,
        then_blk: &[Stmt],
        else_blk: &[Stmt],
    ) -> Result<DFlow, DErr> {
        let cv = self.read_place(frame, cond)?;
        if self.cfg.collect_facts {
            let bv = DValue {
                v: Value::Bool(coerce::to_boolean(&cv.v)),
                d: cv.d,
            };
            self.facts.record(FactKind::Cond, id, frame.ctx, &bv);
        }
        let taken_then = coerce::to_boolean(&cv.v);
        let (taken, untaken) = if taken_then {
            (then_blk, else_blk)
        } else {
            (else_blk, then_blk)
        };
        if cv.d == Det::D {
            return self.exec_block(frame, taken);
        }
        self.push_log(false);
        let r = self.exec_block(frame, taken);
        self.pop_log_mark(frame);
        match &r {
            Ok(_) | Err(DErr::Thrown(..)) => {
                self.counterfactual_blocks(frame, &[untaken])?;
            }
            Err(DErr::CfAbort) | Err(DErr::Stop(_)) => {}
        }
        match r {
            Ok(flow) => Ok(flow.taint()),
            Err(DErr::Thrown(v, _)) => Err(DErr::Thrown(v, true)),
            e => e,
        }
    }

    /// Loops: per-iteration ÎF1 logging once any guard has been
    /// indeterminate; a final ĈNTR of the body when exiting on an
    /// indeterminate-false guard (the paper's WHILE-as-IF desugaring);
    /// trip-count facts for the specializer's unrolling.
    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &mut self,
        frame: &mut DFrame,
        id: StmtId,
        cond_blk: &[Stmt],
        cond: &Place,
        body: &[Stmt],
        update: &[Stmt],
        check_cond_first: bool,
    ) -> Result<DFlow, DErr> {
        let mut tainted = false;
        let mut all_det = true;
        let mut trips: u32 = 0;
        let mut first = true;
        loop {
            self.push_log(false);
            let step = self.loop_iteration(
                frame,
                cond_blk,
                cond,
                body,
                update,
                check_cond_first,
                &mut first,
                &mut all_det,
                &mut tainted,
                &mut trips,
            );
            if tainted {
                self.pop_log_mark(frame);
            } else {
                // No indeterminate guard so far: the iteration ran in
                // every execution; keep the writes as-is.
                let region = self.logs.pop().expect("iteration log");
                if let Some(parent) = self.logs.last_mut() {
                    parent.entries.extend(region.entries);
                }
            }
            match step {
                Ok(LoopStep::Next) => continue,
                Ok(LoopStep::Exit) => {
                    if self.cfg.collect_facts {
                        self.facts.record_trip(
                            id,
                            frame.ctx,
                            if all_det {
                                TripFact::Exact(trips)
                            } else {
                                TripFact::Unknown
                            },
                        );
                    }
                    return Ok(DFlow::Normal);
                }
                Ok(LoopStep::Propagate(flow)) => {
                    if flow.indet_ctl() {
                        // Other executions may keep iterating.
                        self.cntr_abort(frame, &[cond_blk, body, update])?;
                    }
                    if self.cfg.collect_facts {
                        self.facts.record_trip(id, frame.ctx, TripFact::Unknown);
                    }
                    return Ok(flow);
                }
                Err(DErr::Thrown(v, true)) => {
                    self.cntr_abort(frame, &[cond_blk, body, update])?;
                    return Err(DErr::Thrown(v, true));
                }
                Err(e) => return Err(e),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn loop_iteration(
        &mut self,
        frame: &mut DFrame,
        cond_blk: &[Stmt],
        cond: &Place,
        body: &[Stmt],
        update: &[Stmt],
        check_cond_first: bool,
        first: &mut bool,
        all_det: &mut bool,
        tainted: &mut bool,
        trips: &mut u32,
    ) -> Result<LoopStep, DErr> {
        if check_cond_first || !*first {
            match self.exec_block(frame, cond_blk)? {
                DFlow::Normal => {}
                flow => return Ok(LoopStep::Propagate(flow)),
            }
            let cv = self.read_place(frame, cond)?;
            if cv.d == Det::I {
                *all_det = false;
                *tainted = true;
            }
            if !coerce::to_boolean(&cv.v) {
                if cv.d == Det::I {
                    // Rule ĈNTR on the iteration that other executions may
                    // still perform.
                    self.counterfactual_blocks(frame, &[body, update])?;
                }
                return Ok(LoopStep::Exit);
            }
        }
        *first = false;
        match self.exec_block(frame, body)? {
            DFlow::Normal => {}
            DFlow::Continue(ic) => {
                if ic {
                    self.cntr_abort(frame, &[cond_blk, body, update])?;
                    *all_det = false;
                    *tainted = true;
                }
            }
            DFlow::Break(ic) => {
                if ic {
                    self.cntr_abort(frame, &[cond_blk, body, update])?;
                }
                // A break-exit leaves a partial iteration behind: `trips`
                // counts completed iterations only, so an Exact fact would
                // let the unroller drop the partial iteration's effects.
                *all_det = false;
                return Ok(LoopStep::Exit);
            }
            flow @ DFlow::Return(..) => return Ok(LoopStep::Propagate(flow)),
        }
        match self.exec_block(frame, update)? {
            DFlow::Normal => {}
            flow => return Ok(LoopStep::Propagate(flow)),
        }
        *trips += 1;
        Ok(LoopStep::Next)
    }

    fn exec_try(
        &mut self,
        frame: &mut DFrame,
        block: &[Stmt],
        catch: &Option<(Sym, Vec<Stmt>)>,
        finally: &Option<Vec<Stmt>>,
    ) -> Result<DFlow, DErr> {
        let mut result = self.exec_block(frame, block);
        if let (Err(DErr::Thrown(exn, ic)), Some((name, handler))) = (&result, catch) {
            let exn = exn.clone();
            let ic = *ic;
            let saved = frame.scope;
            let cscope = self.new_scope(saved, frame.func);
            let bound = if ic {
                DValue::indet(exn.v.clone())
            } else {
                exn.clone()
            };
            self.declare(Some(cscope), *name, bound);
            frame.scope = Some(cscope);
            // Other executions may not throw and thus skip the handler, so
            // under an indeterminate throw the handler is a ÎF1 region.
            if ic {
                self.push_log(false);
            }
            let hr = self.exec_block(frame, handler);
            if ic {
                self.pop_log_mark(frame);
            }
            frame.scope = saved;
            result = match hr {
                Ok(flow) => Ok(if ic { flow.taint() } else { flow }),
                Err(DErr::Thrown(v, ic2)) => Err(DErr::Thrown(v, ic2 || ic)),
                Err(e) => Err(e),
            };
        }
        if let Some(fin) = finally {
            match self.exec_block(frame, fin)? {
                DFlow::Normal => {}
                flow => return Ok(flow), // finally overrides
            }
        }
        result
    }

    // ----------------------------------------------------- counterfactual

    /// Runs `blocks` counterfactually (rule ĈNTR): execute under an undo
    /// log, roll back, and mark every written location indeterminate.
    /// Aborts (ĈNTRABORT) beyond depth `k`, on exceptions, on abrupt
    /// completions, on natives with unknown effects, or when the
    /// counterfactual step budget runs out.
    pub(crate) fn counterfactual_blocks(
        &mut self,
        frame: &mut DFrame,
        blocks: &[&[Stmt]],
    ) -> Result<(), DErr> {
        if blocks.iter().all(|b| b.is_empty()) {
            return Ok(());
        }
        if !self.cfg.counterfactual || self.cf_depth >= self.cfg.cf_depth_k {
            return self.cntr_abort(frame, blocks);
        }
        // Injected ĈNTRABORT storm: every counterfactual takes the
        // abort-and-undo path, exercising log restoration under load.
        #[cfg(feature = "fault-inject")]
        if self.faults.as_ref().is_some_and(|f| f.plan.cf_abort_storm) {
            return self.cntr_abort(frame, blocks);
        }
        self.stats.counterfactuals += 1;
        let occ_snapshot = frame.occurrences.clone();
        // The RNG stream and clock are machine state too: hypothetical
        // execution must not consume them, or the real execution would
        // diverge from the concrete semantics on the same seed.
        let rng_snapshot = self.rng.clone();
        let now_snapshot = self.now;
        if self.cf_depth == 0 {
            self.cf_steps = 0;
        }
        self.cf_depth += 1;
        self.push_log(true);
        let mut outcome: Result<(), DErr> = Ok(());
        for b in blocks {
            match self.exec_block(frame, b) {
                Ok(DFlow::Normal) => {}
                // Abrupt hypothetical control: we cannot follow the
                // hypothetical continuation, so abort conservatively.
                Ok(_) => {
                    outcome = Err(DErr::CfAbort);
                    break;
                }
                Err(DErr::Thrown(..)) | Err(DErr::CfAbort) => {
                    outcome = Err(DErr::CfAbort);
                    break;
                }
                Err(e @ DErr::Stop(_)) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.cf_depth -= 1;
        frame.occurrences = occ_snapshot;
        self.rng = rng_snapshot;
        self.now = now_snapshot;
        self.pop_log_undo_mark(frame);
        match outcome {
            Ok(()) => Ok(()),
            Err(DErr::Stop(s)) => Err(DErr::Stop(s)),
            Err(_) => self.cntr_abort(frame, blocks),
        }
    }

    // ------------------------------------------------------ property ops

    /// Rule L̂D generalized to prototype chains, primitives and the DOM.
    pub fn get_prop_d(&mut self, base: &DValue, key: Sym, kd: Det) -> Result<DValue, DErr> {
        let base_d = base.d.join(kd);
        match &base.v {
            Value::Undefined | Value::Null => {
                let kname = self.prog.interner.resolve(key).to_owned();
                Err(self.throw_error(
                    "TypeError",
                    &format!("cannot read property '{kname}' of {}", base.v.kind_str()),
                    base.d == Det::I,
                ))
            }
            Value::Str(s) => {
                if key == Sym::LENGTH {
                    return Ok(DValue {
                        v: Value::Num(s.chars().count() as f64),
                        d: base_d,
                    });
                }
                if let Ok(idx) = self.prog.interner.resolve(key).parse::<usize>() {
                    let v = match s.chars().nth(idx) {
                        Some(c) => Value::Str(Rc::from(c.to_string().as_str())),
                        None => Value::Undefined,
                    };
                    return Ok(DValue { v, d: base_d });
                }
                Ok(self.chain_lookup(self.protos.string, key, base_d))
            }
            Value::Num(_) => Ok(self.chain_lookup(self.protos.number, key, base_d)),
            Value::Bool(_) => Ok(self.chain_lookup(self.protos.boolean, key, base_d)),
            Value::Object(oid) => {
                if let Some(v) = self.dom_get_hook(*oid, key) {
                    return Ok(v.weaken(base_d));
                }
                Ok(self.chain_lookup(*oid, key, base_d))
            }
        }
    }

    fn chain_lookup(&self, start: ObjId, key: Sym, mut d: Det) -> DValue {
        let mut cur = start;
        let mut fuel = 10_000;
        loop {
            if self.has_own_s(cur, key) {
                let s = self.own_prop_s(cur, key);
                return s.weaken(d);
            }
            // An open record may have a shadowing own property in other
            // executions.
            if self.is_open(cur) {
                d = Det::I;
            }
            match self.obj(cur).proto {
                Some(p) if fuel > 0 => {
                    d = d.join(self.proto_det(cur));
                    cur = p;
                    fuel -= 1;
                }
                _ => {
                    return DValue {
                        v: Value::Undefined,
                        d,
                    }
                }
            }
        }
    }

    /// Rule ŜTO generalized: write, open the record on an indeterminate
    /// name, flush the heap on an indeterminate base.
    pub fn set_prop_d(
        &mut self,
        base: &DValue,
        key: Sym,
        kd: Det,
        val: DValue,
    ) -> Result<(), DErr> {
        match &base.v {
            Value::Undefined | Value::Null => {
                let kname = self.prog.interner.resolve(key).to_owned();
                Err(self.throw_error(
                    "TypeError",
                    &format!("cannot set property '{kname}' of {}", base.v.kind_str()),
                    base.d == Det::I,
                ))
            }
            Value::Object(oid) => {
                let oid = *oid;
                if self.dom_set_hook(oid, key, &val) {
                    if base.d == Det::I {
                        self.flush_heap()?;
                    }
                    return Ok(());
                }
                let is_array = self.obj(oid).class == ObjClass::Array;
                if is_array {
                    if key == Sym::LENGTH {
                        self.array_set_length_d(oid, &val);
                    } else {
                        let idx =
                            mujs_interp::machine::array_index(self.prog.interner.resolve(key));
                        if let Some(idx) = idx {
                            let len = self.own_prop_s(oid, Sym::LENGTH);
                            let cur = match len.v {
                                Value::Num(n) => n,
                                _ => 0.0,
                            };
                            if (idx as f64) >= cur {
                                self.write_prop_s(
                                    oid,
                                    Sym::LENGTH,
                                    DValue {
                                        v: Value::Num(idx as f64 + 1.0),
                                        d: len.d.join(kd).join(val.d).join(base.d),
                                    },
                                );
                            }
                        }
                        self.write_prop_s(oid, key, val);
                    }
                } else {
                    self.write_prop_s(oid, key, val);
                }
                if kd == Det::I {
                    self.open_record(oid);
                }
                if base.d == Det::I {
                    self.flush_heap()?;
                }
                Ok(())
            }
            _ => Ok(()), // writes to primitives are ignored
        }
    }

    fn array_set_length_d(&mut self, arr: ObjId, value: &DValue) {
        let new_len = coerce::to_number(&value.v).unwrap_or(0.0).max(0.0).trunc();
        let old_len = match self.own_prop_s(arr, Sym::LENGTH).v {
            Value::Num(n) => n,
            _ => 0.0,
        };
        if new_len < old_len {
            let doomed: Vec<Sym> = self
                .obj(arr)
                .props
                .keys()
                .filter(|&k| {
                    mujs_interp::machine::array_index(self.prog.interner.resolve(k))
                        .is_some_and(|i| (i as f64) >= new_len)
                })
                .collect();
            for k in doomed {
                self.delete_prop_s(arr, k);
            }
        }
        self.write_prop_s(
            arr,
            Sym::LENGTH,
            DValue {
                v: Value::Num(new_len),
                d: value.d,
            },
        );
    }

    fn has_prop_d(&self, mut obj: ObjId, key: Sym) -> (bool, Det) {
        let mut d = Det::D;
        let mut fuel = 10_000;
        loop {
            if self.has_own_s(obj, key) {
                let s = self.own_prop_s(obj, key);
                return (true, d.join(s.d));
            }
            if self.is_open(obj) {
                d = Det::I;
            }
            match self.obj(obj).proto {
                Some(p) if fuel > 0 => {
                    d = d.join(self.proto_det(obj));
                    obj = p;
                    fuel -= 1;
                }
                _ => return (false, d),
            }
        }
    }

    /// Enumerable keys and the determinacy of the key *set* — determinate
    /// only when every record on the chain is closed ("if the set of
    /// properties to iterate over is determinate, our analysis assumes
    /// that the iteration order is also determinate", §5.2).
    pub fn enum_props_d(&self, base: &DValue) -> (Vec<Sym>, Det) {
        let Value::Object(oid) = &base.v else {
            return (Vec::new(), base.d);
        };
        let mut d = base.d;
        let mut out: Vec<Sym> = Vec::new();
        let mut seen: FastSet<Sym> = FastSet::default();
        let mut cur = Some(*oid);
        let mut fuel = 10_000;
        while let Some(id) = cur {
            let o = self.obj(id);
            if !o.builtin {
                if self.is_open(id) {
                    d = Det::I;
                }
                for k in o.props.keys() {
                    if self.hidden_from_enum(id, k) {
                        continue;
                    }
                    if seen.insert(k) {
                        out.push(k);
                    }
                }
            }
            d = d.join(self.proto_det(id));
            cur = o.proto;
            fuel -= 1;
            if fuel == 0 {
                break;
            }
        }
        (out, d)
    }

    fn hidden_from_enum(&self, o: ObjId, key: Sym) -> bool {
        match &self.obj(o).class {
            ObjClass::Array => key == Sym::LENGTH,
            ObjClass::Function { .. } | ObjClass::Native(_) => {
                matches!(key, Sym::PROTOTYPE | Sym::LENGTH | Sym::NAME)
            }
            _ => false,
        }
    }

    pub(crate) fn typeof_override(&self, v: &Value) -> Option<&'static str> {
        match v {
            Value::Object(id) if self.obj(*id).class.is_callable() => Some("function"),
            _ => None,
        }
    }

    // -------------------------------------------------------------- calls

    /// Rule ÎNV: call; an indeterminate callee flushes the heap afterwards
    /// and yields an indeterminate result.
    pub fn call_value_d(
        &mut self,
        callee: &DValue,
        this: DValue,
        args: &[DValue],
        ctx: CtxId,
    ) -> Result<DValue, DErr> {
        let Value::Object(fid) = &callee.v else {
            return Err(self.throw_error(
                "TypeError",
                "value is not a function",
                callee.d == Det::I,
            ));
        };
        let r = match self.obj(*fid).class.clone() {
            ObjClass::Function { func, env } => {
                self.call_function_d(func, env, Some(*fid), this, args, ctx)
            }
            ObjClass::Native(nid) => self.call_native(nid, this, args),
            _ => Err(self.throw_error("TypeError", "value is not a function", callee.d == Det::I)),
        };
        match r {
            Ok(v) => {
                if callee.d == Det::I {
                    self.flush_heap()?;
                    Ok(v.weaken(Det::I))
                } else {
                    Ok(v)
                }
            }
            Err(DErr::Thrown(v, ic)) => Err(DErr::Thrown(v, ic || callee.d == Det::I)),
            e => e,
        }
    }

    /// Dispatches one native call — the single funnel for every native
    /// model invocation, and therefore the injection point for native
    /// faults under the `fault-inject` feature.
    pub(crate) fn call_native(
        &mut self,
        nid: mujs_interp::NativeId,
        this: DValue,
        args: &[DValue],
    ) -> Result<DValue, DErr> {
        #[cfg(feature = "fault-inject")]
        if let Some(fs) = self.faults.as_mut() {
            fs.native_calls += 1;
            let n = fs.native_calls;
            if fs.plan.native_panic_at == Some(n) {
                panic!("injected native fault: panic at native call #{n}");
            }
            if fs.plan.native_error_at == Some(n) {
                return Err(self.throw_error("Error", "injected native failure", false));
            }
        }
        let f = self.natives[nid.0 as usize].1;
        f(self, this, args)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn call_function_d(
        &mut self,
        func: FuncId,
        env: Option<ScopeId>,
        self_obj: Option<ObjId>,
        this: DValue,
        args: &[DValue],
        ctx: CtxId,
    ) -> Result<DValue, DErr> {
        let f = self.prog.func_rc(func);
        let scope = self.new_activation(func, env);
        for (i, &p) in f.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(DValue::undef());
            self.declare(Some(scope), p, v);
        }
        let args_arr = self.alloc(ObjClass::Array, Some(self.protos.array), Det::D);
        self.write_prop_s(
            args_arr,
            Sym::LENGTH,
            DValue::det(Value::Num(args.len() as f64)),
        );
        for (i, v) in args.iter().enumerate() {
            let slot = self.prog.interner.intern_index(i);
            self.write_prop_s(args_arr, slot, v.clone());
        }
        self.declare(
            Some(scope),
            Sym::ARGUMENTS,
            DValue::det(Value::Object(args_arr)),
        );
        // Static locals are pre-initialized to determinate `undefined` by
        // the activation's slot layout; only names outside it (e.g.
        // specializer-added after layout) still need declaring.
        for &v in &f.decls.vars {
            if self.prog.func(func).local_slot(v).is_none()
                && !self.scopes[scope.0 as usize].ext.contains_key(&v)
            {
                self.declare(Some(scope), v, DValue::undef());
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, Some(scope));
            self.declare(Some(scope), name, DValue::det(Value::Object(clos)));
        }
        if f.bind_self {
            if let (Some(name), Some(clos)) = (f.name, self_obj) {
                // The self-binding loses to any like-named declaration.
                let shadowed = name == Sym::ARGUMENTS
                    || f.params.contains(&name)
                    || f.decls.vars.contains(&name)
                    || f.decls.funcs.iter().any(|&(n, _)| n == name);
                if !shadowed {
                    self.declare(Some(scope), name, DValue::det(Value::Object(clos)));
                }
            }
        }
        let mut frame = self.fresh_frame(func, Some(scope), Some(scope), this, ctx, f.n_temps);
        match self.exec_block(&mut frame, &f.body)? {
            DFlow::Normal => Ok(DValue::undef()),
            DFlow::Return(v, ic) => Ok(if ic { v.weaken(Det::I) } else { v }),
            DFlow::Break(_) | DFlow::Continue(_) => {
                Err(DErr::Stop(AnalysisStatus::UncaughtException))
            }
        }
    }

    /// `new F(...)` with the determinacy of the prototype slot threaded
    /// into the created object.
    pub fn construct_d(
        &mut self,
        callee: &DValue,
        args: &[DValue],
        ctx: CtxId,
    ) -> Result<DValue, DErr> {
        let Value::Object(fid) = &callee.v else {
            return Err(self.throw_error(
                "TypeError",
                "value is not a constructor",
                callee.d == Det::I,
            ));
        };
        let fid = *fid;
        let finish = |m: &mut Self, v: Result<DValue, DErr>| match v {
            Ok(v) => {
                if callee.d == Det::I {
                    m.flush_heap()?;
                    Ok(v.weaken(Det::I))
                } else {
                    Ok(v)
                }
            }
            Err(DErr::Thrown(t, ic)) => Err(DErr::Thrown(t, ic || callee.d == Det::I)),
            e => e,
        };
        if Some(fid) == self.specials.array_ctor {
            let r = crate::natives::array_ctor_model(self, args);
            return finish(self, r);
        }
        if Some(fid) == self.specials.object_ctor {
            let o = self.alloc(ObjClass::Plain, Some(self.protos.object), Det::D);
            return finish(self, Ok(DValue::det(Value::Object(o))));
        }
        if Some(fid) == self.specials.error_ctor {
            let r = crate::natives::error_new_model(self, args);
            return finish(self, r);
        }
        let class = self.obj(fid).class.clone();
        let r = match class {
            ObjClass::Function { func, env } => {
                let proto_slot = self.own_prop_s(fid, Sym::PROTOTYPE);
                let (proto, pd) = match proto_slot.v {
                    Value::Object(p) => (p, proto_slot.d),
                    _ => (self.protos.object, proto_slot.d),
                };
                let this_obj = self.alloc(ObjClass::Plain, Some(proto), pd);
                let r = self.call_function_d(
                    func,
                    env,
                    Some(fid),
                    DValue::det(Value::Object(this_obj)),
                    args,
                    ctx,
                )?;
                Ok(match r.v {
                    Value::Object(_) => r,
                    _ => DValue {
                        v: Value::Object(this_obj),
                        d: r.d.join(Det::D),
                    },
                })
            }
            ObjClass::Native(nid) => {
                let this_obj = self.alloc(ObjClass::Plain, Some(self.protos.object), Det::D);
                let r = self.call_native(nid, DValue::det(Value::Object(this_obj)), args)?;
                Ok(match r.v {
                    Value::Object(_) => r,
                    _ => DValue::det(Value::Object(this_obj)),
                })
            }
            _ => Err(self.throw_error(
                "TypeError",
                "value is not a constructor",
                callee.d == Det::I,
            )),
        };
        finish(self, r)
    }

    // --------------------------------------------------------------- eval

    /// Direct `eval` (§4: "calls to eval are instrumented to recursively
    /// instrument any code loaded at runtime, flushing the heap if the
    /// code is not determinate").
    fn eval_direct_d(
        &mut self,
        frame: &mut DFrame,
        arg: &DValue,
        ctx: CtxId,
    ) -> Result<DValue, DErr> {
        let Value::Str(src) = &arg.v else {
            return Ok(arg.clone());
        };
        if arg.d == Det::I {
            self.flush_heap()?;
        }
        let parsed = match mujs_syntax::parse(src) {
            Ok(p) => p,
            Err(e) => {
                let ic = arg.d == Det::I;
                return Err(self.throw_error("SyntaxError", &e.to_string(), ic));
            }
        };
        let chunk = mujs_ir::lower_chunk(self.prog, &parsed, FuncKind::EvalChunk, Some(frame.func));
        #[cfg(debug_assertions)]
        mujs_analysis::assert_valid(self.prog);
        self.refresh_closure_writes();
        let r = self.run_eval_chunk(frame, chunk, ctx)?;
        Ok(r.weaken(arg.d))
    }

    /// Runs an eval chunk in the caller's scope (shared by direct and
    /// indirect eval).
    pub(crate) fn run_eval_chunk(
        &mut self,
        frame: &mut DFrame,
        chunk: FuncId,
        ctx: CtxId,
    ) -> Result<DValue, DErr> {
        let f = self.prog.func_rc(chunk);
        for &v in &f.decls.vars {
            if self.lookup_var(frame.scope, v).is_none() {
                self.declare_logged(frame.scope, v, DValue::undef());
            }
        }
        for &(name, nested) in &f.decls.funcs {
            let clos = self.make_closure(nested, frame.scope);
            self.assign_var(frame.scope, name, DValue::det(Value::Object(clos)));
        }
        let mut eframe = self.fresh_frame(
            chunk,
            frame.scope,
            frame.activation,
            frame.this_val.clone(),
            ctx,
            f.n_temps,
        );
        match self.exec_block(&mut eframe, &f.body)? {
            DFlow::Normal => Ok(eframe.temps.first().cloned().unwrap_or(DValue::undef())),
            _ => Err(DErr::Stop(AnalysisStatus::UncaughtException)),
        }
    }

    /// Declares a binding with undo logging (eval hoisting can occur inside
    /// conditional/counterfactual regions). The name is unbound — it just
    /// failed a full lookup, which also covers every static slot — so the
    /// binding always lands in the scope's ext map (or on the global).
    fn declare_logged(&mut self, scope: Option<ScopeId>, name: Sym, dv: DValue) {
        match scope {
            Some(sid) => {
                let ann = crate::det::SlotAnn {
                    det: dv.d,
                    epoch: self.epoch,
                };
                let old = self.scopes[sid.0 as usize].ext.insert(name, (dv.v, ann));
                if let Some(top) = self.logs.last_mut() {
                    top.entries.push(crate::machine::LogEntry::Var {
                        scope: sid,
                        key: crate::machine::VarKey::Ext(name),
                        old,
                    });
                }
            }
            None => self.write_prop_s(self.global, name, dv),
        }
    }

    /// Calls a closure from the root context (event dispatch, tests).
    pub fn call_closure_by_id(
        &mut self,
        clos: ObjId,
        this: DValue,
        args: &[DValue],
    ) -> Result<DValue, DErr> {
        self.call_value_d(&DValue::det(Value::Object(clos)), this, args, CtxId::ROOT)
    }
}

enum LoopStep {
    Next,
    Exit,
    Propagate(DFlow),
}
