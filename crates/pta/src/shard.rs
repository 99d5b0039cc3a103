//! Shard-local state and the per-shard flow kernel of the epoch-sharded
//! parallel solver (`crate::parallel`).
//!
//! The constraint graph is partitioned into [`crate::PtaConfig::shards`]
//! contiguous canonical-node-id ranges (recomputed at every epoch
//! barrier, after union-find compression). A shard owns the `old`/`delta`
//! sets and dirty flags of its range; during a flow phase it cascades its
//! local worklist to exhaustion, mutating *only* owned rows. Facts
//! destined for foreign nodes are buffered as [`ShardMsg`]s and delivered
//! at the next barrier — cross-shard effects are therefore invisible
//! within an epoch, which is what makes the schedule (thread count,
//! shard→worker assignment, interleaving) unobservable: each shard's work
//! is a pure function of the barrier state.
//!
//! Budget accounting is deferred to the barrier: every insertion is
//! recorded in a word-granular [`FlowLogEntry`] log whose order respects
//! shard-local causality, so the barrier can either accept the epoch's
//! insertions wholesale or roll back an exact suffix to land on the
//! configured budget to the element.
//!
//! Under provenance the same logs double as the blame-assignment stream:
//! after each flow the kernel walks the entries it just appended and
//! records a first-cause tag for every inserted tuple — read from the
//! (owned) source row for local flows, or from the blame payload a
//! message's sender precomputed for cross-shard flows. Blame rows obey
//! the same ownership protocol as the sets, and the interned tag table is
//! frozen during flow phases, so blame is exactly as
//! schedule-independent as the sets themselves.

use crate::blame::outflow;
use crate::pts::{flow_into_logged, FlowLogEntry, Pts};
use mujs_ir::hash::FastMap;
use std::collections::VecDeque;

/// A cross-shard delta: `objs` flowed along an edge into `target`
/// (canonical at send time; re-canonicalized at routing and delivery,
/// since a barrier collapse pass may merge it away).
#[derive(Debug)]
pub(crate) struct ShardMsg {
    pub target: u32,
    pub objs: Pts,
    /// Outflow blame tags of `objs`, as `(obj, tag)` sorted ascending by
    /// object (empty when provenance is off). Computed by the *sender*
    /// from its owned source row, so delivery needs no foreign reads.
    pub blame: Vec<(u32, u32)>,
}

/// Per-shard mutable state, owned by the epoch driver between phases and
/// by exactly one worker during a flow phase.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// Owned dirty nodes to cascade this epoch (ascending at seed time).
    pub worklist: VecDeque<u32>,
    /// Foreign deltas routed to this shard at the last barrier.
    pub inbox: Vec<ShardMsg>,
    /// Outgoing deltas, indexed by destination shard.
    pub outbox: Vec<Vec<ShardMsg>>,
    /// Word-granular insertion log, in shard-local causal order.
    pub log: Vec<FlowLogEntry>,
    /// Deltas committed on nodes carrying pending constraints; the
    /// barrier applies the pendings to exactly these objects, in
    /// (shard, commit) order.
    pub commits: Vec<(u32, Pts)>,
    /// Insertions this epoch (= the log's total population count).
    pub added: u64,
}

impl ShardState {
    pub(crate) fn new(nshards: usize) -> Self {
        ShardState {
            worklist: VecDeque::new(),
            inbox: Vec::new(),
            outbox: (0..nshards).map(|_| Vec::new()).collect(),
            log: Vec::new(),
            commits: Vec::new(),
            added: 0,
        }
    }
}

/// Raw pointers into the solver's node-indexed columns, valid for one
/// flow phase. The driver moves the backing `Vec`s out of the solver,
/// publishes this view, waits for every shard task to finish, and moves
/// them back — no reallocation can happen while the view is live because
/// flow phases never create nodes.
///
/// # Safety protocol
///
/// * `parent`, `edges`, `has_pending`, and `stamp` are read-only for
///   everyone, and so is the interned tag table behind the blame tags
///   (interning is barrier-only).
/// * `old`, `delta`, `on_dirty`, and `blame` rows may be touched only by
///   the owner of the row's (canonical) index: shard `i` owns indices
///   `[i*chunk, (i+1)*chunk)`. [`run_shard`] upholds this — it reads and
///   writes sets and blame rows only for nodes it owns and buffers
///   everything else (cross-shard blame travels precomputed inside
///   [`ShardMsg`]).
/// * The driver synchronizes phase start/end with a mutex, so writes are
///   ordered with its own accesses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeView {
    pub old: *mut Pts,
    pub delta: *mut Pts,
    pub on_dirty: *mut bool,
    pub parent: *const u32,
    pub edges: *const Vec<u32>,
    pub has_pending: *const bool,
    /// Per-node blame rows (`obj → tag`); dangling when `prov` is off.
    pub blame: *mut FastMap<u32, u32>,
    /// Per-node havoc outflow stamps; dangling when `prov` is off.
    pub stamp: *const u32,
    /// Whether provenance is being tracked this solve.
    pub prov: bool,
    /// Nodes per shard: `ceil(n / shards)`, ≥ 1.
    pub chunk: u32,
    /// Total node count (for debug assertions).
    pub n: usize,
}

unsafe impl Send for NodeView {}
unsafe impl Sync for NodeView {}

impl NodeView {
    /// The shard owning canonical node `id` under this epoch's ranges.
    #[inline]
    pub(crate) fn owner(&self, id: u32) -> usize {
        (id / self.chunk) as usize
    }

    /// Canonical representative of `x`. The parent table is fully
    /// compressed at every barrier, so one read-only hop suffices (no
    /// path mutation — the table is shared read-only across shards).
    #[inline]
    unsafe fn find(&self, x: u32) -> u32 {
        debug_assert!((x as usize) < self.n);
        *self.parent.add(x as usize)
    }

    #[inline]
    unsafe fn old(&self, i: u32) -> &Pts {
        &*self.old.add(i as usize)
    }

    #[inline]
    #[allow(clippy::mut_from_ref)] // sound under the view's ownership protocol
    unsafe fn old_mut(&self, i: u32) -> &mut Pts {
        &mut *self.old.add(i as usize)
    }

    #[inline]
    #[allow(clippy::mut_from_ref)] // sound under the view's ownership protocol
    unsafe fn delta_mut(&self, i: u32) -> &mut Pts {
        &mut *self.delta.add(i as usize)
    }

    #[inline]
    unsafe fn edges(&self, i: u32) -> &[u32] {
        &*self.edges.add(i as usize)
    }

    #[inline]
    unsafe fn has_pending(&self, i: u32) -> bool {
        *self.has_pending.add(i as usize)
    }

    #[inline]
    unsafe fn dirty_flag(&self, i: u32) -> bool {
        *self.on_dirty.add(i as usize)
    }

    #[inline]
    unsafe fn set_dirty_flag(&self, i: u32, v: bool) {
        *self.on_dirty.add(i as usize) = v;
    }

    #[inline]
    unsafe fn stamp_of(&self, i: u32) -> u32 {
        *self.stamp.add(i as usize)
    }

    #[inline]
    unsafe fn blame_row(&self, i: u32) -> &FastMap<u32, u32> {
        &*self.blame.add(i as usize)
    }

    #[inline]
    #[allow(clippy::mut_from_ref)] // sound under the view's ownership protocol
    unsafe fn blame_row_mut(&self, i: u32) -> &mut FastMap<u32, u32> {
        &mut *self.blame.add(i as usize)
    }
}

/// Assigns blame for a local flow out of owned node `src`: every tuple
/// `entries` records as newly inserted inherits `src`'s blame for it (or
/// `src`'s havoc stamp). Entry targets are owned by the running shard.
///
/// # Safety
///
/// Caller owns the rows of `src` and of every entry's target.
unsafe fn assign_blame_local(view: &NodeView, src: u32, entries: &[FlowLogEntry]) {
    let stamp = view.stamp_of(src);
    for e in entries {
        let mut bits = e.bits;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let v = e.word * 64 + b;
            let tag = outflow(view.blame_row(src), stamp, v);
            view.blame_row_mut(e.node).entry(v).or_insert(tag);
        }
    }
}

/// Assigns blame for an inbox delivery: tags come from the message's
/// sender-side payload (sorted by object), not from any foreign row.
///
/// # Safety
///
/// Caller owns the rows of every entry's target.
unsafe fn assign_blame_msg(view: &NodeView, payload: &[(u32, u32)], entries: &[FlowLogEntry]) {
    for e in entries {
        let mut bits = e.bits;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let v = e.word * 64 + b;
            let tag = match payload.binary_search_by_key(&v, |&(o, _)| o) {
                Ok(i) => payload[i].1,
                Err(_) => crate::blame::BASE_TAG,
            };
            view.blame_row_mut(e.node).entry(v).or_insert(tag);
        }
    }
}

/// The sender-side blame payload of a cross-shard message: the outflow
/// tag of every element of `d` leaving owned node `src`, ascending by
/// object (``d.iter()`` is ascending).
///
/// # Safety
///
/// Caller owns `src`'s row.
unsafe fn blame_payload(view: &NodeView, src: u32, d: &Pts) -> Vec<(u32, u32)> {
    let stamp = view.stamp_of(src);
    let row = view.blame_row(src);
    d.iter().map(|v| (v, outflow(row, stamp, v))).collect()
}

/// Runs shard `me`'s flow phase to local exhaustion: delivers the inbox,
/// then cascades the local worklist. Mirrors the sequential solver's
/// `process` (commit delta → old first, then flow along edges), except
/// that node/edge creation and pending application are barrier-only and
/// foreign targets receive buffered messages instead of direct writes.
///
/// # Safety
///
/// `view` must satisfy the [`NodeView`] protocol, `shard` must be the
/// exclusive [`ShardState`] for index `me`, and no other thread may touch
/// rows owned by `me` while this runs.
pub(crate) unsafe fn run_shard(view: &NodeView, shard: &mut ShardState, me: usize) {
    let inbox = std::mem::take(&mut shard.inbox);
    for msg in &inbox {
        let t = view.find(msg.target);
        debug_assert_eq!(view.owner(t), me, "message routed to the wrong shard");
        let log_start = shard.log.len();
        let added = flow_into_logged(&msg.objs, view.old(t), view.delta_mut(t), t, &mut shard.log);
        if added > 0 {
            if view.prov {
                assign_blame_msg(view, &msg.blame, &shard.log[log_start..]);
            }
            shard.added += added;
            if !view.dirty_flag(t) {
                view.set_dirty_flag(t, true);
                shard.worklist.push_back(t);
            }
        }
    }
    while let Some(n) = shard.worklist.pop_front() {
        debug_assert_eq!(view.owner(n), me);
        view.set_dirty_flag(n, false);
        let dn = view.delta_mut(n);
        if dn.is_empty() {
            continue;
        }
        let d = dn.take();
        view.old_mut(n).union_with(&d);
        if view.has_pending(n) {
            shard.commits.push((n, d.clone()));
        }
        for &t0 in view.edges(n) {
            let t = view.find(t0);
            if t == n {
                continue;
            }
            let dest = view.owner(t);
            if dest == me {
                let log_start = shard.log.len();
                let added = flow_into_logged(&d, view.old(t), view.delta_mut(t), t, &mut shard.log);
                if added > 0 {
                    if view.prov {
                        assign_blame_local(view, n, &shard.log[log_start..]);
                    }
                    shard.added += added;
                    if !view.dirty_flag(t) {
                        view.set_dirty_flag(t, true);
                        shard.worklist.push_back(t);
                    }
                }
            } else {
                shard.outbox[dest].push(ShardMsg {
                    target: t,
                    objs: d.clone(),
                    blame: if view.prov {
                        blame_payload(view, n, &d)
                    } else {
                        Vec::new()
                    },
                });
            }
        }
    }
}
