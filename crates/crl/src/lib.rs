//! CRL-like all-software distributed shared memory on top of UDM.
//!
//! The paper's three SPLASH applications (Barnes, Water, LU) run on **CRL**
//! — the C Region Library of Johnson, Kaashoek and Wallach (SOSP '95) — an
//! all-software region-based DSM whose coherence protocol is implemented
//! entirely with short request/reply messages plus larger data messages.
//! §5.1 notes that this load "is representative of coherence protocols such
//! as Stache and can be considered operating-system-like: many low-latency
//! request-reply packets mixed with fewer larger data packets."
//!
//! This crate reimplements that substrate: fixed-home regions with an
//! MSI-style directory protocol (read/write requests, invalidations,
//! recalls, chunked data transfers), built purely on [`udm`] messages and
//! handlers — which means the protocol transparently benefits from
//! two-case delivery exactly as in the paper.
//!
//! # Programming model
//!
//! A [`Crl`] instance is shared by all nodes of a job. All nodes call
//! [`Crl::create`] collectively for each region during initialization
//! (SPMD style), then bracket accesses with [`Crl::start_read`] /
//! [`Crl::end_read`] and [`Crl::start_write`] / [`Crl::end_write`] from
//! their main threads. The application's message handler must forward
//! unrecognized messages to [`Crl::handle`]:
//!
//! ```ignore
//! fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
//!     if self.crl.handle(ctx, env) {
//!         return; // a coherence-protocol message
//!     }
//!     // ... application messages ...
//! }
//! ```
//!
//! Regions are held briefly; while a region is held, incoming
//! invalidations and recalls are *deferred* until the matching `end_*`
//! (as in real CRL), so data is never torn mid-access.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use udm::{Cycles, Envelope, NodeId, UserCtx};

/// Region identifier chosen by the application.
pub type Rid = u32;

/// Handler-word values used by the protocol. Applications sharing a job
/// with a [`Crl`] must not use handler ids in `0xC0..=0xC5`.
pub mod handlers {
    /// Read or write request to the home node. Payload
    /// `[rid, write | seq << 1]` — `seq` is a per-requester sequence number
    /// that makes retried requests idempotent at the directory.
    pub const REQ: u32 = 0xC0;
    /// Data grant chunk to a requester. Payload
    /// `[rid, write | seq << 1, offset, total, data...]`; `seq` echoes the
    /// request so a requester can discard stale re-sent grants.
    pub const DATA: u32 = 0xC1;
    /// Invalidate a shared copy. Payload `[rid]`.
    pub const INV: u32 = 0xC2;
    /// Invalidation acknowledgement. Payload `[rid, sharer]`.
    pub const INV_ACK: u32 = 0xC3;
    /// Recall an exclusive copy. Payload `[rid, full | seq << 1]` (`full=0`
    /// downgrades to shared for a read, `full=1` invalidates for a write;
    /// `seq` names the grant being recalled so an owner that has not yet
    /// observed that grant defers rather than flushing stale data).
    pub const RECALL: u32 = 0xC4;
    /// Flush chunk from a recalled owner back to home. Payload
    /// `[rid, full, offset, total, data...]`.
    pub const FLUSH: u32 = 0xC5;
}

/// Data words carried per chunk message: 14-word payload budget minus the
/// 4-word chunk header.
const CHUNK_WORDS: usize = 10;

// Software costs of the region library itself, charged on top of the
// machine's messaging costs. They approximate the CRL paper's
// "all-software" overheads; see DESIGN.md.

/// A `start_*` that hits in the local cache state.
const HIT_COST: Cycles = 20;
/// Software overhead of a `start_*` miss (request construction,
/// continuation bookkeeping), excluding messaging.
const MISS_COST: Cycles = 80;
/// Protocol processing per handler invocation at home or owner.
const PROTOCOL_COST: Cycles = 90;
/// An `end_*` with no deferred work.
const END_COST: Cycles = 12;
/// Initial retry timeout for a `start_*` miss when fault injection is
/// active: if the grant has not arrived after this many cycles the request
/// is re-sent (same sequence number — idempotent), with exponential backoff
/// capped at 64× this value. Never consulted when the machine's fault plan
/// is inert.
const RETRY_TIMEOUT: Cycles = 50_000;

/// Local (cached) state of a region on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LState {
    Invalid,
    Shared,
    Exclusive,
}

/// How the local main thread currently holds a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    Read,
    Write,
}

/// Coherence action deferred because the region was held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deferred {
    /// Invalidate (reply `INV_ACK` to home).
    Inv,
    /// Recall: flush to home; `full` invalidates, otherwise downgrade.
    Recall { full: bool },
}

#[derive(Debug)]
struct RegionLocal {
    state: LState,
    data: Vec<u32>,
    len: usize,
    hold: Option<Hold>,
    /// The main thread is between requesting this region and acquiring it.
    /// Coherence actions are deferred during this window too, so a fresh
    /// grant cannot be snatched back before it is ever observed (which
    /// could otherwise livelock two contending writers).
    wanted: bool,
    deferred: Option<Deferred>,
    /// Words received of the grant currently being filled.
    fill: usize,
    /// Chunk offsets already applied to the current fill (duplicate chunks
    /// under fault injection are counted once).
    got: BTreeSet<usize>,
    /// Sequence number of this node's most recent request for the region.
    /// A retry re-sends the same number; a fresh miss increments it.
    req_seq: u32,
    /// Sequence number of the last *remote* grant whose data completed
    /// here. A `RECALL` naming a newer grant is deferred: the data it wants
    /// has not arrived yet (the grant may have been dropped and will be
    /// re-sent), so flushing now would hand home stale words.
    grant_seen: u32,
}

/// A queued request at the home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirReq {
    node: NodeId,
    write: bool,
    seq: u32,
}

/// What the directory is waiting for before it can serve the queue head.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirBusy {
    Idle,
    /// Waiting for a recalled owner's flush. Only chunks from `from` are
    /// accepted; `got` dedups re-sent chunks and `fill` counts fresh words.
    AwaitFlush {
        from: NodeId,
        fill: usize,
        got: BTreeSet<usize>,
    },
    /// Waiting for invalidation acknowledgements from `pending` sharers.
    AwaitAcks {
        pending: BTreeSet<NodeId>,
    },
}

#[derive(Debug)]
struct Dir {
    master: Vec<u32>,
    sharers: BTreeSet<NodeId>,
    owner: Option<NodeId>,
    busy: DirBusy,
    queue: VecDeque<DirReq>,
    /// Per-requester sequence number of the last grant issued. A re-request
    /// at or below this is a retry of something already served: the grant
    /// is re-sent from the master copy instead of being served twice.
    served: BTreeMap<NodeId, u32>,
}

#[derive(Debug, Default)]
struct CrlNode {
    local: HashMap<Rid, RegionLocal>,
    dir: HashMap<Rid, Dir>,
    /// Requests that arrived before this (home) node's main thread ran
    /// `create` — possible under skewed multiprogramming, where a remote
    /// node's first quantum begins earlier than ours and its requests are
    /// buffered ahead of our initialization.
    early_reqs: HashMap<Rid, Vec<DirReq>>,
    /// Request retries fired by this node's timeout protocol.
    retries: u64,
}

/// A region-based software DSM instance for one job.
///
/// Shared via `Arc` between the job's program value on every node; each
/// node's state lives behind its own mutex (never contended: the machine
/// serializes a node's contexts).
#[derive(Debug)]
pub struct Crl {
    nnodes: usize,
    nodes: Vec<Mutex<CrlNode>>,
}

impl Crl {
    /// Creates the DSM layer for a job spanning `nnodes` nodes.
    pub fn new(nnodes: usize) -> Self {
        Crl {
            nnodes,
            nodes: (0..nnodes)
                .map(|_| Mutex::new(CrlNode::default()))
                .collect(),
        }
    }

    /// The home node of a region.
    pub fn home(&self, rid: Rid) -> NodeId {
        rid as usize % self.nnodes
    }

    /// Locks one node's protocol state, recovering from lock poisoning.
    ///
    /// A panic in simulated program code (an assertion failure, or the
    /// machine's structured deadlock dump) unwinds while a node lock is
    /// held and poisons it. Every protocol entry point goes through this
    /// helper rather than `lock().unwrap()` so that the *first* panic's
    /// message survives instead of being buried under a cascade of opaque
    /// `PoisonError` panics from whichever handlers run afterwards. The
    /// state itself is safe to reuse: each method leaves it consistent
    /// before calling back into the machine.
    fn node(&self, n: NodeId) -> MutexGuard<'_, CrlNode> {
        self.nodes[n].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(rid: Rid) -> u32 {
        0x8000_0000 | rid
    }

    /// Collectively creates a region of `init.len()` words. Every node of
    /// the job must call this with identical arguments before any access;
    /// the home node stores the master copy.
    ///
    /// # Panics
    ///
    /// Panics if the region already exists on this node.
    pub fn create(&self, ctx: &mut UserCtx<'_>, rid: Rid, init: &[u32]) {
        let me = ctx.node();
        let mut st = self.node(me);
        let prev = st.local.insert(
            rid,
            RegionLocal {
                state: LState::Invalid,
                data: Vec::new(),
                len: init.len(),
                hold: None,
                wanted: false,
                deferred: None,
                fill: 0,
                got: BTreeSet::new(),
                req_seq: 0,
                grant_seen: 0,
            },
        );
        assert!(prev.is_none(), "region {rid} already exists on node {me}");
        if self.home(rid) == me {
            let queue: VecDeque<DirReq> = st
                .early_reqs
                .remove(&rid)
                .map(Vec::into_iter)
                .map(Iterator::collect)
                .unwrap_or_default();
            let had_early = !queue.is_empty();
            st.dir.insert(
                rid,
                Dir {
                    master: init.to_vec(),
                    sharers: BTreeSet::new(),
                    owner: None,
                    busy: DirBusy::Idle,
                    queue,
                    served: BTreeMap::new(),
                },
            );
            drop(st);
            if had_early {
                self.pump(ctx, rid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mapped access
    // ------------------------------------------------------------------

    /// Begins a read hold. Blocks (the main thread) until a readable copy
    /// is local.
    pub fn start_read(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        self.start(ctx, rid, false);
    }

    /// Begins a write hold. Blocks until the region is exclusive here.
    pub fn start_write(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        self.start(ctx, rid, true);
    }

    fn start(&self, ctx: &mut UserCtx<'_>, rid: Rid, write: bool) {
        let me = ctx.node();
        loop {
            let seq;
            // Fast path: local state already suffices.
            {
                let mut st = self.node(me);
                // The home node with no remote owner can serve itself.
                self.try_home_local(&mut st, me, rid, write);
                let region = st
                    .local
                    .get_mut(&rid)
                    .unwrap_or_else(|| panic!("node {me} accessed region {rid} before create"));
                assert!(region.hold.is_none(), "region {rid} already held");
                let ok = matches!(
                    (write, region.state),
                    (false, LState::Shared | LState::Exclusive) | (true, LState::Exclusive)
                );
                if ok {
                    region.hold = Some(if write { Hold::Write } else { Hold::Read });
                    region.wanted = false; // any deferred recall runs at end_*
                    region.fill = 0;
                    region.got.clear();
                    drop(st);
                    ctx.compute(HIT_COST);
                    return;
                }
                region.fill = 0;
                region.got.clear();
                region.wanted = true;
                region.req_seq += 1;
                seq = region.req_seq;
            }
            // Miss: ask the home node and sleep until the grant lands.
            ctx.compute(MISS_COST);
            let req = [rid, write as u32 | (seq << 1)];
            ctx.send(self.home(rid), handlers::REQ, &req);
            if ctx.faults_active() {
                // Chaos mode: the request or its grant may be dropped. Sleep
                // with a timeout and re-send the same request (same sequence
                // number — the directory dedups) with exponential backoff.
                let mut timeout = RETRY_TIMEOUT;
                let cap = timeout.saturating_mul(64);
                while !ctx.block_timeout(Self::key(rid), timeout) {
                    self.node(me).retries += 1;
                    ctx.send(self.home(rid), handlers::REQ, &req);
                    timeout = timeout.saturating_mul(2).min(cap);
                }
            } else {
                ctx.block(Self::key(rid));
            }
            // Re-check: an invalidation may have raced the wakeup.
        }
    }

    /// Home-node self-service: if this node is home and the directory can
    /// grant locally without messages, install the data directly.
    fn try_home_local(&self, st: &mut CrlNode, me: NodeId, rid: Rid, write: bool) {
        if self.home(rid) != me {
            return;
        }
        let Some(dir) = st.dir.get_mut(&rid) else {
            return;
        };
        if dir.busy != DirBusy::Idle || !dir.queue.is_empty() {
            return; // remote traffic in flight; join the queue instead
        }
        match (write, dir.owner) {
            (false, None) => {
                dir.sharers.insert(me);
                let data = dir.master.clone();
                let region = st.local.get_mut(&rid).expect("created");
                if region.state == LState::Invalid {
                    region.data = data;
                    region.state = LState::Shared;
                }
            }
            (true, None) if dir.sharers.iter().all(|&s| s == me) => {
                dir.sharers.clear();
                dir.owner = Some(me);
                let data = dir.master.clone();
                let region = st.local.get_mut(&rid).expect("created");
                region.data = data;
                region.state = LState::Exclusive;
            }
            (_, Some(o)) if o == me => {
                // Already the owner: local state is Exclusive.
            }
            _ => {}
        }
    }

    /// Ends a read hold, performing any deferred coherence work.
    pub fn end_read(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        self.end(ctx, rid, Hold::Read);
    }

    /// Ends a write hold, performing any deferred coherence work.
    pub fn end_write(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        self.end(ctx, rid, Hold::Write);
    }

    fn end(&self, ctx: &mut UserCtx<'_>, rid: Rid, expect: Hold) {
        let me = ctx.node();
        let deferred;
        {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("region exists");
            assert_eq!(
                region.hold,
                Some(expect),
                "mismatched end_* for region {rid}"
            );
            region.hold = None;
            deferred = region.deferred.take();
        }
        ctx.compute(END_COST);
        match deferred {
            None => {}
            Some(Deferred::Inv) => self.do_invalidate(ctx, rid),
            Some(Deferred::Recall { full }) => self.do_flush(ctx, rid, full),
        }
    }

    /// Copies a held region's contents out.
    ///
    /// # Panics
    ///
    /// Panics unless the caller holds the region (read or write).
    pub fn snapshot(&self, ctx: &mut UserCtx<'_>, rid: Rid) -> Vec<u32> {
        let me = ctx.node();
        let st = self.node(me);
        let region = &st.local[&rid];
        assert!(region.hold.is_some(), "snapshot of unheld region {rid}");
        region.data.clone()
    }

    /// Mutates a held-for-write region in place.
    ///
    /// # Panics
    ///
    /// Panics unless the caller holds the region for write.
    pub fn update<R>(&self, ctx: &mut UserCtx<'_>, rid: Rid, f: impl FnOnce(&mut [u32]) -> R) -> R {
        let me = ctx.node();
        let mut st = self.node(me);
        let region = st.local.get_mut(&rid).expect("region exists");
        assert_eq!(
            region.hold,
            Some(Hold::Write),
            "update of region {rid} without a write hold"
        );
        f(&mut region.data)
    }

    /// Total request retries fired by the timeout protocol, summed over all
    /// nodes. Always zero when fault injection is inert.
    pub fn retries(&self) -> u64 {
        (0..self.nnodes).map(|n| self.node(n).retries).sum()
    }

    // ------------------------------------------------------------------
    // Protocol handlers
    // ------------------------------------------------------------------

    /// Routes a coherence-protocol message; returns `false` if `env` is not
    /// a CRL message (the application should handle it).
    pub fn handle(&self, ctx: &mut UserCtx<'_>, env: &Envelope) -> bool {
        match env.handler.0 {
            handlers::REQ => self.on_req(ctx, env),
            handlers::DATA => self.on_data(ctx, env),
            handlers::INV => self.on_inv(ctx, env),
            handlers::INV_ACK => self.on_inv_ack(ctx, env),
            handlers::RECALL => self.on_recall(ctx, env),
            handlers::FLUSH => self.on_flush(ctx, env),
            _ => return false,
        }
        ctx.compute(PROTOCOL_COST);
        true
    }

    fn on_req(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let write = env.payload[1] & 1 != 0;
        let seq = env.payload[1] >> 1;
        let me = ctx.node();
        enum ReqAction {
            /// Stale or duplicate; nothing to do.
            Ignore,
            /// Fresh request was queued; serve the directory.
            Pump,
            /// Retry of an already-issued grant: re-send its data.
            Resend { data: Vec<u32> },
            /// Retry of the in-service request: the recall/invalidations it
            /// is waiting on may have been lost, so re-drive them.
            Redrive {
                recall: Option<(NodeId, bool, u32)>,
                invs: Vec<NodeId>,
            },
        }
        let req = DirReq {
            node: env.src,
            write,
            seq,
        };
        let action = {
            let mut st = self.node(me);
            match st.dir.get_mut(&rid) {
                Some(dir) => {
                    let served = dir.served.get(&req.node).copied().unwrap_or(0);
                    if seq < served {
                        // The requester has since moved on to a newer
                        // request; this duplicate is ancient.
                        ReqAction::Ignore
                    } else if dir.queue.contains(&req) {
                        // Retry of a still-queued request. If it is the one
                        // being served, whatever the directory is waiting
                        // for may have been dropped: re-issue it.
                        if dir.queue.front() == Some(&req) {
                            match &dir.busy {
                                DirBusy::AwaitFlush { from, .. } => ReqAction::Redrive {
                                    recall: Some((
                                        *from,
                                        req.write,
                                        dir.served.get(from).copied().unwrap_or(0),
                                    )),
                                    invs: Vec::new(),
                                },
                                DirBusy::AwaitAcks { pending } => ReqAction::Redrive {
                                    recall: None,
                                    invs: pending.iter().copied().filter(|&s| s != me).collect(),
                                },
                                DirBusy::Idle => ReqAction::Ignore,
                            }
                        } else {
                            ReqAction::Ignore
                        }
                    } else if seq == served
                        && ((write && dir.owner == Some(req.node))
                            || (!write
                                && dir.sharers.contains(&req.node)
                                && match &dir.busy {
                                    // Not while this very copy is being
                                    // invalidated: the re-sent data would
                                    // race the INV and resurrect the copy.
                                    DirBusy::AwaitAcks { pending } => !pending.contains(&req.node),
                                    _ => true,
                                }))
                    {
                        // Grant already issued but evidently lost in
                        // flight; the master still reflects it (the owner
                        // has not flushed, readers share the master).
                        ReqAction::Resend {
                            data: dir.master.clone(),
                        }
                    } else {
                        // Fresh request (or a grant that was revoked before
                        // the requester ever observed it): queue it.
                        dir.queue.push_back(req);
                        ReqAction::Pump
                    }
                }
                None => {
                    assert_eq!(
                        self.home(rid),
                        me,
                        "coherence request for region {rid} at non-home node {me}"
                    );
                    // Our main thread has not run `create` yet (skewed
                    // startup); stash until it does.
                    let early = st.early_reqs.entry(rid).or_default();
                    if !early.contains(&req) {
                        early.push(req);
                    }
                    ReqAction::Ignore
                }
            }
        };
        match action {
            ReqAction::Ignore => {}
            ReqAction::Pump => self.pump(ctx, rid),
            ReqAction::Resend { data } => {
                self.send_chunks(
                    ctx,
                    req.node,
                    handlers::DATA,
                    rid,
                    write as u32 | (seq << 1),
                    &data,
                );
            }
            ReqAction::Redrive { recall, invs } => {
                if let Some((to, full, rseq)) = recall {
                    if to == me {
                        // Home's own recalled copy. While the hold (or the
                        // pending deferred recall) is live, the local end_*
                        // will flush when it runs. If both are gone, end_*
                        // already ran and its FLUSH — a loopback message,
                        // just as droppable as any other — was lost:
                        // re-issue it. Idempotent: state and data are
                        // unchanged since the first flush.
                        let lost = {
                            let st = self.node(me);
                            let region = &st.local[&rid];
                            region.hold.is_none() && region.deferred.is_none()
                        };
                        if lost {
                            self.do_flush(ctx, rid, full);
                        }
                    } else {
                        ctx.send(to, handlers::RECALL, &[rid, full as u32 | (rseq << 1)]);
                    }
                }
                for s in invs {
                    ctx.send(s, handlers::INV, &[rid]);
                }
            }
        }
    }

    /// Serves the directory queue head if the directory is idle.
    fn pump(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        let me = ctx.node();
        loop {
            enum Action {
                Done,
                Recall { to: NodeId, full: bool, seq: u32 },
                Invalidate { to: Vec<NodeId> },
                Grant { req: DirReq, data: Vec<u32> },
            }
            let action = {
                let mut st = self.node(me);
                let dir = st.dir.get_mut(&rid).expect("pump at non-home");
                if dir.busy != DirBusy::Idle {
                    Action::Done
                } else if let Some(&req) = dir.queue.front() {
                    if let Some(o) = dir.owner {
                        assert_ne!(
                            o, req.node,
                            "owner re-requested region {rid} before its flush arrived"
                        );
                        if o == me {
                            // Home itself owns the region: flush locally
                            // (no messages) unless the hold defers it.
                            let region = st.local.get_mut(&rid).expect("created");
                            if region.hold.is_some() || region.wanted {
                                region.deferred = Some(Deferred::Recall { full: req.write });
                                let dir = st.dir.get_mut(&rid).expect("home");
                                dir.busy = DirBusy::AwaitFlush {
                                    from: me,
                                    fill: 0,
                                    got: BTreeSet::new(),
                                };
                                Action::Done
                            } else {
                                let data = region.data.clone();
                                if req.write {
                                    region.state = LState::Invalid;
                                } else {
                                    region.state = LState::Shared;
                                }
                                let dir = st.dir.get_mut(&rid).expect("home");
                                dir.master = data;
                                dir.owner = None;
                                if !req.write {
                                    dir.sharers.insert(me);
                                }
                                continue; // retry the head request
                            }
                        } else {
                            let seq = dir.served.get(&o).copied().unwrap_or(0);
                            dir.busy = DirBusy::AwaitFlush {
                                from: o,
                                fill: 0,
                                got: BTreeSet::new(),
                            };
                            Action::Recall {
                                to: o,
                                full: req.write,
                                seq,
                            }
                        }
                    } else if req.write {
                        let others: Vec<NodeId> = dir
                            .sharers
                            .iter()
                            .copied()
                            .filter(|&s| s != req.node && s != me)
                            .collect();
                        let home_shared = dir.sharers.contains(&me);
                        if !others.is_empty() {
                            dir.busy = DirBusy::AwaitAcks {
                                pending: others.iter().copied().collect(),
                            };
                            Action::Invalidate { to: others }
                        } else {
                            // Only the requester and/or home share it.
                            if home_shared {
                                let region = st.local.get_mut(&rid).expect("created");
                                // Home's own copy may be held; defer like
                                // any sharer (hold only — see on_inv).
                                if region.hold.is_some() {
                                    region.deferred = Some(Deferred::Inv);
                                    // Treat home as a pending ack.
                                    let dir = st.dir.get_mut(&rid).expect("home");
                                    dir.busy = DirBusy::AwaitAcks {
                                        pending: std::iter::once(me).collect(),
                                    };
                                    Action::Done
                                } else {
                                    region.state = LState::Invalid;
                                    let dir = st.dir.get_mut(&rid).expect("home");
                                    dir.sharers.remove(&me);
                                    continue;
                                }
                            } else {
                                let dir = st.dir.get_mut(&rid).expect("home");
                                dir.queue.pop_front();
                                dir.sharers.clear();
                                dir.owner = Some(req.node);
                                dir.served.insert(req.node, req.seq);
                                Action::Grant {
                                    req,
                                    data: dir.master.clone(),
                                }
                            }
                        }
                    } else {
                        dir.queue.pop_front();
                        dir.sharers.insert(req.node);
                        dir.served.insert(req.node, req.seq);
                        Action::Grant {
                            req,
                            data: dir.master.clone(),
                        }
                    }
                } else {
                    Action::Done
                }
            };
            match action {
                Action::Done => return,
                Action::Recall { to, full, seq } => {
                    ctx.send(to, handlers::RECALL, &[rid, full as u32 | (seq << 1)]);
                    return;
                }
                Action::Invalidate { to } => {
                    for s in to {
                        ctx.send(s, handlers::INV, &[rid]);
                    }
                    return;
                }
                Action::Grant { req, data } => {
                    if req.node == me {
                        // Local grant (home requested its own region while
                        // traffic was queued): install directly.
                        let mut st = self.node(me);
                        let region = st.local.get_mut(&rid).expect("created");
                        region.data = data;
                        region.state = if req.write {
                            LState::Exclusive
                        } else {
                            LState::Shared
                        };
                        drop(st);
                        ctx.wake(Self::key(rid));
                    } else {
                        self.send_chunks(
                            ctx,
                            req.node,
                            handlers::DATA,
                            rid,
                            req.write as u32 | (req.seq << 1),
                            &data,
                        );
                    }
                    // Loop: reads may continue to be granted.
                }
            }
        }
    }

    fn send_chunks(
        &self,
        ctx: &mut UserCtx<'_>,
        dst: NodeId,
        handler: u32,
        rid: Rid,
        flag: u32,
        data: &[u32],
    ) {
        let total = data.len() as u32;
        if data.is_empty() {
            ctx.send(dst, handler, &[rid, flag, 0, 0]);
            return;
        }
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + CHUNK_WORDS).min(data.len());
            let mut payload = vec![rid, flag, off as u32, total];
            payload.extend_from_slice(&data[off..end]);
            ctx.send(dst, handler, &payload);
            off = end;
        }
    }

    fn on_data(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let write = env.payload[1] & 1 != 0;
        let seq = env.payload[1] >> 1;
        let off = env.payload[2] as usize;
        let total = env.payload[3] as usize;
        let words = &env.payload[4..];
        let me = ctx.node();
        let complete = {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("grant for unknown region");
            if !region.wanted || seq != region.req_seq || region.grant_seen >= seq {
                // A re-sent grant for a request we have since satisfied or
                // superseded (`grant_seen` catches a duplicate of a grant
                // already completed but not yet claimed by the main
                // thread); installing it would resurrect a revoked copy or
                // bank a spurious wakeup for the next miss.
                return;
            }
            debug_assert_eq!(total, region.len, "grant size mismatch for region {rid}");
            if region.data.len() != total {
                region.data = vec![0; total];
            }
            if region.got.insert(off) {
                region.data[off..off + words.len()].copy_from_slice(words);
                region.fill += words.len();
            }
            if region.fill >= total {
                region.fill = 0;
                region.got.clear();
                region.grant_seen = seq;
                region.state = if write {
                    LState::Exclusive
                } else {
                    LState::Shared
                };
                true
            } else {
                false
            }
        };
        if complete {
            ctx.wake(Self::key(rid));
        }
    }

    fn on_inv(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let me = ctx.node();
        let deferred = {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("inv for unknown region");
            // Defer only while *held*. A merely `wanted` sharer must ack
            // immediately: it may itself be awaiting a write upgrade from
            // this same directory, and withholding the ack would deadlock.
            // (RECALL is different — it only targets owners, so deferring
            // it while wanted cannot form such a cycle.)
            if region.hold.is_some() {
                region.deferred = Some(Deferred::Inv);
                true
            } else {
                // Idempotent: a duplicate INV finds the copy already
                // Invalid and simply acks again (the first ack may have
                // been dropped).
                if region.state == LState::Shared {
                    region.state = LState::Invalid;
                }
                false
            }
        };
        if !deferred {
            ctx.send(self.home(rid), handlers::INV_ACK, &[rid, me as u32]);
        }
    }

    fn do_invalidate(&self, ctx: &mut UserCtx<'_>, rid: Rid) {
        let me = ctx.node();
        {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("region exists");
            region.state = LState::Invalid;
        }
        if self.home(rid) == me {
            // Deferred self-invalidation at home: account the ack locally.
            self.on_ack_internal(ctx, rid, me);
        } else {
            ctx.send(self.home(rid), handlers::INV_ACK, &[rid, me as u32]);
        }
    }

    fn on_inv_ack(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let sharer = env.payload[1] as usize;
        self.on_ack_internal(ctx, rid, sharer);
    }

    fn on_ack_internal(&self, ctx: &mut UserCtx<'_>, rid: Rid, sharer: NodeId) {
        let me = ctx.node();
        let done = {
            let mut st = self.node(me);
            let dir = st.dir.get_mut(&rid).expect("ack at non-home");
            dir.sharers.remove(&sharer);
            // Duplicate acks (re-sent after a re-driven INV, or duplicated
            // by the network) are ignored: only an ack actually pending
            // advances the protocol.
            let done = match &mut dir.busy {
                DirBusy::AwaitAcks { pending } => pending.remove(&sharer) && pending.is_empty(),
                _ => false,
            };
            if done {
                dir.busy = DirBusy::Idle;
            }
            done
        };
        if done {
            self.pump(ctx, rid);
        }
    }

    fn on_recall(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let full = env.payload[1] & 1 != 0;
        let seq = env.payload[1] >> 1;
        let me = ctx.node();
        enum RecallAction {
            /// Flush later (at `end_*`, or once the in-flight grant lands).
            Defer,
            /// Normal path: flush now, downgrading local state.
            Flush,
            /// The flush was already performed but evidently lost; re-send
            /// the same (unchanged) data without touching local state.
            Reflush(Vec<u32>),
        }
        let action = {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("recall for unknown region");
            if region.grant_seen < seq {
                // The grant being recalled has not arrived here yet (it may
                // have been dropped and will be re-sent). Flushing now
                // would hand home stale data; defer until the grant is
                // observed and released.
                region.deferred = Some(Deferred::Recall { full });
                RecallAction::Defer
            } else if region.state == LState::Exclusive {
                if region.hold.is_some() || region.wanted {
                    region.deferred = Some(Deferred::Recall { full });
                    RecallAction::Defer
                } else {
                    RecallAction::Flush
                }
            } else {
                // Already flushed once (duplicate or re-driven RECALL after
                // the FLUSH was dropped). The data cannot have changed
                // since — we are no longer exclusive — so re-send it as is.
                RecallAction::Reflush(region.data.clone())
            }
        };
        match action {
            RecallAction::Defer => {}
            RecallAction::Flush => self.do_flush(ctx, rid, full),
            RecallAction::Reflush(data) => {
                self.send_chunks(
                    ctx,
                    self.home(rid),
                    handlers::FLUSH,
                    rid,
                    full as u32,
                    &data,
                );
            }
        }
    }

    fn do_flush(&self, ctx: &mut UserCtx<'_>, rid: Rid, full: bool) {
        let me = ctx.node();
        let data = {
            let mut st = self.node(me);
            let region = st.local.get_mut(&rid).expect("region exists");
            let data = region.data.clone();
            region.state = if full {
                LState::Invalid
            } else {
                LState::Shared
            };
            data
        };
        self.send_chunks(
            ctx,
            self.home(rid),
            handlers::FLUSH,
            rid,
            full as u32,
            &data,
        );
    }

    fn on_flush(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        let rid = env.payload[0];
        let _full = env.payload[1] != 0;
        let off = env.payload[2] as usize;
        let total = env.payload[3] as usize;
        let words = &env.payload[4..];
        let me = ctx.node();
        let owner = env.src;
        let complete = {
            let mut st = self.node(me);
            let dir = st.dir.get_mut(&rid).expect("flush at non-home");
            // Accept chunks only from the owner we are actually recalling;
            // anything else is a duplicate or a re-sent flush that already
            // completed, and must not touch the master copy.
            let (fresh, done) = match &mut dir.busy {
                DirBusy::AwaitFlush { from, fill, got } if *from == owner => {
                    let fresh = got.insert(off);
                    if fresh {
                        *fill += words.len();
                    }
                    (fresh, *fill >= total)
                }
                _ => (false, false),
            };
            if fresh {
                dir.master[off..off + words.len()].copy_from_slice(words);
            }
            if done {
                dir.busy = DirBusy::Idle;
                dir.owner = None;
                // A downgrade recall leaves the old owner sharing.
                let head_is_read = dir.queue.front().map(|r| !r.write).unwrap_or(false);
                if head_is_read {
                    dir.sharers.insert(owner);
                }
            }
            done
        };
        if complete {
            self.pump(ctx, rid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic under a node lock (as a simulated-program assertion failure
    /// produces) must not cascade: later lock acquisitions recover the
    /// state instead of dying on `PoisonError`, so the first panic's
    /// message reaches the user intact.
    #[test]
    fn poisoned_node_lock_is_recovered() {
        let crl = Crl::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut st = crl.nodes[0].lock().unwrap();
            st.retries = 7;
            panic!("original diagnostic");
        }));
        assert!(caught.is_err());
        assert!(crl.nodes[0].is_poisoned());
        // Every public accessor goes through the recovering helper.
        assert_eq!(crl.retries(), 7);
    }
}
