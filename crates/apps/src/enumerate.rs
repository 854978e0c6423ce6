//! The `enum` benchmark: "a fine-grain, data-parallel application that
//! exchanges numerous unacknowledged short messages and synchronizes only
//! infrequently" (§5.1) — enumeration of all solutions of the triangular
//! peg-solitaire puzzle ("triangle puzzle"), after Kirk Johnson's original.
//!
//! Board: a triangle with `side` rows (`side·(side+1)/2` holes), initially
//! full except the apex. A move jumps a peg over an adjacent peg into an
//! empty hole along any of the six triangular-grid directions, removing
//! the jumped peg. The program counts every distinct jump sequence ending
//! with a single peg.
//!
//! Parallelization: search-tree nodes near the root are *sprayed* to an
//! owner node chosen by hashing the board state (one unacknowledged UDM
//! message each — the paper's dominant traffic); deeper subtrees are
//! enumerated locally. Termination uses a coordinator-probed,
//! two-round-stable count of sent vs. processed work messages — the only
//! synchronization in the program, and an infrequent one.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use udm::{Envelope, JobSpec, Program, Sim, UserCtx};

const H_WORK: u32 = 1;
const H_PROBE: u32 = 2;
const H_REPORT: u32 = 3;
const H_STOP: u32 = 4;
const H_SOLN: u32 = 5;
const H_STEAL: u32 = 6;
const H_NOWORK: u32 = 7;
/// Coordinator's acknowledgement of a solution report (fault injection
/// only; fault-free runs never send it).
const H_SOLN_ACK: u32 = 8;

const WAIT_WORK: u32 = 0x6000_0000;
const WAIT_DONE: u32 = 0x6000_0001;

/// Initial timeout for the chaos-mode retry loops (idle wait, H_STOP
/// re-broadcast, H_SOLN re-send); doubles per retry up to 16×. Never
/// consulted when fault injection is inert.
const RETRY_TIMEOUT: u64 = 100_000;

/// Consecutive all-idle probe rounds with unchanging totals required to
/// declare termination under fault injection, where `sent == processed`
/// can never be reached if a work message was dropped.
const STABLE_ROUNDS: u32 = 4;

/// Report-wait spins after which a chaos-mode coordinator abandons a probe
/// round (a probe or report was likely dropped) and starts a fresh one.
const PROBE_SPIN_LIMIT: u32 = 2_000;

/// Parameters of the enum benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumParams {
    /// Rows in the triangle. The paper uses 6 ("6 pegs/side"); the scaled
    /// default is 5 (15 holes), which still produces hundreds of thousands
    /// of search nodes.
    pub side: u32,
    /// Which hole starts empty (0 = apex). Note the side-4 board is
    /// unsolvable from the apex; use hole 1 there.
    pub empty: u32,
    /// Search-tree depth (pegs removed) up to which *every* child is
    /// sprayed to its hash-owner node, for initial load distribution.
    pub spray_depth: u32,
    /// Below `spray_depth`, the percentage of children sprayed (chosen
    /// deterministically by board hash). This spreads messaging evenly
    /// over the whole run, like the original benchmark's steady fine-grain
    /// traffic, instead of a saturating burst at the top of the tree.
    pub spray_percent: u32,
    /// Boards handed over per work-steal grant (idle nodes steal from the
    /// shallow end of a victim's queue, keeping the search balanced).
    pub steal_batch: usize,
    /// Cycles charged per node expansion (move generation).
    pub expand_cost: u64,
}

impl Default for EnumParams {
    fn default() -> Self {
        EnumParams {
            side: 5,
            empty: 0,
            spray_depth: 4,
            spray_percent: 7,
            steal_batch: 2,
            expand_cost: 150,
        }
    }
}

/// Triangular-board move table: (from, over, to) position triples.
fn move_table(side: u32) -> Vec<(u32, u32, u32)> {
    let idx = |r: i32, c: i32| -> Option<u32> {
        if r >= 0 && r < side as i32 && c >= 0 && c <= r {
            Some((r * (r + 1) / 2 + c) as u32)
        } else {
            None
        }
    };
    let mut moves = Vec::new();
    for r in 0..side as i32 {
        for c in 0..=r {
            let from = idx(r, c).expect("in range");
            // Six directions on the triangular grid: (dr, dc).
            for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)] {
                if let (Some(over), Some(to)) = (idx(r + dr, c + dc), idx(r + 2 * dr, c + 2 * dc)) {
                    moves.push((from, over, to));
                }
            }
        }
    }
    moves
}

fn hash_board(b: u32) -> u64 {
    let mut z = b as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct NodeState {
    queue: VecDeque<u32>,
    sent: u32,
    processed: u32,
    expanding: bool,
    stopped: bool,
    /// A steal request is outstanding; cleared by a work grant or an
    /// explicit no-work reply. Prevents banked wake permits from spinning
    /// the idle loop into a steal flood.
    steal_out: bool,
    solutions: u64,
    /// Chaos mode: the coordinator acknowledged our solution report.
    soln_acked: bool,
    // Coordinator (node 0) only:
    reports: Vec<Option<(u32, u32, bool)>>, // per node (sent, processed, idle)
    report_gen: u32,
    last_totals: Option<(u32, u32)>,
    /// Chaos mode: consecutive all-idle rounds with unchanged totals.
    stable_rounds: u32,
    /// Which nodes have reported solutions (dedup for re-sent reports).
    soln_from: Vec<bool>,
    soln_in: usize,
    soln_total: u64,
}

/// The enum program. Total solutions are published through
/// [`EnumApp::solutions`] after the run.
pub struct EnumApp {
    params: EnumParams,
    moves: Vec<(u32, u32, u32)>,
    holes: u32,
    nodes: Vec<RefCell<NodeState>>,
    result: Cell<Option<u64>>,
}

impl EnumApp {
    /// Builds the program for `nodes` nodes.
    pub fn new(nodes: usize, params: EnumParams) -> Self {
        assert!((3..=6).contains(&params.side), "side must be 3..=6");
        let holes = params.side * (params.side + 1) / 2;
        assert!(params.empty < holes, "empty hole out of range");
        EnumApp {
            moves: move_table(params.side),
            params,
            holes,
            nodes: (0..nodes)
                .map(|_| {
                    RefCell::new(NodeState {
                        reports: vec![None; nodes],
                        soln_from: vec![false; nodes],
                        ..NodeState::default()
                    })
                })
                .collect(),
            result: Cell::new(None),
        }
    }

    /// Job spec named "enum".
    pub fn spec(nodes: usize, params: EnumParams) -> Arc<EnumApp> {
        Arc::new(EnumApp::new(nodes, params))
    }

    /// Wraps an `Arc`'d app into a job spec.
    pub fn job(app: &Arc<EnumApp>) -> JobSpec {
        JobSpec::new("enum", Arc::clone(app) as Arc<dyn Program>)
    }

    /// The total number of solutions, available after the run completes.
    pub fn solutions(&self) -> Option<u64> {
        self.result.get()
    }

    /// Sequential reference enumeration (host-side), for validation.
    pub fn reference_count(params: EnumParams) -> u64 {
        let holes = params.side * (params.side + 1) / 2;
        let moves = move_table(params.side);
        let root = ((1u32 << holes) - 1) & !(1 << params.empty);
        let mut stack = vec![root];
        let mut solutions = 0u64;
        while let Some(b) = stack.pop() {
            if b.count_ones() == 1 {
                solutions += 1;
                continue;
            }
            for &(from, over, to) in &moves {
                if b & (1 << from) != 0 && b & (1 << over) != 0 && b & (1 << to) == 0 {
                    stack.push(b & !(1 << from) & !(1 << over) | (1 << to));
                }
            }
        }
        solutions
    }

    fn initial_board(&self) -> u32 {
        ((1u32 << self.holes) - 1) & !(1 << self.params.empty)
    }

    /// Expands one board, spraying shallow children and queueing deep ones.
    async fn expand(&self, ctx: &mut UserCtx, board: u32) {
        let me = ctx.node();
        let p = ctx.nodes();
        ctx.compute(self.params.expand_cost).await;
        if board.count_ones() == 1 {
            self.nodes[me].borrow_mut().solutions += 1;
            return;
        }
        let depth = self.holes - 1 - board.count_ones(); // pegs removed so far
        let mut outgoing: Vec<(usize, u32)> = Vec::new();
        {
            let mut st = self.nodes[me].borrow_mut();
            for &(from, over, to) in &self.moves {
                if board & (1 << from) != 0 && board & (1 << over) != 0 && board & (1 << to) == 0 {
                    let child = board & !(1 << from) & !(1 << over) | (1 << to);
                    let h = hash_board(child);
                    let spray = p > 1
                        && (depth < self.params.spray_depth
                            || (h >> 32) % 100 < self.params.spray_percent as u64);
                    let dst = if spray { (h % p as u64) as usize } else { me };
                    if dst == me {
                        st.queue.push_back(child);
                    } else {
                        st.sent += 1;
                        outgoing.push((dst, child));
                    }
                }
            }
        }
        for (dst, child) in outgoing {
            ctx.send(dst, H_WORK, &[child]).await;
        }
    }

    /// Coordinator: one probe round; returns `true` when stably terminated.
    async fn coordinator_round(&self, ctx: &mut UserCtx) -> bool {
        let p = ctx.nodes();
        let gen = {
            let mut st = self.nodes[0].borrow_mut();
            st.report_gen += 1;
            st.reports = vec![None; p];
            // Self-report.
            let self_idle = st.queue.is_empty() && !st.expanding;
            st.reports[0] = Some((st.sent, st.processed, self_idle));
            st.report_gen
        };
        for n in 1..p {
            ctx.send(n, H_PROBE, &[gen]).await;
        }
        // Wait for all reports (they arrive via interrupts).
        let mut spins = 0u32;
        loop {
            {
                let st = self.nodes[0].borrow();
                if st.reports.iter().all(Option::is_some) {
                    break;
                }
                if !st.queue.is_empty() {
                    return false; // new work arrived; abandon this round
                }
            }
            spins += 1;
            if spins > PROBE_SPIN_LIMIT && ctx.faults_active() {
                // A probe or report was probably dropped; abandon the round
                // (its generation number makes stragglers harmless).
                return false;
            }
            ctx.compute(1_000).await;
        }
        let mut st = self.nodes[0].borrow_mut();
        let mut sent = 0u32;
        let mut processed = 0u32;
        let mut all_idle = true;
        for r in st.reports.iter().flatten() {
            sent += r.0;
            processed += r.1;
            all_idle &= r.2;
        }
        if ctx.faults_active() {
            // Dropped work messages make `sent == processed` unreachable,
            // and duplicated ones can push `processed` past `sent`. Declare
            // termination once everyone has stayed idle with unchanging
            // totals for several consecutive rounds.
            if all_idle && st.last_totals == Some((sent, processed)) {
                st.stable_rounds += 1;
            } else {
                st.stable_rounds = 0;
            }
            st.last_totals = if all_idle {
                Some((sent, processed))
            } else {
                None
            };
            return st.stable_rounds >= STABLE_ROUNDS;
        }
        if all_idle && sent == processed && st.last_totals == Some((sent, processed)) {
            return true;
        }
        st.last_totals = if all_idle && sent == processed {
            Some((sent, processed))
        } else {
            None
        };
        false
    }
}

impl Program for EnumApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            if me == 0 {
                self.nodes[0]
                    .borrow_mut()
                    .queue
                    .push_back(self.initial_board());
            }
            loop {
                let work = {
                    let mut st = self.nodes[me].borrow_mut();
                    if st.stopped {
                        break;
                    }
                    let w = st.queue.pop_back(); // DFS: newest (deepest) first
                    st.expanding = w.is_some();
                    w
                };
                match work {
                    Some(board) => {
                        self.expand(ctx, board).await;
                        let mut st = self.nodes[me].borrow_mut();
                        st.expanding = false;
                    }
                    None => {
                        let may_steal = {
                            let mut st = self.nodes[me].borrow_mut();
                            if st.stopped {
                                break;
                            }
                            if p > 1 && !st.steal_out {
                                st.steal_out = true;
                                true
                            } else {
                                false
                            }
                        };
                        if may_steal {
                            // Work stealing: ask a random victim for boards
                            // from the shallow end of its queue.
                            ctx.compute(300).await; // pacing backoff
                            let victim = {
                                let r = ctx.rng().range_u64(0, p as u64 - 1) as usize;
                                if r >= me {
                                    r + 1
                                } else {
                                    r
                                }
                            };
                            ctx.send(victim, H_STEAL, &[me as u32]).await;
                        }
                        if me == 0 {
                            if p == 1 || self.coordinator_round(ctx).await {
                                // Terminated: tell everyone.
                                for n in 1..p {
                                    ctx.send(n, H_STOP, &[]).await;
                                }
                                break;
                            }
                            ctx.compute(5_000).await; // probe backoff
                        } else if ctx.faults_active() {
                            // Chaos mode: a steal reply or the final H_STOP may
                            // have been dropped; wake periodically and allow a
                            // fresh steal attempt.
                            if !ctx.block_timeout(WAIT_WORK, RETRY_TIMEOUT).await {
                                self.nodes[me].borrow_mut().steal_out = false;
                            }
                        } else {
                            ctx.block(WAIT_WORK).await;
                        }
                    }
                }
            }
            // Solution aggregation: the infrequent synchronization.
            if me == 0 {
                let mine = self.nodes[0].borrow().solutions;
                let mut timeout = RETRY_TIMEOUT;
                loop {
                    {
                        let mut st = self.nodes[0].borrow_mut();
                        if st.soln_in == p - 1 {
                            self.result.set(Some(st.soln_total + mine));
                            st.soln_in = 0;
                            break;
                        }
                    }
                    if ctx.faults_active() {
                        // Chaos mode: an H_STOP or a solution report may have
                        // been dropped. Nudge the laggards again on timeout.
                        if !ctx.block_timeout(WAIT_WORK, timeout).await {
                            let missing: Vec<usize> = {
                                let st = self.nodes[0].borrow();
                                (1..p).filter(|&n| !st.soln_from[n]).collect()
                            };
                            for n in missing {
                                ctx.send(n, H_STOP, &[]).await;
                            }
                            timeout = timeout.saturating_mul(2).min(RETRY_TIMEOUT * 16);
                        }
                    } else {
                        ctx.block(WAIT_WORK).await;
                    }
                }
            } else {
                let mine = self.nodes[me].borrow().solutions;
                let report = [(mine >> 32) as u32, mine as u32];
                ctx.send(0, H_SOLN, &report).await;
                if ctx.faults_active() {
                    // Chaos mode: re-send the report until the coordinator
                    // acknowledges it (it dedups by source).
                    let mut timeout = RETRY_TIMEOUT;
                    loop {
                        if self.nodes[me].borrow().soln_acked {
                            break;
                        }
                        if !ctx.block_timeout(WAIT_DONE, timeout).await {
                            ctx.send(0, H_SOLN, &report).await;
                            timeout = timeout.saturating_mul(2).min(RETRY_TIMEOUT * 16);
                        }
                    }
                }
            }
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            match env.handler.0 {
                H_WORK => {
                    {
                        let mut st = self.nodes[me].borrow_mut();
                        st.processed += 1;
                        st.steal_out = false;
                        st.queue.push_back(env.payload[0]);
                    }
                    ctx.compute(160).await; // queue insertion bookkeeping
                    ctx.wake(WAIT_WORK).await;
                }
                H_PROBE => {
                    let gen = env.payload[0];
                    let (sent, processed, idle) = {
                        let st = self.nodes[me].borrow();
                        (st.sent, st.processed, st.queue.is_empty() && !st.expanding)
                    };
                    ctx.send(0, H_REPORT, &[gen, sent, processed, idle as u32, me as u32])
                        .await;
                }
                H_REPORT => {
                    let mut st = self.nodes[0].borrow_mut();
                    if env.payload[0] == st.report_gen {
                        let from = env.payload[4] as usize;
                        st.reports[from] =
                            Some((env.payload[1], env.payload[2], env.payload[3] != 0));
                    }
                }
                H_STOP => {
                    {
                        let mut st = self.nodes[me].borrow_mut();
                        st.stopped = true;
                    }
                    ctx.wake(WAIT_WORK).await;
                }
                H_STEAL => {
                    let thief = env.payload[0] as usize;
                    let mut grants = Vec::new();
                    {
                        let mut st = self.nodes[me].borrow_mut();
                        for _ in 0..self.params.steal_batch {
                            // Leave the victim at least one board; take from
                            // the front (shallowest = largest subtrees).
                            if st.queue.len() > 1 {
                                let b = st.queue.pop_front().expect("len checked");
                                st.sent += 1;
                                grants.push(b);
                            }
                        }
                    }
                    if grants.is_empty() {
                        ctx.send(thief, H_NOWORK, &[]).await;
                    } else {
                        for b in grants {
                            ctx.send(thief, H_WORK, &[b]).await;
                        }
                    }
                }
                H_NOWORK => {
                    {
                        let mut st = self.nodes[me].borrow_mut();
                        st.steal_out = false;
                    }
                    ctx.wake(WAIT_WORK).await;
                }
                H_SOLN => {
                    let fresh = {
                        let mut st = self.nodes[0].borrow_mut();
                        if st.soln_from[env.src] {
                            false // re-sent report, already folded in
                        } else {
                            st.soln_from[env.src] = true;
                            st.soln_total +=
                                ((env.payload[0] as u64) << 32) | env.payload[1] as u64;
                            st.soln_in += 1;
                            true
                        }
                    };
                    if ctx.faults_active() {
                        ctx.send(env.src, H_SOLN_ACK, &[]).await;
                    }
                    if fresh {
                        ctx.wake(WAIT_WORK).await;
                    }
                }
                H_SOLN_ACK => {
                    {
                        let mut st = self.nodes[me].borrow_mut();
                        st.soln_acked = true;
                    }
                    ctx.wake(WAIT_DONE).await;
                }
                other => panic!("enum: unexpected handler {other}"),
            }
        })
    }
}
