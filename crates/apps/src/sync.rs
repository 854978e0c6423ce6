//! Reusable dissemination barrier over UDM messages, for workloads that
//! need phase synchronization alongside their own traffic (the CRL
//! applications synchronize between computation phases exactly as their
//! SPLASH originals do).

use std::cell::RefCell;

use udm::{Cycles, Envelope, UserCtx};

/// Handler word used by barrier tokens; applications must route it to
/// [`MsgBarrier::handle`]. Payload: `[round | (episode + 1) << 6]` — the
/// episode is carried in the token so duplicated tokens are idempotent
/// (arrival tracking keeps a high-water mark, not a count) and dropped
/// tokens can simply be re-sent.
pub const H_BARRIER: u32 = 0x7B;

/// Initial re-send timeout for barrier tokens under fault injection;
/// doubles per retry up to 64×. Never consulted when faults are inert.
const RETRY_TIMEOUT: Cycles = 50_000;

struct NodeState {
    /// Per round: highest `episode + 1` a token has announced.
    arrived: Vec<u64>,
    /// Per round: highest `episode + 1` this node has itself announced
    /// (consulted to answer re-send requests under fault injection).
    sent: Vec<u64>,
    episodes: u64,
}

/// A reusable dissemination barrier across all nodes of a job.
///
/// `wait` may only be called from main threads, one episode at a time per
/// node; tokens may arrive arbitrarily early (counts are cumulative).
pub struct MsgBarrier {
    nodes: Vec<RefCell<NodeState>>,
    rounds: usize,
}

impl MsgBarrier {
    /// Creates a barrier for `nodes` participants.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two.
    pub fn new(nodes: usize) -> Self {
        assert!(
            nodes.is_power_of_two(),
            "barrier requires power-of-two nodes"
        );
        let rounds = nodes.trailing_zeros() as usize;
        MsgBarrier {
            nodes: (0..nodes)
                .map(|_| {
                    RefCell::new(NodeState {
                        arrived: vec![0; rounds.max(1)],
                        sent: vec![0; rounds.max(1)],
                        episodes: 0,
                    })
                })
                .collect(),
            rounds,
        }
    }

    fn key(round: usize) -> u32 {
        0x7B00_0000 | round as u32
    }

    /// Blocks until every node has entered the same barrier episode.
    pub async fn wait(&self, ctx: &mut UserCtx) {
        let me = ctx.node();
        let p = ctx.nodes();
        let episode = {
            let mut st = self.nodes[me].borrow_mut();
            let e = st.episodes;
            st.episodes += 1;
            e
        };
        if p == 1 {
            return;
        }
        for k in 0..self.rounds {
            let peer = (me + (1 << k)) % p;
            let token = [k as u32 | (((episode + 1) as u32) << 6)];
            {
                let mut st = self.nodes[me].borrow_mut();
                st.sent[k] = st.sent[k].max(episode + 1);
            }
            ctx.send(peer, H_BARRIER, &token).await;
            let mut timeout = RETRY_TIMEOUT;
            loop {
                {
                    let st = self.nodes[me].borrow();
                    if st.arrived[k] > episode {
                        break;
                    }
                }
                if ctx.faults_active() {
                    // Chaos mode: our token, or our predecessor's, may have
                    // been dropped. On timeout re-announce ours (receipt is
                    // a high-water mark, so duplicates are harmless) and
                    // ask the predecessor — who may long since have left
                    // this barrier — to re-announce its token.
                    if !ctx.block_timeout(Self::key(k), timeout).await {
                        ctx.send(peer, H_BARRIER, &token).await;
                        let pred = (me + p - (1 << k)) % p;
                        ctx.send(pred, H_BARRIER, &[k as u32]).await;
                        timeout = timeout.saturating_mul(2).min(RETRY_TIMEOUT * 64);
                    }
                } else {
                    ctx.block(Self::key(k)).await;
                }
            }
        }
    }

    /// Consumes a barrier token; returns `false` if `env` is not one.
    pub async fn handle(&self, ctx: &mut UserCtx, env: &Envelope) -> bool {
        if env.handler.0 != H_BARRIER {
            return false;
        }
        let round = (env.payload[0] & 0x3F) as usize;
        let announced = (env.payload[0] >> 6) as u64;
        let me = ctx.node();
        if announced == 0 {
            // Re-send request from our round-`round` successor (fault
            // injection only): repeat our highest announcement, if any.
            let sent = self.nodes[me].borrow().sent[round];
            if sent > 0 {
                let succ = (me + (1 << round)) % ctx.nodes();
                ctx.send(succ, H_BARRIER, &[round as u32 | ((sent as u32) << 6)])
                    .await;
            }
            return true;
        }
        {
            let mut st = self.nodes[me].borrow_mut();
            st.arrived[round] = st.arrived[round].max(announced);
        }
        ctx.wake(Self::key(round)).await;
        true
    }
}

/// Bit-level f32 <-> u32 codecs for storing floating-point data in CRL
/// regions (whose words are `u32`).
pub mod f32bits {
    /// Encodes a float slice into region words.
    pub fn encode(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Decodes region words into floats.
    pub fn decode(ws: &[u32]) -> Vec<f32> {
        ws.iter().map(|&w| f32::from_bits(w)).collect()
    }

    /// Reads one float from region words.
    pub fn get(ws: &[u32], i: usize) -> f32 {
        f32::from_bits(ws[i])
    }

    /// Writes one float into region words.
    pub fn set(ws: &mut [u32], i: usize, x: f32) {
        ws[i] = x.to_bits();
    }
}
