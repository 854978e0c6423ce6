//! The `synth-N` producer/consumer application of §5.2.
//!
//! "Our synthetic application, synth-N, performs producer-consumer
//! communication between four processors with various amounts of
//! synchronization. At the consumer node, each incoming message from the
//! producer invokes a request handler that stalls for a short period, and
//! then sends a reply message. ... Each node iteratively generates groups
//! of N messages, directed randomly to the other nodes, and then waits for
//! all the acknowledgements from that group of requests. ... The interval
//! between individual message sends is a uniformly distributed random
//! variable with an average of `T_betw` cycles."

use std::cell::Cell;
use std::sync::Arc;

use udm::{Cycles, Envelope, JobSpec, Program, Sim, UserCtx};

const H_REQUEST: u32 = 1;
const H_REPLY: u32 = 2;
const WAIT_REPLIES: u32 = 0x5000_0000;

/// Parameters of synth-N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthParams {
    /// Messages per synchronization group (the paper's N: 10, 100, 1000).
    pub group: u32,
    /// Number of groups each node produces.
    pub groups: u32,
    /// Mean inter-send interval in cycles (uniform on `[0, 2·t_betw]`).
    pub t_betw: Cycles,
    /// Request-handler stall: the paper fixes the total handler time at
    /// 290 cycles including interrupt and kernel overhead; this is the
    /// stall portion executed in the handler body.
    pub handler_stall: Cycles,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            group: 10,
            groups: 20,
            t_betw: 1_000,
            // 290 total minus the 87-cycle interrupt overhead and the
            // ~10-cycle reply send ≈ 193 cycles of stall.
            handler_stall: 193,
        }
    }
}

/// The synth-N program.
pub struct SynthApp {
    params: SynthParams,
    /// Replies received, per node.
    replies: Vec<Cell<u64>>,
}

impl SynthApp {
    /// Builds the program for `nodes` nodes (the paper uses four).
    pub fn new(nodes: usize, params: SynthParams) -> Self {
        assert!(nodes >= 2, "synth needs at least two nodes");
        SynthApp {
            params,
            replies: (0..nodes).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Job spec named "synth".
    pub fn spec(nodes: usize, params: SynthParams) -> JobSpec {
        JobSpec::new("synth", Arc::new(SynthApp::new(nodes, params)))
    }
}

impl Program for SynthApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let me = ctx.node();
            let p = ctx.nodes();
            let mut expected: u64 = 0;
            for _ in 0..self.params.groups {
                for _ in 0..self.params.group {
                    // Uniform inter-send gap with mean t_betw.
                    let gap = ctx.rng().range_u64(0, 2 * self.params.t_betw + 1);
                    if gap > 0 {
                        ctx.compute(gap).await;
                    }
                    let dst = {
                        let r = ctx.rng().range_u64(0, p as u64 - 1) as usize;
                        if r >= me {
                            r + 1
                        } else {
                            r
                        }
                    };
                    ctx.send(dst, H_REQUEST, &[]).await;
                    expected += 1;
                }
                // Synchronization point: wait for the whole group's replies.
                while self.replies[me].get() < expected {
                    ctx.block(WAIT_REPLIES).await;
                }
            }
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            match env.handler.0 {
                H_REQUEST => {
                    if self.params.handler_stall > 0 {
                        ctx.compute(self.params.handler_stall).await;
                    }
                    ctx.send(env.src, H_REPLY, &[]).await;
                }
                H_REPLY => {
                    let replies = &self.replies[ctx.node()];
                    replies.set(replies.get() + 1);
                    ctx.wake(WAIT_REPLIES).await;
                }
                other => panic!("synth: unexpected handler {other}"),
            }
        })
    }
}
