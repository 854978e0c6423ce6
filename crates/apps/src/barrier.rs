//! The `barrier` benchmark: "a synthetic application ... consists entirely
//! of barriers and thus synchronizes constantly" (§5.1).
//!
//! Each episode is one [`MsgBarrier`] wait: `log2(P)` dissemination rounds
//! in which node `i` sends a token to node `(i + 2^k) mod P` and waits for
//! the token from `(i − 2^k) mod P`. On eight nodes that is 3 messages per
//! node per barrier — 24 per barrier machine-wide, matching the paper's
//! 240,177 messages for 10,000 barriers.

use std::sync::Arc;

use udm::{Envelope, JobSpec, Program, Sim, UserCtx};

use crate::sync::MsgBarrier;

/// Parameters for the barrier benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierParams {
    /// Number of barrier episodes (the paper runs 10,000).
    pub barriers: u32,
    /// Cycles of "work" between barriers (the paper's version has none).
    pub work: u64,
}

impl Default for BarrierParams {
    fn default() -> Self {
        BarrierParams {
            barriers: 1_000,
            work: 0,
        }
    }
}

/// The dissemination-barrier program.
pub struct BarrierApp {
    params: BarrierParams,
    barrier: MsgBarrier,
}

impl BarrierApp {
    /// Builds the program for a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two (dissemination rounds).
    pub fn new(nodes: usize, params: BarrierParams) -> Self {
        BarrierApp {
            params,
            barrier: MsgBarrier::new(nodes),
        }
    }

    /// Job spec named "barrier".
    pub fn spec(nodes: usize, params: BarrierParams) -> JobSpec {
        JobSpec::new("barrier", Arc::new(BarrierApp::new(nodes, params)))
    }
}

impl Program for BarrierApp {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            let BarrierParams { barriers, work } = self.params;
            if ctx.nodes() == 1 {
                for _ in 0..barriers {
                    ctx.compute(work.max(1)).await;
                }
                return;
            }
            for _ in 0..barriers {
                if work > 0 {
                    ctx.compute(work).await;
                }
                self.barrier.wait(ctx).await;
            }
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            let token = self.barrier.handle(ctx, env).await;
            debug_assert!(token, "barrier: unexpected handler {}", env.handler.0);
        })
    }
}
