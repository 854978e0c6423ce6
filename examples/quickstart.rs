//! Quickstart: user-level ping-pong on the simulated FUGU machine.
//!
//! Demonstrates the UDM model end to end — interrupt-driven reception on
//! one side, atomic-section polling on the other — and prints the measured
//! fast-path costs, which land exactly on the paper's Table 4 numbers
//! (87-cycle protected interrupt receive, 9-cycle poll, 7-cycle send).
//!
//! Run: `cargo run --release --example quickstart`

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use two_case_delivery::{Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

const ROUNDS: u32 = 1_000;
const PING: u32 = 1;
const PONG: u32 = 2;

struct PingPong {
    /// Round-trip latencies measured on node 0.
    rtts: RefCell<Vec<u64>>,
    pongs: Cell<u32>,
}

impl Program for PingPong {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                // Interrupt-driven side: handlers count pongs while we wait.
                for i in 0..ROUNDS {
                    let t0 = ctx.now().await;
                    ctx.send(1, PING, &[i]).await;
                    while self.pongs.get() <= i {
                        ctx.compute(20).await;
                    }
                    let rtt = ctx.now().await - t0;
                    self.rtts.borrow_mut().push(rtt);
                }
            } else {
                // Polling side: disable interrupts and spin on the flag, the
                // classic closely-orchestrated receive loop of §4.1.
                ctx.begin_atomic().await;
                let mut got = 0;
                while got < ROUNDS {
                    if ctx.poll().await {
                        got += 1;
                    } else {
                        ctx.compute(10).await;
                    }
                }
                ctx.end_atomic().await;
            }
        })
    }

    fn handler<'a>(&'a self, ctx: &'a mut UserCtx, env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            match env.handler.0 {
                PING => ctx.send(env.src, PONG, &[]).await,
                PONG => self.pongs.set(self.pongs.get() + 1),
                other => panic!("unexpected handler {other}"),
            }
        })
    }
}

fn main() {
    let app = Arc::new(PingPong {
        rtts: RefCell::new(Vec::new()),
        pongs: Cell::new(0),
    });
    let mut machine = Machine::new(MachineConfig {
        nodes: 2,
        ..Default::default()
    });
    machine.add_job(JobSpec::new(
        "pingpong",
        Arc::clone(&app) as Arc<dyn Program>,
    ));
    let report = machine.run();

    let job = report.job("pingpong");
    let rtts = app.rtts.borrow();
    let mean = rtts.iter().sum::<u64>() as f64 / rtts.len() as f64;
    println!("two-case delivery quickstart — {} ping-pong rounds", ROUNDS);
    println!("  messages sent:          {}", job.sent);
    println!("  fast-path deliveries:   {}", job.delivered_fast);
    println!("  buffered deliveries:    {}", job.delivered_buffered);
    println!("  mean round trip:        {mean:.0} cycles");
    println!(
        "  mean handler cost:      {:.0} cycles (mix of 87-cycle interrupt",
        job.handler_cycles.mean()
    );
    println!("                          deliveries and 9-cycle poll dispatches, Table 4)");
    println!("  simulated time:         {} cycles", report.end_time);
}
