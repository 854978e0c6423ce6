//! Table 4: cycle counts to send and receive a null message, for the three
//! atomicity implementations (kernel mode / hard atomicity / soft
//! atomicity).
//!
//! The itemized rows are the cost-model parameters; the `measured` rows are
//! obtained by actually running ping-pong programs on the simulated
//! machine and timing the paths, verifying that the machine charges every
//! step (the totals must equal the paper's 54/87/115 interrupt and 9
//! polling cycles by construction — see EXPERIMENTS.md).

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use fugu_bench::{write_report, Json, Opts, Table};
use udm::{CostModel, Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

/// Node 0 sends `count` spaced null messages; node 1 computes and takes
/// interrupts. Send costs are measured on node 0 with `now()`.
struct InterruptProbe {
    count: u32,
    send_cycles: RefCell<Vec<u64>>,
    received: Cell<u32>,
}

impl Program for InterruptProbe {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                for _ in 0..self.count {
                    let t0 = ctx.now().await;
                    ctx.send(1, 0, &[]).await;
                    let t1 = ctx.now().await;
                    self.send_cycles.borrow_mut().push(t1 - t0);
                    ctx.compute(2_000).await;
                }
            } else {
                while self.received.get() < self.count {
                    ctx.compute(1_000).await;
                }
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {
            self.received.set(self.received.get() + 1);
        })
    }
}

/// Node 0 sends spaced nulls; node 1 polls inside an atomic section and
/// measures the cost of each successful poll.
struct PollProbe {
    count: u32,
    poll_cycles: RefCell<Vec<u64>>,
}

impl Program for PollProbe {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                for _ in 0..self.count {
                    ctx.send(1, 0, &[]).await;
                    ctx.compute(2_000).await;
                }
            } else {
                ctx.begin_atomic().await;
                let mut got = 0;
                while got < self.count {
                    let t0 = ctx.now().await;
                    if ctx.poll().await {
                        let t1 = ctx.now().await;
                        self.poll_cycles.borrow_mut().push(t1 - t0);
                        got += 1;
                    } else {
                        ctx.compute(50).await;
                    }
                }
                ctx.end_atomic().await;
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut UserCtx, _env: &'a Envelope) -> Sim<'a> {
        Box::pin(async move {})
    }
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
}

fn main() {
    let opts = Opts::parse(2);
    let count = if opts.quick { 20 } else { 200 };

    println!("Table 4 — cycle counts to send and receive a null message");
    println!("(paper: send 7; interrupt 54 / 87 / 115; polling 9)\n");

    let mut t = Table::new(&["item", "kernel mode", "hard atomicity", "soft atomicity"]);
    let models = [
        CostModel::kernel(),
        CostModel::hard_atomicity(),
        CostModel::soft_atomicity(),
    ];
    let item = |name: &str, f: &dyn Fn(&CostModel) -> u64| -> Vec<String> {
        let mut row = vec![name.to_string()];
        for m in &models {
            let v = f(m);
            row.push(if v == 0 { "-".into() } else { v.to_string() });
        }
        row
    };
    t.row(item("descriptor construction", &|m| m.send_descriptor));
    t.row(item("launch", &|m| m.send_launch));
    t.row(item("send total (model)", &|m| m.send_total(0)));
    t.row(item("interrupt overhead", &|m| {
        m.rx_interrupt.interrupt_overhead
    }));
    t.row(item("register save", &|m| m.rx_interrupt.register_save));
    t.row(item("GID check", &|m| m.rx_interrupt.gid_check));
    t.row(item("timer setup", &|m| m.rx_interrupt.timer_setup));
    t.row(item("virtual buffering overhead", &|m| {
        m.rx_interrupt.vbuf_overhead
    }));
    t.row(item("dispatch (+ upcall)", &|m| m.rx_interrupt.dispatch));
    t.row(item("subtotal", &|m| m.rx_interrupt.pre()));
    t.row(item("null handler (w/dispose)", &|m| m.null_handler));
    t.row(item("upcall cleanup", &|m| m.rx_interrupt.upcall_cleanup));
    t.row(item("timer cleanup", &|m| m.rx_interrupt.timer_cleanup));
    t.row(item("register restore", &|m| {
        m.rx_interrupt.register_restore
    }));
    t.row(item("interrupt total (model)", &|m| {
        m.rx_interrupt_total(0)
    }));
    t.row(item("polling total (model)", &|m| m.poll_total(0)));

    // Measured rows from simulated runs.
    let mut send_measured = Vec::new();
    let mut int_measured = Vec::new();
    let mut poll_measured = Vec::new();
    for costs in models {
        let probe = Arc::new(InterruptProbe {
            count,
            send_cycles: RefCell::new(Vec::new()),
            received: Cell::new(0),
        });
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            costs,
            seed: opts.seed,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "probe",
            Arc::clone(&probe) as Arc<dyn Program>,
        ));
        let r = m.run();
        send_measured.push(mean(&probe.send_cycles.borrow()));
        int_measured.push(r.job("probe").handler_cycles.mean());

        let poll = Arc::new(PollProbe {
            count,
            poll_cycles: RefCell::new(Vec::new()),
        });
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            costs,
            seed: opts.seed,
            ..Default::default()
        });
        m.add_job(JobSpec::new("poll", Arc::clone(&poll) as Arc<dyn Program>));
        m.run();
        poll_measured.push(mean(&poll.poll_cycles.borrow()));
    }
    t.row(vec![
        "send total (measured)".into(),
        format!("{:.0}", send_measured[0]),
        format!("{:.0}", send_measured[1]),
        format!("{:.0}", send_measured[2]),
    ]);
    t.row(vec![
        "interrupt total (measured)".into(),
        format!("{:.0}", int_measured[0]),
        format!("{:.0}", int_measured[1]),
        format!("{:.0}", int_measured[2]),
    ]);
    t.row(vec![
        "polling total (measured)".into(),
        format!("{:.0}", poll_measured[0]),
        format!("{:.0}", poll_measured[1]),
        format!("{:.0}", poll_measured[2]),
    ]);
    t.print();

    let mut points = Vec::new();
    for (i, name) in ["kernel", "hard", "soft"].iter().enumerate() {
        points.push(Json::object([
            ("atomicity", Json::from(*name)),
            ("send_model", Json::from(models[i].send_total(0))),
            (
                "interrupt_model",
                Json::from(models[i].rx_interrupt_total(0)),
            ),
            ("poll_model", Json::from(models[i].poll_total(0))),
            ("send_measured", Json::from(send_measured[i])),
            ("interrupt_measured", Json::from(int_measured[i])),
            ("poll_measured", Json::from(poll_measured[i])),
        ]));
    }
    write_report(&opts, "table4", Json::array(points));
}
