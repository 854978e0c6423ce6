//! Ablations of design choices called out in DESIGN.md §6:
//!
//! 1. **Atomicity-timeout value** — how aggressively the revocable
//!    interrupt disable revokes. The paper calls this "a free parameter
//!    that may be changed without affecting correctness"; this ablation
//!    shows its performance effect on a polling application that
//!    occasionally overruns.
//! 2. **NIC input-queue depth** — FUGU argues a *small* hardware queue
//!    suffices because the software buffer absorbs bursts; this measures
//!    the sensitivity.
//! 3. **Gang scheduling quality** — the overflow-control premise that a
//!    well-behaved application recovers from buffering if gang scheduled:
//!    compares perfectly aligned vs. heavily skewed schedules.
//! 4. **Revocation vs polling watchdog** — the §2 alternative policy.

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use fugu_apps::{NullApp, SynthApp, SynthParams};
use fugu_bench::{machine, parallel_map, pct, write_report, Json, Opts, Table};
use udm::{CostModel, JobSpec, Machine, MachineConfig, NicConfig};

fn main() {
    let opts = Opts::parse(4);
    let mut points = Vec::new();

    // ------------------------------------------------------------------
    println!("Ablation 1 — atomicity timeout vs buffering (synth-100, T_betw = 275)");
    let timeouts = [1_000u64, 4_000, 8_192, 32_000, 128_000];
    let results = parallel_map(opts.jobs, &timeouts, |&timeout| {
        let costs = CostModel {
            atomicity_timeout: timeout,
            ..CostModel::hard_atomicity()
        };
        let mut m = machine(opts.nodes, 0.01, opts.seed, costs);
        m.add_job(SynthApp::spec(
            opts.nodes,
            SynthParams {
                group: 100,
                groups: if opts.quick { 5 } else { 20 },
                t_betw: 275,
                handler_stall: 193,
            },
        ));
        m.add_job(NullApp::spec());
        let r = m.run();
        let j = r.job("synth");
        (j.buffered_fraction(), j.atomicity_timeouts)
    });
    let mut t = Table::new(&["timeout (cycles)", "% buffered", "revocations"]);
    for (&timeout, &(frac, revocations)) in timeouts.iter().zip(&results) {
        t.row(vec![
            timeout.to_string(),
            pct(frac),
            revocations.to_string(),
        ]);
        points.push(Json::object([
            ("section", Json::from("atomicity_timeout")),
            ("timeout", Json::from(timeout)),
            ("buffered_fraction", Json::from(frac)),
            ("revocations", Json::from(revocations)),
        ]));
    }
    t.print();
    println!();

    // ------------------------------------------------------------------
    println!("Ablation 2 — NIC input queue depth (synth-1000 burst, T_betw = 100)");
    let depths = [1usize, 2, 4, 8, 16];
    let results = parallel_map(opts.jobs, &depths, |&depth| {
        let mut m = Machine::new(MachineConfig {
            nodes: opts.nodes,
            skew: 0.01,
            seed: opts.seed,
            nic: NicConfig {
                input_queue_msgs: depth,
            },
            ..Default::default()
        });
        m.add_job(SynthApp::spec(
            opts.nodes,
            SynthParams {
                group: 1_000,
                groups: if opts.quick { 2 } else { 4 },
                t_betw: 100,
                handler_stall: 193,
            },
        ));
        m.add_job(NullApp::spec());
        let r = m.run();
        let j = r.job("synth");
        (j.buffered_fraction(), r.end_time)
    });
    let mut t = Table::new(&["queue (msgs)", "% buffered", "end time (Mcycles)"]);
    for (&depth, &(frac, end_time)) in depths.iter().zip(&results) {
        t.row(vec![
            depth.to_string(),
            pct(frac),
            format!("{:.2}", end_time as f64 / 1e6),
        ]);
        points.push(Json::object([
            ("section", Json::from("nic_queue_depth")),
            ("depth", Json::from(depth)),
            ("buffered_fraction", Json::from(frac)),
            ("end_time", Json::from(end_time)),
        ]));
    }
    t.print();
    println!();

    // ------------------------------------------------------------------
    println!("Ablation 3 — schedule quality as recovery mechanism (synth-1000)");
    let skews = [0u32, 1, 5, 20, 40];
    let results = parallel_map(opts.jobs, &skews, |&skew_pct| {
        let r = run_synth_with_skew(1_000, 275, skew_pct as f64 / 100.0, &opts);
        let j = r.job("synth");
        (j.buffered_fraction(), r.peak_buffer_pages())
    });
    let mut t = Table::new(&["skew", "% buffered", "peak pages/node"]);
    for (&skew_pct, &(frac, peak)) in skews.iter().zip(&results) {
        t.row(vec![format!("{skew_pct}%"), pct(frac), peak.to_string()]);
        points.push(Json::object([
            ("section", Json::from("schedule_quality")),
            ("skew", Json::from(skew_pct as f64 / 100.0)),
            ("buffered_fraction", Json::from(frac)),
            ("peak_pages", Json::from(peak)),
        ]));
    }
    t.print();
    println!();

    // ------------------------------------------------------------------
    println!("Ablation 4 — revocation (paper) vs polling watchdog (§2 alternative)");
    println!("(sluggish poller: polls every 20k cycles, timeout 8192)");
    let policies = [false, true];
    let results = parallel_map(opts.jobs, &policies, |&watchdog| {
        let mut m = Machine::new(MachineConfig {
            nodes: 2,
            polling_watchdog: watchdog,
            seed: opts.seed,
            ..Default::default()
        });
        m.add_job(JobSpec::new(
            "sluggish",
            std::sync::Arc::new(SluggishPoller::new(if opts.quick { 50 } else { 400 }))
                as std::sync::Arc<dyn udm::Program>,
        ));
        let r = m.run();
        let j = r.job("sluggish");
        (
            j.buffered_fraction(),
            j.atomicity_timeouts,
            j.watchdog_fires,
            r.end_time,
        )
    });
    let mut t = Table::new(&[
        "policy",
        "% buffered",
        "revocations",
        "watchdog fires",
        "end (Mcycles)",
    ]);
    for (&watchdog, &(frac, revocations, fires, end_time)) in policies.iter().zip(&results) {
        let policy = if watchdog {
            "watchdog"
        } else {
            "revoke-to-buffered"
        };
        t.row(vec![
            policy.into(),
            pct(frac),
            revocations.to_string(),
            fires.to_string(),
            format!("{:.2}", end_time as f64 / 1e6),
        ]);
        points.push(Json::object([
            ("section", Json::from("watchdog_policy")),
            ("policy", Json::from(policy)),
            ("buffered_fraction", Json::from(frac)),
            ("revocations", Json::from(revocations)),
            ("watchdog_fires", Json::from(fires)),
            ("end_time", Json::from(end_time)),
        ]));
    }
    t.print();
    write_report(&opts, "ablate", Json::array(points));
}

/// Node 1 holds atomicity and polls only every 20k cycles — far past the
/// 8192-cycle timeout — while node 0 streams messages at it. Receipt is
/// counted in the handler so the program terminates under either timer
/// policy (forced watchdog interrupts consume messages outside `poll`).
struct SluggishPoller {
    count: u32,
    received: std::cell::Cell<u32>,
}

impl SluggishPoller {
    fn new(count: u32) -> Self {
        SluggishPoller {
            count,
            received: std::cell::Cell::new(0),
        }
    }
}

impl udm::Program for SluggishPoller {
    fn main<'a>(&'a self, ctx: &'a mut udm::UserCtx) -> udm::Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                for _ in 0..self.count {
                    ctx.send(1, 0, &[]).await;
                    ctx.compute(5_000).await;
                }
            } else {
                ctx.begin_atomic().await;
                while self.received.get() < self.count {
                    ctx.compute(20_000).await; // sluggish
                    while ctx.poll().await {}
                }
                ctx.end_atomic().await;
            }
        })
    }
    fn handler<'a>(&'a self, _ctx: &'a mut udm::UserCtx, _env: &'a udm::Envelope) -> udm::Sim<'a> {
        Box::pin(async move {
            self.received.set(self.received.get() + 1);
        })
    }
}

fn run_synth_with_skew(group: u32, t_betw: u64, skew: f64, opts: &Opts) -> udm::RunReport {
    let mut m = machine(opts.nodes, skew, opts.seed, CostModel::hard_atomicity());
    m.add_job(SynthApp::spec(
        opts.nodes,
        SynthParams {
            group,
            groups: if opts.quick { 2 } else { 6 },
            t_betw,
            handler_stall: 193,
        },
    ));
    m.add_job(NullApp::spec());
    m.run()
}
