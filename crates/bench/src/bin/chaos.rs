//! Chaos harness: sweeps deterministic fault injection over every paper
//! application and asserts the delivery guarantees hold.
//!
//! For each application × fault-rate cell the harness runs a fresh machine
//! with a scaled [`FaultPlan`] (drops, duplicates, transit delays, NIC
//! stalls, frame-allocation failures, forced handler faults, quantum
//! jitter), attaches an [`InvariantChecker`] to the machine's tracer, and
//! checks:
//!
//! - **zero invariant violations** (conservation, per-channel FIFO, drain
//!   progress, buffering accounting) at every fault rate;
//! - **result integrity** — the CRL applications (barnes, water, lu) must
//!   produce *bit-identical* results under faults, because the CRL
//!   retry/timeout protocol is transparent; enum must terminate with a
//!   solution count and barrier must complete;
//! - **the retry protocol actually fires** — at the highest fault rate the
//!   CRL applications must have re-sent at least one request.
//!
//! The run is deterministic: the same `--seed` produces byte-identical
//! output (and `--json` report) on every invocation.

use std::sync::Arc;

use fugu_apps::{
    BarnesApp, BarnesParams, BarrierApp, BarrierParams, EnumApp, EnumParams, LuApp, LuParams,
    WaterApp, WaterParams,
};
use fugu_bench::{mcycles, parallel_map, pct, write_report, Json, Opts, Table};
use fugu_sim::fault::FaultPlan;
use udm::{InvariantChecker, JobSpec, Machine, MachineConfig};

/// The applications swept, in reporting order.
const APPS: [&str; 5] = ["barnes", "water", "lu", "barrier", "enum"];

/// Scales one knob `rate` into a full chaos plan exercising every
/// injection site at once.
fn plan(rate: f64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::default();
    }
    FaultPlan {
        drop: rate,
        duplicate: rate / 2.0,
        delay: rate,
        second_net_delay: rate,
        nic_stall: rate / 2.0,
        frame_fail: rate / 2.0,
        handler_fault: rate,
        quantum_jitter: 2_000,
        ..FaultPlan::default()
    }
}

/// Keeps the app `Arc` alive so results can be validated after the run.
enum Handle {
    Barnes(Arc<BarnesApp>),
    Water(Arc<WaterApp>),
    Lu(Arc<LuApp>),
    Barrier,
    Enum(Arc<EnumApp>),
}

impl Handle {
    /// The application's summary result: checksum (barnes/water), residual
    /// bits (lu) or solution count (enum); barrier has none.
    fn value(&self) -> Option<u64> {
        match self {
            Handle::Barnes(a) => Some(a.checksum().expect("barnes did not finish")),
            Handle::Water(a) => Some(a.checksum().expect("water did not finish")),
            Handle::Lu(a) => Some(a.residual().expect("lu did not finish").to_bits() as u64),
            Handle::Barrier => None,
            Handle::Enum(a) => Some(a.solutions().expect("enum did not finish")),
        }
    }

    /// CRL request retries fired by the timeout protocol.
    fn retries(&self) -> u64 {
        match self {
            Handle::Barnes(a) => a.crl_retries(),
            Handle::Water(a) => a.crl_retries(),
            Handle::Lu(a) => a.crl_retries(),
            Handle::Barrier | Handle::Enum(_) => 0,
        }
    }

    /// Whether the result must be bit-identical at every fault rate
    /// (the CRL retry protocol is transparent).
    fn exact(&self) -> bool {
        matches!(self, Handle::Barnes(_) | Handle::Water(_) | Handle::Lu(_))
    }
}

/// Builds one application job with the same data sets the other harnesses
/// use (`AppKind::job` sizes), keeping the `Arc` for validation.
fn build(app: &str, nodes: usize, quick: bool) -> (JobSpec, Handle) {
    match app {
        "barnes" => {
            let a = BarnesApp::spec(
                nodes,
                BarnesParams {
                    bodies: if quick { 64 } else { 256 },
                    iters: 3,
                    interact_cost: 120,
                    build_cost: 120,
                    ..Default::default()
                },
            );
            (BarnesApp::job(&a), Handle::Barnes(a))
        }
        "water" => {
            let a = WaterApp::spec(
                nodes,
                WaterParams {
                    molecules: if quick { 32 } else { 128 },
                    iters: 3,
                    pair_check_cost: 30,
                    interact_cost: 800,
                    ..Default::default()
                },
            );
            (WaterApp::job(&a), Handle::Water(a))
        }
        "lu" => {
            let a = LuApp::spec(
                nodes,
                LuParams {
                    n: if quick { 48 } else { 96 },
                    block: 12,
                    flop_cost: 32,
                },
            );
            (LuApp::job(&a), Handle::Lu(a))
        }
        "barrier" => {
            let spec = BarrierApp::spec(
                nodes,
                BarrierParams {
                    barriers: if quick { 100 } else { 400 },
                    work: 0,
                },
            );
            (spec, Handle::Barrier)
        }
        "enum" => {
            let a = EnumApp::spec(
                nodes,
                EnumParams {
                    side: 4,
                    empty: 1,
                    spray_depth: 4,
                    spray_percent: 25,
                    steal_batch: 2,
                    expand_cost: 150,
                },
            );
            (EnumApp::job(&a), Handle::Enum(a))
        }
        other => panic!("unknown app {other:?}"),
    }
}

/// One application × fault-rate sweep cell, aggregated over trials.
struct Cell {
    app: &'static str,
    rate: f64,
    /// Per-trial application results (see [`Handle::value`]).
    values: Vec<Option<u64>>,
    exact: bool,
    retries: u64,
    end_time: u64,
    buffered: f64,
    launched: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    peak_pages: u64,
    violations: Vec<String>,
}

fn run_cell(app: &'static str, rate: f64, opts: &Opts) -> Cell {
    let mut cell = Cell {
        app,
        rate,
        values: Vec::new(),
        exact: false,
        retries: 0,
        end_time: 0,
        buffered: 0.0,
        launched: 0,
        delivered: 0,
        dropped: 0,
        duplicated: 0,
        peak_pages: 0,
        violations: Vec::new(),
    };
    for trial in 0..opts.trials {
        let mut m = Machine::new(MachineConfig {
            nodes: opts.nodes,
            seed: opts.seed + trial as u64,
            faults: plan(rate),
            ..Default::default()
        });
        let checker = InvariantChecker::new();
        checker.attach(m.tracer());
        let (job, handle) = build(app, opts.nodes, opts.quick);
        m.add_job(job);
        let r = m.run();
        let j = r.job(app);
        let stats = checker.stats();
        let faults = |key| match r.metrics.get(key) {
            Some(&Json::UInt(n)) => n,
            _ => 0,
        };
        cell.values.push(handle.value());
        cell.exact = handle.exact();
        cell.retries += handle.retries();
        cell.end_time = cell.end_time.max(r.end_time);
        cell.buffered += j.buffered_fraction() / opts.trials as f64;
        cell.launched += stats.launched;
        cell.delivered += stats.delivered;
        cell.dropped += faults("faults.dropped");
        cell.duplicated += faults("faults.duplicated");
        cell.peak_pages = cell.peak_pages.max(stats.peak_pages);
        cell.violations
            .extend(checker.violations().iter().map(|v| v.to_string()));
    }
    cell
}

fn main() {
    let opts = Opts::parse(8);
    let rates: &[f64] = if opts.quick {
        &[0.0, 0.01, 0.02]
    } else {
        &[0.0, 0.005, 0.01, 0.02]
    };
    let cells: Vec<(&'static str, f64)> = APPS
        .iter()
        .flat_map(|&app| rates.iter().map(move |&r| (app, r)))
        .collect();

    println!(
        "Chaos sweep — {} apps × {} fault rates × {} trial(s), {} nodes, seed {}",
        APPS.len(),
        rates.len(),
        opts.trials,
        opts.nodes,
        opts.seed
    );
    let results = parallel_map(opts.jobs, &cells, |&(app, rate)| run_cell(app, rate, &opts));

    let mut failures: Vec<String> = Vec::new();
    let mut points = Vec::new();
    let mut t = Table::new(&[
        "app",
        "fault rate",
        "end time",
        "% buffered",
        "retries",
        "dropped",
        "dup'd",
        "delivered",
        "result",
        "verdict",
    ]);
    for cell in &results {
        // The rate-0.0 cell of the same app is the reference result.
        let baseline = results
            .iter()
            .find(|c| c.app == cell.app && c.rate == 0.0)
            .expect("rate 0.0 is always swept");
        let mut verdict = Vec::new();
        if !cell.violations.is_empty() {
            verdict.push("INVARIANT");
            failures.extend(
                cell.violations
                    .iter()
                    .map(|v| format!("{} @ rate {}: {}", cell.app, cell.rate, v)),
            );
        }
        if cell.exact {
            // Transparent recovery: every trial at every rate must
            // reproduce the fault-free result bit for bit.
            if cell.values.iter().any(|v| *v != baseline.values[0]) {
                verdict.push("RESULT");
                failures.push(format!(
                    "{} @ rate {}: result {:?} != fault-free {:?}",
                    cell.app, cell.rate, cell.values, baseline.values[0]
                ));
            }
        }
        let ok = verdict.is_empty();
        t.row(vec![
            cell.app.to_string(),
            format!("{:.3}", cell.rate),
            mcycles(cell.end_time),
            pct(cell.buffered),
            cell.retries.to_string(),
            cell.dropped.to_string(),
            cell.duplicated.to_string(),
            format!("{}/{}", cell.delivered, cell.launched),
            match cell.values[0] {
                Some(v) => format!("{v:#x}"),
                None => "-".to_string(),
            },
            if ok {
                "ok".to_string()
            } else {
                verdict.join("+")
            },
        ]);
        points.push(Json::object([
            ("app", Json::from(cell.app)),
            ("rate", Json::from(cell.rate)),
            ("end_time", Json::from(cell.end_time)),
            ("buffered_fraction", Json::from(cell.buffered)),
            ("retries", Json::from(cell.retries)),
            ("launched", Json::from(cell.launched)),
            ("delivered", Json::from(cell.delivered)),
            ("dropped", Json::from(cell.dropped)),
            ("duplicated", Json::from(cell.duplicated)),
            ("peak_pages", Json::from(cell.peak_pages)),
            ("result", Json::from(cell.values[0])),
            ("violations", Json::from(cell.violations.len() as u64)),
            ("ok", Json::from(ok)),
        ]));
    }
    t.print();

    // The retry protocol must actually have fired at the top rate.
    let top = rates.last().copied().unwrap_or(0.0);
    let top_retries: u64 = results
        .iter()
        .filter(|c| c.rate == top)
        .map(|c| c.retries)
        .sum();
    if top > 0.0 && top_retries == 0 {
        failures.push(format!("no CRL retries fired at fault rate {top}"));
    }
    println!("\nCRL retries at top rate {top}: {top_retries}");

    write_report(&opts, "chaos", Json::array(points));

    if !failures.is_empty() {
        eprintln!("\nchaos: {} guarantee failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all delivery guarantees held across the sweep");
}
