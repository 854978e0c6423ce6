//! Chaos harness: sweeps deterministic fault injection over every paper
//! application ([`AppKind::ALL`]) and asserts the delivery guarantees hold.
//!
//! Every application × fault-rate × trial cell is a
//! [`ScenarioSpec`](fugu_bench::explore::ScenarioSpec) ([`chaos_spec`])
//! run by the same library runner as `explore` ([`run_scenario`]): the
//! application at the explorer's data-set tier 1 with `--quick` and tier 2
//! otherwise, on the explorer's default machine, under one fault knob
//! scaled into a plan that exercises every injection site at once (drops,
//! duplicates, transit delays, NIC stalls, frame-allocation failures,
//! forced handler faults, quantum jitter). The harness checks:
//!
//! - **a clean oracle verdict** at every fault rate: zero invariant
//!   violations (conservation, per-channel FIFO, drain progress, buffering
//!   accounting, frame budget), plus at rate 0 a fully stitched span
//!   profile and report counters that match the trace;
//! - **completion** — a cell whose run deadlocks, trips `max_cycles` or
//!   panics is reported under its classified status, and the sweep goes on;
//! - **result integrity** — the CRL applications (barnes, water, lu) must
//!   produce *bit-identical* results under faults, because the CRL
//!   retry/timeout protocol is transparent; enum must terminate with a
//!   solution count and barrier must complete;
//! - **the retry protocol actually fires** — at the highest fault rate the
//!   CRL applications must have re-sent at least one request.
//!
//! A failing cell prints its first failing trial as a one-line
//! `explore --replay` repro. The run is deterministic: the same `--seed`
//! produces byte-identical output (and `--json` report) on every
//! invocation.

use fugu_bench::explore::RunStatus;
use fugu_bench::scenario::{chaos_spec, run_scenario};
use fugu_bench::{mcycles, parallel_map, pct, write_report, AppKind, Json, Opts, Table};

/// One application × fault-rate sweep cell, aggregated over trials.
#[derive(Default)]
struct Cell {
    app: &'static str,
    rate: f64,
    /// Per-trial application results (see `ScenarioRun::result`).
    values: Vec<Option<u64>>,
    /// Whether the app runs over CRL, so its result must be bit-identical
    /// at every fault rate.
    exact: bool,
    retries: u64,
    end_time: u64,
    buffered: f64,
    launched: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    peak_pages: u64,
    violations: u64,
    /// How the first trial that did not complete ended.
    ended: Option<RunStatus>,
    /// Oracle violations and panic messages, one line each.
    problems: Vec<String>,
    /// The first trial the oracle stack failed.
    failed_trial: Option<u32>,
}

fn run_cell(app: &'static str, rate: f64, opts: &Opts) -> Cell {
    let mut cell = Cell {
        app,
        rate,
        ..Cell::default()
    };
    for trial in 0..opts.trials {
        let run = run_scenario(&chaos_spec(app, rate, trial, opts))
            .expect("every chaos app is a known workload");
        let o = &run.outcome;
        if let Some(r) = &run.report {
            let faults = |key| match r.metrics.get(key) {
                Some(&Json::UInt(n)) => n,
                _ => 0,
            };
            cell.buffered += r.job(app).buffered_fraction() / opts.trials as f64;
            cell.dropped += faults("faults.dropped");
            cell.duplicated += faults("faults.duplicated");
        }
        cell.values.push(run.result);
        cell.exact |= run.crl_retries.is_some();
        cell.retries += run.crl_retries.unwrap_or(0);
        cell.end_time = cell.end_time.max(o.cycles);
        cell.launched += o.launched;
        cell.delivered += o.delivered;
        cell.peak_pages = cell.peak_pages.max(o.peak_pages);
        cell.violations += o.violations.len() as u64;
        cell.problems.extend(
            o.violations
                .iter()
                .map(|(kind, detail)| format!("{kind}: {detail}")),
        );
        if o.status != RunStatus::Completed {
            cell.ended.get_or_insert(o.status);
            let detail = o.detail.as_deref().unwrap_or("");
            cell.problems
                .push(format!("{}: {detail}", o.status.as_str()));
        }
        if o.failed() {
            cell.failed_trial.get_or_insert(trial);
        }
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
    let cells: Vec<(&'static str, f64)> = AppKind::ALL
        .iter()
        .flat_map(|app| rates.iter().map(move |&r| (app.name(), r)))
        .collect();

    println!(
        "Chaos sweep — {} apps × {} fault rates × {} trial(s), {} nodes, seed {}",
        AppKind::ALL.len(),
        rates.len(),
        opts.trials,
        opts.nodes,
        opts.seed
    );
    // A panicking cell is caught, classified and reported below with its
    // repro line, whose replay prints the whole panic; until then the
    // default hook's backtraces are noise.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = parallel_map(opts.jobs, &cells, |&(app, rate)| run_cell(app, rate, &opts));
    std::panic::set_hook(hook);

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
        if cell.violations > 0 {
            verdict.push("INVARIANT".to_string());
        }
        if let Some(status) = cell.ended {
            verdict.push(status.as_str().to_uppercase());
        }
        failures.extend(
            cell.problems
                .iter()
                .map(|p| format!("{} @ rate {}: {p}", cell.app, cell.rate)),
        );
        let mut repro_trial = cell.failed_trial;
        // Transparent recovery: every trial of a CRL app at every rate
        // must reproduce the fault-free result bit for bit.
        let mismatch = cell.values.iter().position(|v| *v != baseline.values[0]);
        if let (true, Some(trial)) = (cell.exact, mismatch) {
            verdict.push("RESULT".to_string());
            failures.push(format!(
                "{} @ rate {}: result {:?} != fault-free {:?}",
                cell.app, cell.rate, cell.values, baseline.values[0]
            ));
            repro_trial.get_or_insert(trial as u32);
        }
        if let Some(trial) = repro_trial {
            let spec = chaos_spec(cell.app, cell.rate, trial, &opts);
            let last = failures.last_mut().expect("a failing cell reported why");
            last.push_str(&format!("\n    repro: explore --replay '{spec}'"));
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
            ("violations", Json::from(cell.violations)),
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
