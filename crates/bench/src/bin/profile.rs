//! Per-message causal profiling: where do a message's cycles go?
//!
//! Runs the Table 6 application suite standalone plus one multiprogrammed
//! scenario (barrier vs. null at 10% skew, which forces second-case
//! delivery) under the trace oracle ([`udm::InvariantChecker`]), and
//! reports from its [`fugu_sim::span`] profile the
//! inject-to-retirement latency distribution **split by delivery case**:
//! p50/p90/p99/max end-to-end cycles and the per-subsystem attribution
//! table (net / nic / sched / vbuf / handler), which sums to end-to-end
//! latency exactly (±0) for every stitched span.
//!
//! Outputs, both deterministic for a given seed and option set:
//!
//! * `BENCH_PROFILE.json` (override with `--json`) — the profile points,
//!   schema `fugu-bench/v1`;
//! * a Perfetto trace of the multiprogrammed scenario next to it
//!   (`<stem>.trace.json`) — open it at <https://ui.perfetto.dev>; see
//!   docs/OBSERVABILITY.md § "Profiling a run".
//!
//! The binary is also a self-check: it panics if any delivery invariant
//! breaks, if any span fails the attribution identity, if the stitch rate
//! is below 100% (these runs are fault-free), or if either output file
//! fails to parse back.

use std::path::PathBuf;

use fugu_bench::{
    parallel_map, pct, standalone, vs_null, write_report, AppKind, Json, Opts, Table,
};
use fugu_sim::span::{PathProfile, ProfileReport};
use fugu_sim::trace::Tracer;
use fugu_sim::trace_export::chrome_trace;
use udm::{InvariantChecker, Machine};

/// Spans exported into the Perfetto trace (a fixed cap keeps the artifact
/// reviewable; the profile JSON still aggregates every span).
const EXPORT_SPAN_CAP: usize = 4_000;

/// One profiled scenario: a Table 6 application standalone, or the
/// multiprogrammed barrier-vs-null mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Standalone(AppKind),
    BarrierVsNull,
}

impl Scenario {
    /// Every scenario, in report order.
    fn all() -> Vec<Scenario> {
        AppKind::ALL
            .into_iter()
            .map(Scenario::Standalone)
            .chain([Scenario::BarrierVsNull])
            .collect()
    }

    fn name(self) -> &'static str {
        match self {
            Scenario::Standalone(kind) => kind.name(),
            Scenario::BarrierVsNull => "barrier-vs-null",
        }
    }

    fn machine(self, opts: &Opts) -> Machine {
        match self {
            Scenario::Standalone(kind) => standalone(kind, opts, 0),
            // Barrier against null at 10% skew, so a healthy share of
            // messages takes the second case and the buffered-path columns
            // are populated.
            Scenario::BarrierVsNull => vs_null(AppKind::Barrier, 0.1, opts, 0),
        }
    }
}

/// Builds and runs one scenario under the trace oracle and enforces the
/// acceptance checks: no invariant violation, clean stitching, 100% stitch
/// rate, exact attribution sums. The machine is built here, inside the
/// `--jobs` worker, because it holds its programs' futures and so never
/// leaves the thread that built it.
fn profile(scenario: Scenario, opts: &Opts) -> (u64, ProfileReport) {
    let name = scenario.name();
    let mut machine = scenario.machine(opts);
    let tracer = Tracer::disabled();
    let oracle = InvariantChecker::new();
    oracle.attach(&tracer);
    machine.set_tracer(tracer);
    let report = machine.run();
    oracle.assert_clean();
    let profile = oracle.finish();
    profile.assert_clean();
    assert_eq!(
        profile.stitch_rate(),
        1.0,
        "{name}: fault-free runs must stitch every delivered span"
    );
    for span in &profile.spans {
        if let Some(attr) = span.attribution() {
            let end = span.end().expect("attributed spans have an end");
            assert_eq!(
                attr.total(),
                end - span.launch(),
                "{name}: attribution must sum to end-to-end latency (uid {})",
                span.uid()
            );
        }
    }
    (report.end_time, profile)
}

fn fmt_q(path: &PathProfile, q: f64) -> String {
    path.hist
        .percentile(q)
        .map_or("-".to_string(), |c| c.to_string())
}

fn main() {
    let mut opts = Opts::parse(8);
    opts.json
        .get_or_insert_with(|| PathBuf::from("BENCH_PROFILE.json"));
    let json_path = opts.json.clone().expect("defaulted above");
    let trace_path = json_path.with_extension("trace.json");

    let mut table = Table::new(&[
        "scenario",
        "delivered",
        "fast",
        "f.p50",
        "f.p99",
        "buffered",
        "b.p50",
        "b.p99",
        "stitch",
    ]);
    let mut points = Vec::new();
    let mut export: Option<ProfileReport> = None;
    let scenarios = Scenario::all();
    let results = parallel_map(opts.jobs, &scenarios, |&s| profile(s, &opts));
    for (&scenario, (end_time, profile)) in scenarios.iter().zip(results) {
        let name = scenario.name();
        table.row(vec![
            name.to_string(),
            profile.delivered.to_string(),
            profile.fast.hist.total().to_string(),
            fmt_q(&profile.fast, 0.50),
            fmt_q(&profile.fast, 0.99),
            profile.buffered.hist.total().to_string(),
            fmt_q(&profile.buffered, 0.50),
            fmt_q(&profile.buffered, 0.99),
            pct(profile.stitch_rate()),
        ]);
        points.push(Json::object([
            ("scenario", Json::from(name)),
            ("end_time", Json::from(end_time)),
            ("profile", profile.to_json()),
        ]));
        if scenario == Scenario::BarrierVsNull {
            export = Some(profile);
        }
    }
    table.print();

    // Perfetto trace of the multiprogrammed scenario (capped prefix).
    let export = export.expect("the multiprogrammed scenario always runs");
    let spans = &export.spans[..export.spans.len().min(EXPORT_SPAN_CAP)];
    if export.spans.len() > spans.len() {
        eprintln!(
            "perfetto export capped at {} of {} spans",
            spans.len(),
            export.spans.len()
        );
    }
    let trace = chrome_trace(spans, opts.nodes);
    std::fs::write(&trace_path, trace.render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    eprintln!("wrote {}", trace_path.display());

    write_report(&opts, "profile", Json::array(points));

    // Self-validation: both artifacts must parse back, and the Perfetto
    // document must round-trip byte-for-byte through `Json::parse`.
    let report_text =
        std::fs::read_to_string(&json_path).unwrap_or_else(|e| panic!("reading report: {e}"));
    let report = Json::parse(&report_text).expect("profile report is valid JSON");
    assert_eq!(
        report.get("schema"),
        Some(&Json::from(fugu_bench::BENCH_SCHEMA))
    );
    assert_eq!(report.get("binary"), Some(&Json::from("profile")));
    let Some(Json::Arr(parsed_points)) = report.get("points") else {
        panic!("report points missing");
    };
    assert_eq!(parsed_points.len(), AppKind::ALL.len() + 1);
    for point in parsed_points {
        let profile = point.get("profile").expect("point carries a profile");
        // A whole-number float renders as an integer, so accept both forms.
        let rate_is_one = match profile.get("stitch_rate") {
            Some(Json::UInt(r)) => *r == 1,
            Some(Json::Float(r)) => *r == 1.0,
            _ => false,
        };
        assert!(rate_is_one, "persisted stitch rate must be 100%");
    }
    let trace_text =
        std::fs::read_to_string(&trace_path).unwrap_or_else(|e| panic!("reading trace: {e}"));
    let parsed_trace = Json::parse(&trace_text).expect("perfetto export is valid JSON");
    assert_eq!(
        parsed_trace.render(),
        trace_text,
        "perfetto export must round-trip through Json::parse"
    );
}
