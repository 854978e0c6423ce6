//! The benchmark's own arithmetic: order statistics, the ledger identity,
//! the `/proc` parsers and the report digest.

use fugu_sim::stats::MetricsRegistry;
use fugu_sim::trace::{TraceEvent, TraceRecord};
use perfbench::digest::{fnv1a64, report_digest};
use perfbench::host::{context_switches, cpu_model, peak_rss_kb, status_field};
use perfbench::ledger::Ledger;
use perfbench::stats::{median, quartiles, spread};
use perfbench::workload::{TraceCounts, Workload};
use udm::{NodeReport, RunReport};

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python's statistics.quantiles(data, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[9.0]), Some([9.0; 3]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn spread_is_iqr_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[4.0; 6]), Some(0.0));
    assert_eq!(spread(&[0.0, 0.0]), None);
    assert_eq!(spread(&[]), None);
}

#[test]
fn estimates_plus_unattributed_equal_run_exactly() {
    for run_ns in [0u64, 1, 74_306_177, 2_218_451_750] {
        let mut ledger = Ledger::new(run_ns);
        ledger.charge("coro", 4_543, 15_144.2);
        ledger.charge("event", 1_872, 59.571_1);
        ledger.charge("nic", 985, 108.45);
        ledger.charge("nic", 985, 47.339_4);
        ledger.charge("glaze", 0, 48.8);
        ledger.charge("oracle", 96_619, 1.0 / 3.0);
        let charged: u64 = ledger.entries().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(charged as i64 + ledger.unattributed_ns(), run_ns as i64);
    }
}

#[test]
fn ledger_charges_accumulate_per_layer() {
    let mut ledger = Ledger::new(1_000);
    ledger.charge("nic", 3, 100.0);
    ledger.charge("nic", 2, 50.0);
    ledger.charge("coro", 1, 0.4);
    assert_eq!(ledger.estimate_ns("nic"), 400);
    assert_eq!(ledger.estimate_ns("coro"), 0);
    assert_eq!(ledger.estimate_ns("glaze"), 0);
    assert_eq!(ledger.entries().len(), 2);
    assert_eq!(ledger.unattributed_ns(), 600);
    let mut over = Ledger::new(10);
    over.charge("coro", 1, 25.0);
    assert_eq!(over.unattributed_ns(), -15);
}

#[test]
fn status_parser_reads_fields_and_reports_absence() {
    let status = "Name:\tperfbench\nVmHWM:\t   45876 kB\nvoluntary_ctxt_switches:\t120182\n\
                  nonvoluntary_ctxt_switches:\t17\n";
    assert_eq!(status_field(status, "VmHWM"), Some(45_876));
    assert_eq!(
        status_field(status, "voluntary_ctxt_switches"),
        Some(120_182)
    );
    assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(17));
    assert_eq!(status_field(status, "VmRSS"), None);
    assert_eq!(status_field("VmHWM:\tlots kB\n", "VmHWM"), None);
    assert_eq!(status_field("VmHWM:\n", "VmHWM"), None);
    assert_eq!(status_field("", "VmHWM"), None);
}

#[test]
fn cpuinfo_parser_reads_the_model_or_reports_absence() {
    let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\n\
                   model name\t: Intel(R) Xeon(R) Processor\n";
    assert_eq!(
        cpu_model(cpuinfo).as_deref(),
        Some("Intel(R) Xeon(R) Processor")
    );
    assert_eq!(cpu_model("processor\t: 0\n"), None);
    assert_eq!(cpu_model(""), None);
}

#[test]
fn proc_readers_never_panic() {
    // Present on Linux, absent elsewhere; either way the call returns.
    let rss = peak_rss_kb();
    let switches = context_switches();
    if cfg!(target_os = "linux") {
        assert!(rss.is_some_and(|kb| kb > 0));
        assert!(switches.is_some());
    }
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

fn small_report(events_processed: u64) -> RunReport {
    RunReport {
        end_time: 930_043,
        jobs: Vec::new(),
        nodes: vec![NodeReport {
            vbuf_inserts: 112,
            quantum_switches: 151,
            ..NodeReport::default()
        }],
        metrics: MetricsRegistry::new(),
        events_processed,
    }
}

#[test]
fn report_digest_is_stable_and_ignores_host_counters() {
    let digest = report_digest(&small_report(24_499));
    assert_eq!(digest.len(), 16);
    // Pinned: a change here invalidates every committed golden.
    assert_eq!(digest, "ed89bd293fb562d6");
    // `events_processed` is engine instrumentation, not a simulated result.
    assert_eq!(report_digest(&small_report(1)), digest);
}

#[test]
fn trace_counts_tally_and_compare_with_the_report() {
    let record = |event| TraceRecord { at: 0, event };
    let records = vec![
        record(TraceEvent::QuantumSwitch {
            node: 0,
            from_job: None,
            to_job: Some(0),
        }),
        record(TraceEvent::MsgLaunch {
            node: 0,
            job: 0,
            dst: 1,
            words: 3,
            uid: 1,
        }),
        record(TraceEvent::MsgArrive {
            node: 1,
            qlen: 1,
            uid: 1,
        }),
        record(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 1,
        }),
    ];
    let counts = TraceCounts::tally(&records);
    assert_eq!(counts.events, 4);
    assert_eq!(counts.launch_words, 3);
    assert_eq!(counts.quantum_switches, 0);
    let report = small_report(0);
    let mismatches = counts.mismatches(&report);
    // No jobs in the report: sent and buffered disagree; the node's
    // 112 inserts and 151 switches disagree with the trace's 1 and 0.
    assert_eq!(mismatches.len(), 4, "{mismatches:?}");
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("enum"), None);
    assert_eq!(Workload::BarrierOracle.sim_threads(), 32);
}
