//! Per-message causal spans: the profiling layer over [`crate::trace`].
//!
//! The paper's argument is a latency distribution — Table 6 and Figures
//! 7–10 compare what a message costs on the fast NIC path versus the
//! software-buffered path. The trace layer emits *point* events; this
//! module stitches them back into one causal span per message uid
//! (launch → network transit → NIC arrival → {upcall | buffer-insert →
//! drain → extract} → handler completion), records per-path latency into
//! log-bucketed [`Histogram`]s, and attributes every cycle of each span to
//! exactly one subsystem:
//!
//! | segment   | interval                                   |
//! |-----------|--------------------------------------------|
//! | `net`     | launch → NIC arrival                       |
//! | `nic`     | arrival → upcall (fast) or insert (buffered) |
//! | `sched`   | buffered residency while the owning job was *not* scheduled |
//! | `vbuf`    | buffered residency while the owning job *was* scheduled |
//! | `handler` | delivery → handler retirement              |
//!
//! The five segments partition the span, so their sum equals the
//! end-to-end latency *exactly* — and the profiler re-derives both sides
//! independently and records a violation if they ever disagree, in the
//! style of `udm::invariant`. The spans themselves are the records of a
//! [`MessageLedger`], the lifecycle model every trace oracle shares; this
//! module adds only the attribution rules and the report. Attach a
//! [`Profiler`] before a run, call
//! [`Profiler::finish`] after, and feed [`ProfileReport::spans`] to
//! [`crate::trace_export`] for a Perfetto-loadable timeline.
//!
//! Profiling is pay-for-what-you-watch: nothing here runs unless a
//! profiler is attached, and detaching is as simple as not attaching — the
//! emission sites fall back to their single relaxed atomic load.
//!
//! # Example
//!
//! ```
//! use fugu_sim::span::Profiler;
//! use fugu_sim::trace::{TraceEvent, Tracer};
//!
//! let tracer = Tracer::disabled();
//! let profiler = Profiler::new();
//! profiler.attach(&tracer);
//!
//! // A two-node machine would emit this stream while running:
//! tracer.emit(TraceEvent::MsgLaunch { node: 0, job: 0, dst: 1, words: 3, uid: 1 });
//! tracer.set_time(10);
//! tracer.emit(TraceEvent::MsgArrive { node: 1, qlen: 1, uid: 1 });
//! tracer.set_time(12);
//! tracer.emit(TraceEvent::FastUpcall { node: 1, job: 0, words: 3, uid: 1 });
//! tracer.emit(TraceEvent::HandlerDone { node: 1, job: 0, uid: 1, end: 40 });
//!
//! let report = profiler.finish();
//! report.assert_clean();
//! assert_eq!(report.stitched, 1);
//! let span = &report.spans[0];
//! let attr = span.attribution().unwrap();
//! assert_eq!((attr.net, attr.nic, attr.handler), (10, 2, 28));
//! assert_eq!(attr.total(), 40);
//! ```

use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::ledger::{MessageLedger, Observed};
use crate::stats::{Accum, Histogram};
use crate::trace::{TraceEvent, Tracer};
use crate::Cycles;

pub use crate::ledger::{DeliveryPath, MessageSpan};

impl MessageSpan {
    /// Splits the span's end-to-end latency across the five subsystems.
    ///
    /// Returns `None` if the span is not yet delivered, is anomalous, or
    /// its timestamps are inconsistent (non-monotone, missing insert on
    /// the buffered path, or accumulated `sched_wait` exceeding the
    /// buffered residency) — exactly the conditions
    /// [`ProfileReport::errors`] reports.
    pub fn attribution(&self) -> Option<Attribution> {
        if self.anomalous {
            return None;
        }
        let arrive = self.arrive?;
        let deliver = self.deliver?;
        let end = self.end()?;
        let net = arrive.checked_sub(self.launch)?;
        let (nic, sched, vbuf) = match self.path? {
            DeliveryPath::Fast => (deliver.checked_sub(arrive)?, 0, 0),
            DeliveryPath::Buffered => {
                let insert = self.insert?;
                let nic = insert.checked_sub(arrive)?;
                let residency = deliver.checked_sub(insert)?;
                let vbuf = residency.checked_sub(self.sched_wait)?;
                (nic, self.sched_wait, vbuf)
            }
        };
        let handler = end.checked_sub(deliver)?;
        Some(Attribution {
            net,
            nic,
            sched,
            vbuf,
            handler,
        })
    }
}

/// Cycle counts charged to each subsystem a message crossed.
///
/// For a single span the five fields partition the end-to-end latency, so
/// [`Attribution::total`] equals `end - launch` exactly; summed over many
/// spans they form the per-path attribution table in
/// [`PathProfile::to_json`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Network transit: launch to NIC arrival (includes injection
    /// serialization and any NIC input-stall backlog).
    pub net: u64,
    /// NIC residency: arrival to upcall dispatch (fast) or to the
    /// kernel's buffer insert (buffered).
    pub nic: u64,
    /// Buffered residency while the owning job was descheduled.
    pub sched: u64,
    /// Buffered residency while the owning job was scheduled (drain
    /// latency proper).
    pub vbuf: u64,
    /// Delivery to handler retirement.
    pub handler: u64,
}

impl Attribution {
    /// Sum of all five segments — the span's end-to-end latency.
    pub fn total(&self) -> u64 {
        self.net + self.nic + self.sched + self.vbuf + self.handler
    }

    /// Accumulates another attribution into this one, field by field.
    pub fn add(&mut self, other: &Attribution) {
        self.net += other.net;
        self.nic += other.nic;
        self.sched += other.sched;
        self.vbuf += other.vbuf;
        self.handler += other.handler;
    }

    /// Serializes the table as `{net, nic, sched, vbuf, handler, total}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("net", Json::from(self.net)),
            ("nic", Json::from(self.nic)),
            ("sched", Json::from(self.sched)),
            ("vbuf", Json::from(self.vbuf)),
            ("handler", Json::from(self.handler)),
            ("total", Json::from(self.total())),
        ])
    }
}

/// Exponent of the widest histogram bound: latencies bucket into
/// `1, 2, 4, …, 2^32` cycles, far beyond any simulated end-to-end span.
const LATENCY_HIST_MAX_EXP: u32 = 32;

/// Latency statistics for one delivery case.
#[derive(Debug, Clone)]
pub struct PathProfile {
    /// Spans folded into this profile.
    pub count: u64,
    /// End-to-end latency moments (count/mean/min/max).
    pub latency: Accum,
    /// Log-bucketed end-to-end latency distribution (power-of-two bounds),
    /// the source of the report's percentiles.
    pub hist: Histogram,
    /// Cycle-attribution totals across all folded spans.
    pub attribution: Attribution,
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile {
            count: 0,
            latency: Accum::new(),
            hist: Histogram::exponential(LATENCY_HIST_MAX_EXP),
            attribution: Attribution::default(),
        }
    }
}

impl PathProfile {
    fn record(&mut self, attr: &Attribution) {
        self.count += 1;
        self.latency.push(attr.total() as f64);
        self.hist.record(attr.total());
        self.attribution.add(attr);
    }

    /// Latency percentile from the log-bucketed histogram (interpolated;
    /// `None` if no span took this path).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.hist.percentile(q)
    }

    /// Serializes the profile: span count, latency summary (mean, p50,
    /// p90, p99, max — all in cycles), the attribution table and the raw
    /// histogram.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::from(self.count)),
            (
                "latency_cycles",
                Json::object([
                    ("mean", Json::from(self.latency.mean())),
                    ("p50", self.percentile(0.50).into()),
                    ("p90", self.percentile(0.90).into()),
                    ("p99", self.percentile(0.99).into()),
                    ("max", Json::from(self.latency.max().map(|m| m as u64))),
                ]),
            ),
            ("attribution", self.attribution.to_json()),
            ("hist", self.hist.to_json()),
        ])
    }
}

/// Everything the profiler learned about one run.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Spans opened (one per observed `MsgLaunch`).
    pub launched: u64,
    /// Spans whose message reached its program.
    pub delivered: u64,
    /// Delivered spans whose event chain was complete and passed every
    /// consistency check — the numerator of [`ProfileReport::stitch_rate`].
    pub stitched: u64,
    /// Spans still open when the run ended (launched, never delivered).
    /// Normal for background traffic cut off at termination; not an error.
    pub in_flight: u64,
    /// Spans that saw contradictory events (fault-injected duplicates).
    pub anomalies: u64,
    /// Fast-path (first-case) latency profile.
    pub fast: PathProfile,
    /// Buffered-path (second-case) latency profile.
    pub buffered: PathProfile,
    /// Consistency violations, in detection order. Empty on any fault-free
    /// run; see [`ProfileReport::assert_clean`].
    pub errors: Vec<String>,
    /// Every span, sorted by uid — the input to
    /// [`crate::trace_export::chrome_trace`].
    pub spans: Vec<MessageSpan>,
}

impl ProfileReport {
    /// Fraction of delivered spans that stitched cleanly (1.0 when
    /// nothing was delivered, so empty runs read as clean).
    pub fn stitch_rate(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.stitched as f64 / self.delivered as f64
        }
    }

    /// Panics with the collected violations if any consistency check
    /// failed — mirrors `udm::invariant`'s `assert_clean`.
    ///
    /// # Panics
    ///
    /// Panics if [`ProfileReport::errors`] is non-empty.
    pub fn assert_clean(&self) {
        assert!(
            self.errors.is_empty(),
            "span profiler found {} violation(s):\n  {}",
            self.errors.len(),
            self.errors.join("\n  ")
        );
    }

    /// Serializes the report (spans excluded; export those separately via
    /// [`crate::trace_export`]).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("launched", Json::from(self.launched)),
            ("delivered", Json::from(self.delivered)),
            ("stitched", Json::from(self.stitched)),
            ("in_flight", Json::from(self.in_flight)),
            ("anomalies", Json::from(self.anomalies)),
            ("stitch_rate", Json::from(self.stitch_rate())),
            ("fast", self.fast.to_json()),
            ("buffered", self.buffered.to_json()),
            (
                "errors",
                Json::array(self.errors.iter().map(|e| Json::from(e.as_str()))),
            ),
        ])
    }
}

/// The subscriber state: the message ledger plus the consistency errors
/// found so far.
#[derive(Debug, Default)]
struct SpanCollector {
    ledger: MessageLedger,
    errors: Vec<String>,
}

impl SpanCollector {
    fn on_event(&mut self, at: Cycles, event: &TraceEvent) {
        // Repeats (fault-injected duplicates re-arriving or re-delivering)
        // leave the span anomalous: flagged, not failed.
        match (self.ledger.observe(at, event), event) {
            (Observed::Orphan(uid), _) => {
                let msg = format!("[{at}] uid {uid} without a launch: {event:?}");
                self.errors.push(msg);
            }
            (Observed::Fresh, &TraceEvent::MsgArrive { node, uid, .. }) => {
                if let Some(span) = self.ledger.get(uid).filter(|s| s.dst != node) {
                    self.errors.push(format!(
                        "[{at}] uid {uid} arrived at node {node}, launched toward {}",
                        span.dst
                    ));
                }
            }
            // The span just closed: check it while the stream is still
            // flowing, not at teardown.
            (Observed::Fresh, &TraceEvent::HandlerDone { uid, .. }) => {
                if let Some(span) = self.ledger.get(uid) {
                    check_span(span, &mut self.errors);
                }
            }
            _ => {}
        }
    }

    fn into_report(self) -> ProfileReport {
        let in_flight = self.ledger.undelivered();
        let spans = self.ledger.into_spans();
        let mut report = ProfileReport {
            launched: spans.len() as u64,
            in_flight,
            anomalies: spans.iter().filter(|s| s.anomalous).count() as u64,
            errors: self.errors,
            ..ProfileReport::default()
        };
        for span in spans.iter().filter(|s| s.delivered()) {
            // Spans delivered without a handler (peek-style extracts) were
            // never closed by a HandlerDone: check them now.
            if span.done.is_none() {
                check_span(span, &mut report.errors);
            }
            report.delivered += 1;
            let Some(attr) = span.attribution() else {
                continue; // anomalous or inconsistent: already reported
            };
            report.stitched += 1;
            match span.path {
                Some(DeliveryPath::Fast) => report.fast.record(&attr),
                Some(DeliveryPath::Buffered) => report.buffered.record(&attr),
                None => unreachable!("attribution requires a path"),
            }
        }
        report.spans = spans;
        report
    }
}

/// The online invariant: a closed, non-anomalous span must carry a
/// complete, monotone event chain whose five-way attribution sums
/// *exactly* to its end-to-end latency.
fn check_span(span: &MessageSpan, errors: &mut Vec<String>) {
    if span.anomalous {
        return;
    }
    let (uid, launch) = (span.uid, span.launch);
    let Some(end) = span.end() else {
        return;
    };
    match span.attribution() {
        None => errors.push(format!(
            "[{end}] uid {uid} closed with an inconsistent chain: launch={launch} \
             arrive={:?} insert={:?} deliver={:?} done={:?} sched_wait={}",
            span.arrive, span.insert, span.deliver, span.done, span.sched_wait
        )),
        Some(attr) if attr.total() != end - launch => errors.push(format!(
            "[{end}] uid {uid} attribution {} != end-to-end latency {} \
             (net={} nic={} sched={} vbuf={} handler={})",
            attr.total(),
            end - launch,
            attr.net,
            attr.nic,
            attr.sched,
            attr.vbuf,
            attr.handler
        )),
        Some(_) => {}
    }
}

/// Attachable message-lifecycle profiler.
///
/// Subscribe it to a [`Tracer`] before the run ([`Profiler::attach`]),
/// then consume the [`ProfileReport`] after ([`Profiler::finish`]). The
/// profiler listens to the [`MessageLedger::mask`] categories; attaching
/// widens the tracer's effective mask, so emission sites pay for event
/// construction only while a profiler (or another sink) is watching.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    collector: Arc<Mutex<SpanCollector>>,
}

impl Profiler {
    /// Creates a detached profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Subscribes this profiler to `tracer`. All attachments (and clones)
    /// feed the same collector, so one profiler can observe several
    /// tracers if a harness wires them that way.
    pub fn attach(&self, tracer: &Tracer) {
        let collector = Arc::clone(&self.collector);
        tracer.subscribe(MessageLedger::mask(), move |at, event| {
            collector.lock().unwrap().on_event(at, event);
        });
    }

    /// Closes out the collection and builds the report. The profiler can
    /// keep receiving events afterwards, but they land in a fresh
    /// collection (the report is a snapshot-and-reset).
    pub fn finish(&self) -> ProfileReport {
        std::mem::take(&mut *self.collector.lock().unwrap()).into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(profiler: &Profiler) -> Tracer {
        let t = Tracer::disabled();
        profiler.attach(&t);
        t
    }

    fn launch(t: &Tracer, at: Cycles, uid: u64, src: usize, dst: usize) {
        t.set_time(at);
        t.emit(TraceEvent::MsgLaunch {
            node: src,
            job: 0,
            dst,
            words: 3,
            uid,
        });
    }

    fn arrive(t: &Tracer, at: Cycles, uid: u64, node: usize) {
        t.set_time(at);
        t.emit(TraceEvent::MsgArrive { node, qlen: 1, uid });
    }

    #[test]
    fn fast_path_attribution_partitions_latency() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 10, 1, 1);
        t.set_time(12);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 1,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 40,
        });
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.launched, 1);
        assert_eq!(report.stitched, 1);
        assert_eq!(report.stitch_rate(), 1.0);
        assert_eq!(report.fast.count, 1);
        assert_eq!(report.buffered.count, 0);
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(
            attr,
            Attribution {
                net: 10,
                nic: 2,
                sched: 0,
                vbuf: 0,
                handler: 28,
            }
        );
        assert_eq!(attr.total(), 40);
    }

    #[test]
    fn buffered_residency_splits_sched_from_vbuf() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        // Node 1 starts the run with job 1 scheduled.
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: None,
            to_job: Some(1),
        });
        launch(&t, 0, 7, 0, 1);
        arrive(&t, 5, 7, 1);
        t.set_time(7);
        t.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 7,
        });
        // Job 0 gets the node at t=10: cycles 7..10 were sched wait.
        t.set_time(10);
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: Some(1),
            to_job: Some(0),
        });
        t.set_time(14);
        t.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 7,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 7,
            end: 20,
        });
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.buffered.count, 1);
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(
            attr,
            Attribution {
                net: 5,
                nic: 2,
                sched: 3,
                vbuf: 4,
                handler: 6,
            }
        );
        assert_eq!(attr.total(), 20);
        assert!(report.spans[0].path == Some(DeliveryPath::Buffered));
    }

    #[test]
    fn descheduled_extract_charges_final_interval_to_sched() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        // The whole residency happens under the wrong job: all sched.
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: None,
            to_job: Some(1),
        });
        launch(&t, 0, 3, 0, 1);
        arrive(&t, 2, 3, 1);
        t.set_time(4);
        t.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 3,
        });
        t.set_time(24);
        t.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 3,
        });
        let report = p.finish();
        report.assert_clean();
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(attr.sched, 20);
        assert_eq!(attr.vbuf, 0);
        // No handler ran (peek-style extract): span still stitches with a
        // zero handler segment.
        assert_eq!(attr.handler, 0);
        assert_eq!(report.stitched, 1);
    }

    #[test]
    fn in_flight_spans_do_not_hurt_stitch_rate() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 6, 1, 1); // still in the NIC when the run ends
        launch(&t, 3, 2, 1, 0); // never even arrived
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.launched, 2);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.in_flight, 2);
        assert_eq!(report.stitch_rate(), 1.0);
    }

    #[test]
    fn duplicate_arrival_flags_anomaly_without_error() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 9, 0, 1);
        arrive(&t, 5, 9, 1);
        arrive(&t, 8, 9, 1); // fault-injected duplicate
        let report = p.finish();
        report.assert_clean(); // anomalies are counted, not violations
        assert_eq!(report.anomalies, 1);
        assert_eq!(report.launched, 1);
    }

    #[test]
    fn non_monotone_chain_is_a_violation() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 100, 4, 0, 1);
        arrive(&t, 20, 4, 1); // arrival before launch: broken clock
        t.set_time(25);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 4,
        });
        let report = p.finish();
        assert_eq!(report.stitched, 0);
        assert!(!report.errors.is_empty());
        let result = std::panic::catch_unwind(|| report.assert_clean());
        assert!(result.is_err());
    }

    #[test]
    fn orphan_delivery_is_a_violation() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        t.set_time(10);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 42,
        });
        let report = p.finish();
        assert!(report.errors[0].contains("uid 42"));
    }

    #[test]
    fn report_json_shape() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 10, 1, 1);
        t.set_time(12);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 1,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 40,
        });
        let json = p.finish().to_json();
        assert_eq!(json.get("stitched"), Some(&Json::UInt(1)));
        let fast = json.get("fast").unwrap();
        assert_eq!(
            fast.get("attribution").unwrap().get("total"),
            Some(&Json::UInt(40))
        );
        assert!(fast.get("latency_cycles").unwrap().get("p50").is_some());
        // The document round-trips through the parser (CI leans on this).
        let rendered = json.render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }
}
