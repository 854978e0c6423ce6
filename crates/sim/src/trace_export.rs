//! Chrome trace-event / Perfetto export for stitched message spans.
//!
//! [`chrome_trace`] renders the spans collected by [`crate::span`] in the
//! Chrome trace-event JSON format (the "JSON Array Format" with a
//! `traceEvents` wrapper), which <https://ui.perfetto.dev> and
//! `chrome://tracing` load directly:
//!
//! * each node becomes a *process* (`pid` = node index) named by a
//!   metadata event, so the timeline groups per-node activity;
//! * each span segment becomes a complete slice (`ph: "X"`): `launch` on
//!   the sending node, then `nic`, `vbuf` and `handler` on the receiving
//!   node, back to back;
//! * each message that crossed the network contributes one *flow arrow*
//!   (`ph: "s"` at launch on the source, `ph: "f"` at NIC arrival on the
//!   destination, sharing the message uid as flow `id`) — select a slice
//!   and Perfetto draws the arrow hopping nodes.
//!
//! Timestamps are raw simulated cycles written into the format's
//! microsecond field: Perfetto's absolute numbers read as "µs" but all
//! relative magnitudes — slice widths, arrow spans, zoom levels — are
//! cycles, which is the unit every other report in this repo uses.
//!
//! The output is deterministic: event order is a pure function of the
//! span list (document it sorted by uid, as [`crate::span::ProfileReport`]
//! provides), so byte-identical runs export byte-identical traces.

use crate::json::Json;
use crate::span::MessageSpan;

/// Cycle width given to instantaneous anchor slices (a launch, or the
/// last known position of a still-in-flight message): wide enough to see
/// and click, narrow enough not to lie about cost.
const ANCHOR_WIDTH: u64 = 1;

fn event(
    name: &str,
    ph: &str,
    ts: u64,
    pid: usize,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut fields: Vec<(&'static str, Json)> = Vec::with_capacity(8);
    fields.push(("name", Json::from(name)));
    fields.push(("cat", Json::from("msg")));
    fields.push(("ph", Json::from(ph)));
    fields.push(("ts", Json::from(ts)));
    fields.push(("pid", Json::from(pid as u64)));
    fields.push(("tid", Json::from(0u64)));
    fields.extend(extra);
    Json::object(fields)
}

fn slice(name: &str, ts: u64, dur: u64, pid: usize, span: &MessageSpan) -> Json {
    event(
        name,
        "X",
        ts,
        pid,
        [
            ("dur", Json::from(dur)),
            (
                "args",
                Json::object([
                    ("uid", Json::from(span.uid)),
                    ("words", Json::from(span.words as u64)),
                    (
                        "path",
                        Json::from(span.path.map(|p| p.name()).unwrap_or("in-flight")),
                    ),
                    ("swapped", Json::from(span.swapped)),
                ]),
            ),
        ],
    )
}

/// Renders `spans` as a Chrome trace-event document for a `nodes`-node
/// machine. Pass [`crate::span::ProfileReport::spans`] (or any subset —
/// e.g. a capped prefix for very large runs) and write
/// `doc.render()` to a `.json` file; open it in `ui.perfetto.dev`.
///
/// # Example
///
/// ```
/// use fugu_sim::invariant::InvariantChecker;
/// use fugu_sim::trace::{TraceEvent, Tracer};
/// use fugu_sim::trace_export::chrome_trace;
///
/// let oracle = InvariantChecker::new();
/// let tracer = Tracer::disabled();
/// oracle.attach(&tracer);
/// tracer.emit(TraceEvent::MsgLaunch { node: 0, job: 0, dst: 1, words: 3, uid: 1 });
/// tracer.set_time(10);
/// tracer.emit(TraceEvent::MsgArrive { node: 1, qlen: 1, uid: 1 });
/// tracer.set_time(12);
/// tracer.emit(TraceEvent::FastUpcall { node: 1, job: 0, words: 3, uid: 1 });
/// tracer.emit(TraceEvent::HandlerDone { node: 1, job: 0, uid: 1, end: 40 });
///
/// let doc = chrome_trace(&oracle.finish().spans, 2);
/// let events = doc.get("traceEvents").unwrap();
/// assert!(doc.render().starts_with("{\"traceEvents\":["));
/// # let _ = events;
/// ```
pub fn chrome_trace(spans: &[MessageSpan], nodes: usize) -> Json {
    let mut events = Vec::new();
    for node in 0..nodes {
        events.push(event(
            "process_name",
            "M",
            0,
            node,
            [(
                "args",
                Json::object([("name", Json::from(format!("node {node}")))]),
            )],
        ));
    }
    for span in spans {
        // The send itself, on the source node's track.
        events.push(slice("launch", span.launch, ANCHOR_WIDTH, span.src, span));
        let Some(arrive) = span.arrive else {
            continue; // dropped or still in the fabric: nothing else to draw
        };
        // One flow arrow per network crossing: starts inside the launch
        // slice, ends at the start of the destination's first slice.
        events.push(event(
            "msg",
            "s",
            span.launch,
            span.src,
            [("id", Json::from(span.uid))],
        ));
        events.push(event(
            "msg",
            "f",
            arrive,
            span.dst,
            [("id", Json::from(span.uid)), ("bp", Json::from("e"))],
        ));
        // NIC residency: arrival until the message left the NIC (upcall
        // on the fast path, kernel insert on the buffered path).
        let nic_end = span.insert.or(span.deliver);
        events.push(slice(
            "nic",
            arrive,
            nic_end.map_or(ANCHOR_WIDTH, |e| e.saturating_sub(arrive)),
            span.dst,
            span,
        ));
        // Software-buffer residency (buffered case only).
        if let Some(insert) = span.insert {
            events.push(slice(
                "vbuf",
                insert,
                span.deliver
                    .map_or(ANCHOR_WIDTH, |d| d.saturating_sub(insert)),
                span.dst,
                span,
            ));
        }
        // Handler execution, when one ran.
        if let (Some(deliver), Some(done)) = (span.deliver, span.done) {
            events.push(slice(
                "handler",
                deliver,
                done.saturating_sub(deliver),
                span.dst,
                span,
            ));
        }
    }
    Json::object([
        ("traceEvents", Json::array(events)),
        ("displayTimeUnit", Json::from("ns")),
        (
            "otherData",
            Json::object([("clock", Json::from("simulated cycles"))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::InvariantChecker;
    use crate::trace::{TraceEvent, Tracer};

    fn sample_spans() -> Vec<MessageSpan> {
        let oracle = InvariantChecker::new();
        let tracer = Tracer::disabled();
        oracle.attach(&tracer);
        tracer.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: None,
            to_job: Some(0),
        });
        // Fast-path message.
        tracer.emit(TraceEvent::MsgLaunch {
            node: 0,
            job: 0,
            dst: 1,
            words: 3,
            uid: 1,
        });
        tracer.set_time(10);
        tracer.emit(TraceEvent::MsgArrive {
            node: 1,
            qlen: 1,
            uid: 1,
        });
        tracer.set_time(12);
        tracer.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 1,
        });
        tracer.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 40,
        });
        // Buffered message, still resident at run end.
        tracer.set_time(50);
        tracer.emit(TraceEvent::MsgLaunch {
            node: 0,
            job: 0,
            dst: 1,
            words: 5,
            uid: 2,
        });
        tracer.set_time(60);
        tracer.emit(TraceEvent::MsgArrive {
            node: 1,
            qlen: 1,
            uid: 2,
        });
        tracer.set_time(65);
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 5,
            swapped: false,
            uid: 2,
        });
        oracle.finish().spans
    }

    fn events_of(doc: &Json) -> Vec<Json> {
        match doc.get("traceEvents") {
            Some(Json::Arr(evs)) => evs.clone(),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }

    #[test]
    fn export_round_trips_and_is_deterministic() {
        let spans = sample_spans();
        let a = chrome_trace(&spans, 2).render();
        let b = chrome_trace(&spans, 2).render();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("export is valid JSON");
        assert_eq!(parsed.render(), a);
    }

    #[test]
    fn one_flow_arrow_per_network_crossing() {
        let doc = chrome_trace(&sample_spans(), 2);
        let events = events_of(&doc);
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph") == Some(&Json::from(ph)))
                .count()
        };
        // Both messages arrived, so both start and finish a flow.
        assert_eq!(phase("s"), 2);
        assert_eq!(phase("f"), 2);
        assert_eq!(phase("M"), 2); // one process-name record per node
        for e in &events {
            if e.get("ph") == Some(&Json::from("s")) || e.get("ph") == Some(&Json::from("f")) {
                assert!(e.get("id").is_some(), "flow events carry the uid as id");
            }
        }
    }

    #[test]
    fn segments_tile_the_delivered_span() {
        let doc = chrome_trace(&sample_spans(), 2);
        let events = events_of(&doc);
        let slice_named = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph") == Some(&Json::from("X"))
                        && e.get("name") == Some(&Json::from(name))
                        && e.get("args").and_then(|a| a.get("uid")) == Some(&Json::from(1u64))
                })
                .cloned()
                .unwrap_or_else(|| panic!("no {name} slice for uid 1"))
        };
        let ts = |e: &Json| match e.get("ts") {
            Some(Json::UInt(v)) => *v,
            other => panic!("ts missing: {other:?}"),
        };
        let dur = |e: &Json| match e.get("dur") {
            Some(Json::UInt(v)) => *v,
            other => panic!("dur missing: {other:?}"),
        };
        let nic = slice_named("nic");
        let handler = slice_named("handler");
        // nic [10, 12) then handler [12, 40): contiguous tiling.
        assert_eq!(ts(&nic) + dur(&nic), ts(&handler));
        assert_eq!(ts(&handler) + dur(&handler), 40);
    }
}
