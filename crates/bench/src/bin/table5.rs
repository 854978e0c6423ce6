//! Table 5: cycle counts of the buffered (virtual-buffering) path.
//!
//! A microbenchmark forces messages through the software buffer: the
//! receiver holds atomicity far past the timeout, so the OS revokes its
//! interrupt disable and diverts everything to virtual memory; the
//! receiver then drains by polling (transparent access). The harness
//! reports the cost-model constants alongside measured per-message
//! buffered handler costs and demand-allocation (vmalloc) counts.

// `JobSpec` holds an `Arc<dyn Program>`; these programs are single-threaded.
#![allow(clippy::arc_with_non_send_sync)]

use std::cell::RefCell;
use std::sync::Arc;

use fugu_bench::{write_report, Json, Opts, Table};
use udm::{CostModel, Envelope, JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

struct BufferedProbe {
    count: u32,
    payload_words: usize,
    drain_cycles: RefCell<Vec<u64>>,
}

impl Program for BufferedProbe {
    fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
        Box::pin(async move {
            if ctx.node() == 0 {
                let payload = vec![0u32; self.payload_words];
                for _ in 0..self.count {
                    ctx.send(1, 0, &payload).await;
                    ctx.compute(300).await;
                }
            } else {
                // Hold atomicity until well past the revocation timeout while
                // the messages stream in.
                ctx.begin_atomic().await;
                ctx.compute(200_000).await;
                let mut got = 0;
                while got < self.count {
                    let t0 = ctx.now().await;
                    if ctx.poll().await {
                        let t1 = ctx.now().await;
                        self.drain_cycles.borrow_mut().push(t1 - t0);
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

fn main() {
    let opts = Opts::parse(2);
    let count = if opts.quick { 100 } else { 1_000 };
    let costs = CostModel::hard_atomicity();

    println!("Table 5 — overhead to insert and extract messages from the software buffer");
    println!("(paper: insert 180 min / 3,162 w/vmalloc; extract 52; minimum total 232)\n");

    let mut table = Table::new(&["item", "model", "measured"]);
    table.row(vec![
        "minimum buffer-insert handler".into(),
        costs.buf_insert_min.to_string(),
        "(charged at kernel insert)".into(),
    ]);
    table.row(vec![
        "maximum handler (w/vmalloc)".into(),
        costs.buf_insert_vmalloc.to_string(),
        "(charged on page allocation)".into(),
    ]);

    let probe = Arc::new(BufferedProbe {
        count,
        payload_words: 0,
        drain_cycles: RefCell::new(Vec::new()),
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
    let j = r.job("probe");
    let drain = probe.drain_cycles.borrow();
    // The measured poll includes the 3-cycle poll check on top of the
    // 52-cycle buffered extraction.
    let poll_check = costs.poll_check as f64;
    let extract = drain.iter().sum::<u64>() as f64 / drain.len().max(1) as f64 - poll_check;
    table.row(vec![
        "execute null handler from buffer".into(),
        costs.buf_extract_null.to_string(),
        format!("{extract:.0}"),
    ]);
    table.row(vec![
        "minimum total per message".into(),
        costs.buffered_total_null().to_string(),
        format!("{:.0}", costs.buf_insert_min as f64 + extract),
    ]);
    table.print();

    println!();
    println!(
        "buffered deliveries: {} of {} sent ({} revocation(s); {} page allocations across {} inserts; peak {} page frame(s))",
        j.delivered_buffered,
        j.sent,
        j.atomicity_timeouts,
        r.nodes[1].vmallocs,
        r.nodes[1].vbuf_inserts,
        r.peak_buffer_pages(),
    );
    println!(
        "per-word extraction (model): +{} cycles per 2 payload words",
        costs.buf_extract_per_2words
    );

    write_report(
        &opts,
        "table5",
        Json::array([Json::object([
            ("insert_min_model", Json::from(costs.buf_insert_min)),
            ("insert_vmalloc_model", Json::from(costs.buf_insert_vmalloc)),
            ("extract_null_model", Json::from(costs.buf_extract_null)),
            ("extract_measured", Json::from(extract)),
            ("total_null_model", Json::from(costs.buffered_total_null())),
            ("delivered_buffered", Json::from(j.delivered_buffered)),
            ("sent", Json::from(j.sent)),
            ("revocations", Json::from(j.atomicity_timeouts)),
            ("vmallocs", Json::from(r.nodes[1].vmallocs)),
            ("vbuf_inserts", Json::from(r.nodes[1].vbuf_inserts)),
            ("peak_pages", Json::from(r.peak_buffer_pages())),
        ])]),
    );
}
