//! Figure 7: percentage of messages traversing the buffered path for each
//! application multiprogrammed with a null application, versus decreasing
//! schedule quality (gang-schedule skew). Also prints the §5.1 claim check:
//! the maximum number of physical pages used for buffering on any node.
//!
//! Expected shape (paper): applications with intrinsic synchronization
//! (barrier, and the CRL applications) buffer an essentially constant,
//! small fraction; enum buffers linearly with skew.

use fugu_bench::{
    parallel_map, pct, skew_points, vs_null, write_report, AppKind, Json, Opts, Table,
};

fn main() {
    let opts = Opts::parse(8);
    let skews = skew_points(opts.quick);

    println!(
        "Figure 7 — % messages buffered vs schedule skew (app × null, {} nodes)",
        opts.nodes
    );
    println!();

    // One data point per (application, skew) pair, swept in parallel under
    // --jobs; results come back in sweep order so table and JSON output
    // are independent of the thread count.
    let sweep: Vec<(AppKind, f64)> = AppKind::ALL
        .iter()
        .flat_map(|&kind| skews.iter().map(move |&skew| (kind, skew)))
        .collect();
    let results = parallel_map(opts.jobs, &sweep, |&(kind, skew)| {
        let mut frac = 0.0;
        let mut peak_pages = 0u64;
        for trial in 0..opts.trials {
            let r = vs_null(kind, skew, &opts, trial).run();
            frac += r.job(kind.name()).buffered_fraction();
            peak_pages = peak_pages.max(r.peak_buffer_pages());
        }
        eprintln!("  [{} skew {:.0}% done]", kind.name(), 100.0 * skew);
        (frac / opts.trials as f64, peak_pages)
    });

    let mut headers: Vec<String> = vec!["app".into()];
    headers.extend(skews.iter().map(|s| format!("skew {:.0}%", 100.0 * s)));
    headers.push("peak pages/node".into());
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let mut points = Vec::new();
    for (a, kind) in AppKind::ALL.iter().enumerate() {
        let mut row = vec![kind.name().to_string()];
        let mut peak_pages = 0u64;
        for (s, &skew) in skews.iter().enumerate() {
            let (frac, peak) = results[a * skews.len() + s];
            row.push(pct(frac));
            peak_pages = peak_pages.max(peak);
            points.push(Json::object([
                ("app", Json::from(kind.name())),
                ("skew", Json::from(skew)),
                ("buffered_fraction", Json::from(frac)),
                ("peak_pages", Json::from(peak)),
            ]));
        }
        row.push(peak_pages.to_string());
        t.row(row);
    }
    t.print();
    println!();
    println!("paper claim: maximum physical pages required is < 7 pages/node in all cases");
    write_report(&opts, "fig7", Json::array(points));
}
