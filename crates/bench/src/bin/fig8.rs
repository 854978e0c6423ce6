//! Figure 8: relative runtimes of applications multiprogrammed with a null
//! application versus decreasing schedule quality, normalized to the
//! zero-skew multiprogrammed runtime (which the paper reports to be within
//! 1% of 2× the standalone runtime).
//!
//! Expected shape (paper): barrier's slowdown is almost exactly the inverse
//! of the skew; enum is nearly insensitive (it tolerates latency, paying
//! only buffering overhead); the CRL applications fall in between.

use fugu_bench::{
    parallel_map, skew_points, standalone, vs_null, write_report, AppKind, Json, Opts, Table,
};

fn main() {
    let opts = Opts::parse(8);
    let skews = skew_points(opts.quick);

    println!(
        "Figure 8 — relative runtime vs schedule skew (app × null, {} nodes)",
        opts.nodes
    );
    println!("(normalized to the zero-skew multiprogrammed runtime)");
    println!();

    // Sweep the standalone baselines and all (app, skew) points in one
    // parallel pass; index 0..5 are the standalones, the rest the
    // multiprogrammed points in app-major order.
    enum Point {
        Standalone(AppKind),
        VsNull(AppKind, f64),
    }
    let mut sweep: Vec<Point> = AppKind::ALL.iter().map(|&k| Point::Standalone(k)).collect();
    sweep.extend(
        AppKind::ALL
            .iter()
            .flat_map(|&kind| skews.iter().map(move |&skew| Point::VsNull(kind, skew))),
    );
    let results = parallel_map(opts.jobs, &sweep, |p| match *p {
        Point::Standalone(kind) => standalone(kind, &opts, 0)
            .run()
            .job(kind.name())
            .completion
            .expect("completes") as f64,
        Point::VsNull(kind, skew) => {
            let mut completion = 0.0;
            for trial in 0..opts.trials {
                let r = vs_null(kind, skew, &opts, trial).run();
                completion += r.job(kind.name()).completion.expect("completes") as f64;
            }
            eprintln!("  [{} skew {:.0}% done]", kind.name(), 100.0 * skew);
            completion / opts.trials as f64
        }
    });

    let mut headers: Vec<String> = vec!["app".into()];
    headers.extend(skews.iter().map(|s| format!("skew {:.0}%", 100.0 * s)));
    headers.push("2x standalone check".into());
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let napps = AppKind::ALL.len();
    let mut points = Vec::new();
    for (a, kind) in AppKind::ALL.iter().enumerate() {
        let standalone = results[a];
        let base = results[napps + a * skews.len()]; // zero-skew point
        let mut row = vec![kind.name().to_string()];
        for (s, &skew) in skews.iter().enumerate() {
            let completion = results[napps + a * skews.len() + s];
            row.push(format!("{:.2}x", completion / base));
            points.push(Json::object([
                ("app", Json::from(kind.name())),
                ("skew", Json::from(skew)),
                ("completion_cycles", Json::from(completion)),
                ("relative", Json::from(completion / base)),
                ("standalone_cycles", Json::from(standalone)),
            ]));
        }
        row.push(format!("{:.2}x standalone", base / standalone));
        t.row(row);
    }
    t.print();
    write_report(&opts, "fig8", Json::array(points));
}
