//! Table 6: application characteristics, standalone on eight nodes —
//! runtime cycles, total messages, mean cycles between communication
//! events (`T_betw = cycles × P / messages`) and mean cycles per handler
//! (`T_hand`). Paper values are printed alongside for shape comparison;
//! data sets are scaled down (see EXPERIMENTS.md), so absolute cycle and
//! message counts are smaller while the per-application ordering and the
//! `T_betw`/`T_hand` regimes should match.

use fugu_bench::{parallel_map, standalone, write_report, AppKind, Json, Opts, Table};

fn main() {
    let opts = Opts::parse(8);

    println!(
        "Table 6 — application characteristics (standalone, {} nodes)",
        opts.nodes
    );
    println!();

    let results = parallel_map(opts.jobs, &AppKind::ALL, |&kind| {
        let mut cycles = 0.0;
        let mut msgs = 0.0;
        let mut t_hand = 0.0;
        for trial in 0..opts.trials {
            let r = standalone(kind, &opts, trial).run();
            let j = r.job(kind.name());
            cycles += j.completion.expect("foreground job completes") as f64;
            msgs += j.sent as f64;
            t_hand += j.handler_cycles.mean();
        }
        eprintln!("  [{} done]", kind.name());
        (
            cycles / opts.trials as f64,
            msgs / opts.trials as f64,
            t_hand / opts.trials as f64,
        )
    });

    let mut t = Table::new(&[
        "app",
        "cycles",
        "msgs",
        "T_betw",
        "T_hand",
        "paper cycles",
        "paper msgs",
        "paper T_betw",
        "paper T_hand",
    ]);
    let mut points = Vec::new();
    for (kind, &(cycles, msgs, t_hand)) in AppKind::ALL.iter().zip(&results) {
        let t_betw = cycles * opts.nodes as f64 / msgs.max(1.0);
        let (pc, pm, pb, ph) = kind.paper_row();
        t.row(vec![
            kind.name().into(),
            format!("{:.1}M", cycles / 1e6),
            format!("{:.0}", msgs),
            format!("{:.0}", t_betw),
            format!("{:.0}", t_hand),
            format!("{:.1}M", pc / 1e6),
            pm.to_string(),
            format!("{pb:.0}"),
            format!("{ph:.0}"),
        ]);
        points.push(Json::object([
            ("app", Json::from(kind.name())),
            ("cycles", Json::from(cycles)),
            ("messages", Json::from(msgs)),
            ("t_betw", Json::from(t_betw)),
            ("t_hand", Json::from(t_hand)),
            ("paper_cycles", Json::from(pc)),
            ("paper_messages", Json::from(pm)),
            ("paper_t_betw", Json::from(pb)),
            ("paper_t_hand", Json::from(ph)),
        ]));
    }
    t.print();
    write_report(&opts, "table6", Json::array(points));
}
