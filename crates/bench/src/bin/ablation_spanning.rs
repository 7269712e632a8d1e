//! ABL-SPT — spanning-tree ablation (§3.2): Shiloach–Vishkin graft &
//! shortcut (edge-list input, unrooted) versus level-synchronous BFS
//! versus the work-stealing graph traversal (both adjacency input,
//! rooted). The rooted algorithms merge the paper's Spanning-tree and
//! Root-tree steps.
//!
//! ```text
//! cargo run -p bcc-bench --release --bin ablation_spanning -- [--n N] [--p P]
//! ```

use bcc_bench::{fmt_dur, maybe_write_json, time_median, Options, Record};
use bcc_connectivity::as_sync::awerbuch_shiloach;
use bcc_connectivity::bfs::bfs_tree_par;
use bcc_connectivity::sv::connected_components;
use bcc_connectivity::traversal::work_stealing_tree;
use bcc_graph::{gen, Csr};
use bcc_smp::Pool;

fn main() {
    let opts = Options::parse(200_000);
    let n = opts.n;
    let p = opts.max_threads;
    let pool = Pool::new(p);
    let mut records = Vec::new();

    for mult in [2usize, 8] {
        let m = mult * n as usize;
        let g = gen::random_connected(n, m, opts.seed);
        println!("== n = {n}, m = {m}, p = {p} ==");

        // SV consumes the edge list directly.
        let sv = time_median(opts.runs, || {
            let r = connected_components(&pool, n, g.edges());
            std::hint::black_box(r.num_components);
        });
        println!(
            "  {:<28} {:>10}   (unrooted; edge list)",
            "Shiloach-Vishkin (async)",
            fmt_dur(sv)
        );

        // The synchronous PRAM-faithful variant for comparison.
        let awsh = time_median(opts.runs, || {
            let r = awerbuch_shiloach(&pool, n, g.edges());
            std::hint::black_box(r.num_components);
        });
        println!(
            "  {:<28} {:>10}   (unrooted; edge list)",
            "Awerbuch-Shiloach (sync)",
            fmt_dur(awsh)
        );

        // BFS and traversal need adjacency: charge the conversion.
        let bfs = time_median(opts.runs, || {
            let csr = Csr::build(&g);
            let t = bfs_tree_par(&pool, &csr, 0);
            std::hint::black_box(t.reached);
        });
        println!(
            "  {:<28} {:>10}   (rooted; incl. CSR build)",
            "BFS (level-synchronous)",
            fmt_dur(bfs)
        );

        let ws = time_median(opts.runs, || {
            let csr = Csr::build(&g);
            let t = work_stealing_tree(&pool, &csr, 0);
            std::hint::black_box(t.reached);
        });
        println!(
            "  {:<28} {:>10}   (rooted; incl. CSR build)\n",
            "Work-stealing traversal",
            fmt_dur(ws)
        );

        for (alg, d) in [
            ("Shiloach-Vishkin", sv),
            ("Awerbuch-Shiloach", awsh),
            ("BFS", bfs),
            ("Work-stealing", ws),
        ] {
            records.push(Record {
                experiment: "ablation_spanning".into(),
                algorithm: alg.into(),
                n,
                m,
                threads: p,
                seconds: d.as_secs_f64(),
                steps: None,
            });
        }
    }

    println!(
        "Expected shape (paper §3.2 and [6,3]): the traversal-based rooted\n\
         spanning trees beat SV, whose graft-and-shortcut rounds touch every\n\
         edge repeatedly; and they come out already rooted, eliminating the\n\
         separate Root-tree step."
    );
    maybe_write_json(&opts, &records);
}
