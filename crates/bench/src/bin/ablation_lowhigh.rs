//! ABL-LOWHIGH — two ways to aggregate subtree extremes for the
//! Low-high step: the O(n log n)-work / O(1)-round sparse range table
//! versus the O(n + m)-work / O(depth)-round level-synchronous sweep.
//! Shallow BFS trees (random graphs) favor the sweep; the chain graph
//! shows its collapse.
//!
//! ```text
//! cargo run -p bcc-bench --release --bin ablation_lowhigh -- [--n N] [--p P]
//! ```

use bcc_bench::{fmt_dur, maybe_write_json, time_median, Options, Record};
use bcc_connectivity::bfs::bfs_tree_par;
use bcc_core::low_high::{compute_low_high_with, LowHighMethod};
use bcc_graph::{gen, Csr, Edge, Graph};
use bcc_smp::Pool;

fn prepared(g: &Graph, pool: &Pool) -> (Vec<Edge>, Vec<bool>, bcc_euler::TreeInfo, u32) {
    let csr = Csr::build(g);
    let bfs = bfs_tree_par(pool, &csr, 0);
    assert_eq!(bfs.reached, g.n());
    let mut is_tree = vec![false; g.m()];
    let mut tree_edges = Vec::with_capacity(g.n() as usize - 1);
    for v in 0..g.n() {
        let eid = bfs.parent_eid[v as usize];
        if eid != bcc_smp::NIL {
            is_tree[eid as usize] = true;
            tree_edges.push(g.edges()[eid as usize]);
        }
    }
    let tour = bcc_euler::dfs_euler_tour(pool, g.n(), tree_edges, &bfs.parent, 0);
    let info = bcc_euler::tree_computations(pool, &tour, 0);
    let depth = info.depth.iter().copied().max().unwrap_or(0);
    (g.edges().to_vec(), is_tree, info, depth)
}

fn main() {
    let opts = Options::parse(200_000);
    let n = opts.n;
    let p = opts.max_threads;
    let pool = Pool::new(p);
    let mut records = Vec::new();

    let instances: Vec<(String, Graph)> = vec![
        (
            "random m=4n (shallow BFS tree)".into(),
            gen::random_connected(n, 4 * n as usize, opts.seed),
        ),
        (
            "random m=12n".into(),
            gen::random_connected(n, 12 * n as usize, opts.seed),
        ),
        ("chain (depth = n-1)".into(), gen::path(n / 4)),
    ];

    println!("p = {p}");
    println!(
        "{:<34} {:>8} {:>14} {:>14}",
        "instance", "depth", "range table", "level sweep"
    );
    for (name, g) in &instances {
        let (edges, is_tree, info, depth) = prepared(g, &pool);
        let mut row = Vec::new();
        for method in [LowHighMethod::RangeTable, LowHighMethod::LevelSweep] {
            let d = time_median(opts.runs, || {
                let lh = compute_low_high_with(&pool, &edges, &is_tree, &info, method);
                std::hint::black_box(lh.low[0]);
            });
            row.push(d);
            records.push(Record {
                experiment: "ablation_lowhigh".into(),
                algorithm: format!("{method:?}"),
                n: g.n(),
                m: g.m(),
                threads: p,
                seconds: d.as_secs_f64(),
                steps: None,
            });
        }
        println!(
            "{:<34} {:>8} {:>14} {:>14}",
            name,
            depth,
            fmt_dur(row[0]),
            fmt_dur(row[1])
        );
    }
    println!(
        "\nThe sweep does O(n+m) work in O(depth) rounds; the table does\n\
         O(n log n) work in O(1) rounds. BFS trees of random graphs are\n\
         O(log n) deep, so both are viable there; the chain is the sweep's\n\
         pathological case."
    );
    maybe_write_json(&opts, &records);
}
