//! PAPER-SCALE — runs the paper's actual instance sizes (n = 1M,
//! m ∈ {4M, 20M}) end-to-end, printing times, per-step breakdowns and
//! work counters. This is the full-size companion to `fig3`/`fig4`
//! (which default to scaled-down instances for quick runs).
//!
//! ```text
//! cargo run -p bcc-bench --release --bin paper_scale -- [--n 1000000] [--p P] [--json out]
//! ```

use bcc_bench::{fmt_dur, maybe_write_json, Options, Record};
use bcc_core::{Algorithm, BccConfig};
use bcc_graph::gen;
use bcc_smp::Pool;
use std::time::Instant;

fn main() {
    let opts = Options::parse(1_000_000);
    let n = opts.n;
    let logn = (32 - n.leading_zeros()) as usize;
    let densities = [4 * n as usize, logn * n as usize];
    let mut records = Vec::new();

    for m in densities {
        let m = m.min(gen::max_edges(n));
        eprintln!("generating random connected graph n = {n}, m = {m} ...");
        let t = Instant::now();
        let g = gen::random_connected(n, m, opts.seed);
        eprintln!("  generated in {}", fmt_dur(t.elapsed()));

        println!("== n = {n}, m = {m} ==");
        let seq = BccConfig::new(Algorithm::Sequential)
            .run(&Pool::new(1), &g)
            .unwrap()
            .result;
        println!(
            "  {:<11} {:>10}   ({} biconnected components)",
            "Sequential",
            fmt_dur(seq.phases.total),
            seq.num_components
        );
        records.push(Record {
            experiment: "paper_scale".into(),
            algorithm: "Sequential".into(),
            n,
            m,
            threads: 1,
            seconds: seq.phases.total.as_secs_f64(),
            steps: None,
        });

        for &p in &[1usize, opts.max_threads] {
            let pool = Pool::new(p);
            for alg in [Algorithm::TvSmp, Algorithm::TvOpt, Algorithm::TvFilter] {
                let r = BccConfig::new(alg).run(&pool, &g).unwrap().result;
                assert_eq!(r.edge_comp, seq.edge_comp, "{} must agree", alg.name());
                println!(
                    "  {:<11} {:>10}   p={p:<2} effective m = {:>9}  aux n/E = {}/{}",
                    alg.name(),
                    fmt_dur(r.phases.total),
                    r.stats.effective_edges,
                    r.stats.aux_vertices,
                    r.stats.aux_edges,
                );
                records.push(Record {
                    experiment: "paper_scale".into(),
                    algorithm: alg.name().into(),
                    n,
                    m,
                    threads: p,
                    seconds: r.phases.total.as_secs_f64(),
                    steps: Some(
                        r.phases
                            .named()
                            .iter()
                            .map(|&(s, d)| (s.to_string(), d.as_secs_f64()))
                            .collect(),
                    ),
                });
            }
        }
        println!();
    }
    maybe_write_json(&opts, &records);
}
