//! FIG4 — reproduces the paper's Figure 4: per-step execution-time
//! breakdown (Spanning-tree, Euler-tour, Root, Low-high, Label-edge,
//! Connected-components, Filtering) for TV-SMP, TV-opt, and TV-filter
//! at a fixed thread count, across edge densities.
//!
//! ```text
//! cargo run -p bcc-bench --release --bin fig4 -- [--n N] [--p P] [--json out.json]
//! ```
//! `--p` here is the single thread count to instrument (paper: 12).

use bcc_bench::{fmt_dur, maybe_write_json, Options, Record};
use bcc_core::{Algorithm, BccConfig, PhaseTimes};
use bcc_graph::gen;
use bcc_smp::Pool;

fn main() {
    let opts = Options::parse(100_000);
    let n = opts.n;
    let p = opts.max_threads;
    let pool = Pool::new(p);
    let logn = (32 - n.leading_zeros()) as usize;
    let densities: Vec<usize> = vec![4 * n as usize, 10 * n as usize, logn * n as usize];

    let mut records = Vec::new();
    for m in densities {
        let m = m.min(gen::max_edges(n));
        let g = gen::random_connected(n, m, opts.seed);
        println!("== n = {n}, m = {m}, p = {p} ==");
        println!(
            "  {:<16}{:>12}{:>12}{:>12}",
            "step", "TV-SMP", "TV-opt", "TV-filter"
        );

        let mut phase_sets: Vec<PhaseTimes> = Vec::new();
        let mut stat_sets = Vec::new();
        for alg in [Algorithm::TvSmp, Algorithm::TvOpt, Algorithm::TvFilter] {
            // Median-of-runs per phase is overkill; take the fastest of
            // `runs` total runs (phases are stable at these sizes).
            let mut best: Option<(PhaseTimes, bcc_core::PipelineStats)> = None;
            for _ in 0..opts.runs.max(1) {
                let r = BccConfig::new(alg).run(&pool, &g).unwrap().result;
                if best.as_ref().is_none_or(|(b, _)| r.phases.total < b.total) {
                    best = Some((r.phases, r.stats));
                }
            }
            let (phases, stats) = best.unwrap();
            stat_sets.push(stats);
            records.push(Record {
                experiment: "fig4".into(),
                algorithm: alg.name().into(),
                n,
                m,
                threads: p,
                seconds: phases.total.as_secs_f64(),
                steps: Some(
                    phases
                        .named()
                        .iter()
                        .map(|&(s, d)| (s.to_string(), d.as_secs_f64()))
                        .collect(),
                ),
            });
            phase_sets.push(phases);
        }

        for step in 0..7 {
            let name = phase_sets[0].named()[step].0;
            print!("  {name:<16}");
            for ps in &phase_sets {
                print!("{:>12}", fmt_dur(ps.named()[step].1));
            }
            println!();
        }
        print!("  {:<16}", "TOTAL");
        for ps in &phase_sets {
            print!("{:>12}", fmt_dur(ps.total));
        }
        println!();
        // Machine-independent work counters (paper's analysis, checkable
        // on any host).
        print!("  {:<16}", "effective m");
        for st in &stat_sets {
            print!("{:>12}", st.effective_edges);
        }
        println!();
        // Auxiliary graph: one vertex per tree edge (n) / edges from
        // R'_c conditions 2 and 3. Condition 1 only hangs a pendant
        // vertex per nontree edge, so it is contracted away.
        print!("  {:<6}", "aux n/E");
        for st in &stat_sets {
            print!("{:>17}", format!("{}/{}", st.aux_vertices, st.aux_edges));
        }
        println!();
        // SV graft rounds: spanning-tree run (TV-SMP's step 1, TV-filter's
        // forest of G − T) / step-6 tail.
        print!("  {:<16}", "SV rounds s/6");
        for st in &stat_sets {
            print!(
                "{:>12}",
                format!("{}/{}", st.sv_rounds_spanning, st.sv_rounds_cc)
            );
        }
        println!();
        // BFS direction schedule (TV-filter only): levels, how many ran
        // bottom-up, and the per-level T/B string.
        print!("  {:<16}", "BFS dirs");
        for st in &stat_sets {
            if st.bfs_levels == 0 {
                print!("{:>12}", "-");
            } else {
                print!(
                    "{:>12}",
                    format!("{}({}B)", st.bfs_directions, st.bfs_bottom_up_levels)
                );
            }
        }
        println!("\n");
    }

    println!(
        "Expected shapes (paper Fig. 4): TV-SMP spends far more on\n\
         Spanning-tree + Euler-tour + Root than TV-opt; TV-filter pays a\n\
         Filtering step but shrinks Low-high, Label-edge, and\n\
         Connected-components, increasingly with density."
    );
    maybe_write_json(&opts, &records);
}
