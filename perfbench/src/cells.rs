//! The static phase: the seven (algorithm, p) cells from a loaded
//! `Graph` to edge labels, every timed run checked against Sequential,
//! plus the traced run's per-layer probes.

use crate::stats::{median, ms, ticks, Ticks};
use crate::trace::{SpanId, Tracer};
use crate::{Metrics, Scale, Workload};
use bcc_connectivity::{bfs_tree, connected_components, TraversalTuning};
use bcc_core::{Algorithm, BccConfig, BccRun, PhaseReport, Step};
use bcc_graph::{gen, io, Csr, Edge, Graph, GraphBuilder};
use bcc_smp::{Pool, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seven end-to-end cells: metric name stem, algorithm, threads.
const CELLS: [(&str, Algorithm, usize); 7] = [
    ("seq", Algorithm::Sequential, 1),
    ("fastbcc_p1", Algorithm::FastBcc, 1),
    ("fastbcc_p2", Algorithm::FastBcc, 2),
    ("tvfilter_p1", Algorithm::TvFilter, 1),
    ("tvfilter_p2", Algorithm::TvFilter, 2),
    ("tvopt_p2", Algorithm::TvOpt, 2),
    ("tvsmp_p2", Algorithm::TvSmp, 2),
];

/// Each cell runs back to back within a round until it has taken this
/// long (and at least once), so cells of a few milliseconds get enough
/// samples for a steady median.
const MIN_CELL_TIME: Duration = Duration::from_millis(250);

/// Steps each traced pipeline reports, as named in the per-layer metrics.
const FASTBCC_STEPS: [Step; 6] = [
    Step::SpanningTree,
    Step::RootTree,
    Step::Filtering,
    Step::LowHigh,
    Step::LabelEdge,
    Step::ConnectedComponents,
];
const TVFILTER_STEPS: [Step; 7] = Step::ALL;

fn step_metric(step: Step) -> &'static str {
    match step {
        Step::SpanningTree => "spanning_tree",
        Step::EulerTour => "euler_tour",
        Step::RootTree => "root_tree",
        Step::LowHigh => "low_high",
        Step::LabelEdge => "label_edge",
        Step::ConnectedComponents => "cc",
        Step::Filtering => "filtering",
    }
}

/// A workload's static input before set-up: an edge list that
/// `GraphBuilder` turns into a `Graph` in memory.
struct Source {
    n: u32,
    edges: Vec<Edge>,
}

pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create .perfbench work directory");
    dir
}

/// Generates the workload's static input from `seed`.
fn source(w: Workload, seed: u64, scale: Scale) -> Source {
    let g = match w {
        Workload::SparseHeap => {
            let (n, m) = scale.sparse();
            gen::random_connected(n, m, seed)
        }
        // One connected part of the served family, a cycle plus n/4
        // random chords, large enough that each p=2 run does hundreds
        // of milliseconds of work in a few hundred regions.
        Workload::ServeChurn => bcc_serve::component_grid(scale.churn_static_n(), 1, seed),
    };
    Source {
        n: g.n(),
        edges: g.into_edges(),
    }
}

/// The timed set-up step: `GraphBuilder::build`.
fn setup_once(src: &Source) -> Graph {
    GraphBuilder::new(src.n)
        .reserve(src.edges.len())
        .edges(src.edges.iter().copied())
        .build()
        .expect("generated graph is valid")
}

/// Every static graph is connected, so each cell is `BccConfig::run`.
fn run_cell(cfg: &BccConfig, pool: &Pool, g: &Graph) -> BccRun {
    cfg.run(pool, g).expect("BCC run on a generated graph")
}

pub struct StaticOut {
    pub metrics: Metrics,
    /// Set-up time samples (seconds).
    pub setup: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// CPU seconds spent inside the timed window.
    pub cpu_s: f64,
    /// Machine ticks elapsed over the timed window.
    pub window: Ticks,
}

/// Fresh-process sample of FAST-BCC p=2 peak RSS growth, in MiB.
pub fn rss_child(w: Workload, seed: u64, scale: Scale) -> f64 {
    let src = source(w, seed, scale);
    let g = setup_once(&src);
    drop(src);
    let pool = Pool::new(2);
    pool.run(|_| {}); // workers parked before the baseline is read
    bcc_smp::rss::reset_peak().expect("reset the peak-RSS watermark");
    let base = bcc_smp::rss::current_rss_bytes().expect("read VmRSS");
    let run = run_cell(&BccConfig::new(Algorithm::FastBcc), &pool, &g);
    let peak = bcc_smp::rss::peak_rss_bytes().expect("read VmHWM");
    std::hint::black_box(&run);
    peak.saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

/// One FAST-BCC p=2 peak-RSS sample from a fresh copy of this program.
fn rss_sample(w: Workload, seed: u64, scale: Scale) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(&exe)
        .args(["--rss-child", "--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .args(scale.flag())
        .output()
        .expect("spawn RSS sample process");
    assert!(out.status.success(), "RSS sample process failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("RSS sample prints one number")
}

#[allow(clippy::too_many_arguments)]
pub fn run_static(
    w: Workload,
    seed: u64,
    scale: Scale,
    budget: Duration,
    setup_reps: usize,
    tracer: &Tracer,
    root: SpanId,
    inject_wrong_label: bool,
) -> StaticOut {
    let src = tracer.span("bench: generate input", root, |_| source(w, seed, scale));
    let mut setup = Vec::new();
    let mut graph = None;
    for _ in 0..setup_reps.max(1) {
        let t = Instant::now();
        let g = tracer.span("graph: set-up (GraphBuilder::build)", root, |_| {
            setup_once(&src)
        });
        setup.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");

    let plain = [Pool::new(1), Pool::new(2)];
    // The traced run's pools carry a Telemetry sink; created only then.
    let traced = tracer.on().then(|| {
        [1usize, 2].map(|p| {
            Pool::builder()
                .threads(p)
                .telemetry(Arc::new(Telemetry::new(p)))
                .build()
        })
    });

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Warm-up: one untimed run per cell; Sequential's labels are the
    // reference every later run must equal bit for bit.
    let reference = run_cell(&BccConfig::new(Algorithm::Sequential), &plain[0], &g)
        .result
        .edge_comp;
    attempted += 1;
    for &(_, alg, p) in &CELLS[1..] {
        let run = run_cell(&BccConfig::new(alg), &plain[p - 1], &g);
        attempted += 1;
        if run.result.edge_comp != reference {
            failed += 1;
        }
    }

    // A round runs each cell until it has taken MIN_CELL_TIME (at
    // least once), so short cells get many samples.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); CELLS.len()];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); CELLS.len()];
    let mut reports: Vec<Vec<PhaseReport>> = vec![Vec::new(); CELLS.len()];
    let cpu0 = crate::stats::cpu_seconds().unwrap_or(0.0);
    let window0 = ticks();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget {
        for (i, &(name, alg, p)) in CELLS.iter().enumerate() {
            let cfg = BccConfig::new(alg);
            let cell_start = Instant::now();
            let mut first = true;
            while first || cell_start.elapsed() < MIN_CELL_TIME {
                first = false;
                let t = Instant::now();
                let run = run_cell(&cfg, &plain[p - 1], &g);
                times[i].push(t.elapsed().as_secs_f64());
                let mut labels = run.result.edge_comp;
                if inject_wrong_label && round == 0 && name == "fastbcc_p2" {
                    labels[0] ^= 1;
                }
                attempted += 1;
                if labels != reference {
                    eprintln!("perfbench: {name} labels differ from Sequential (round {round})");
                    failed += 1;
                }
            }
            if let Some(traced) = &traced {
                let t = Instant::now();
                let run = tracer.span(&format!("core: BccConfig::run {name}"), root, |_| {
                    run_cell(&cfg, &traced[p - 1], &g)
                });
                traced_times[i].push(t.elapsed().as_secs_f64());
                attempted += 1;
                if run.result.edge_comp != reference {
                    failed += 1;
                }
                reports[i].push(run.report);
            }
        }
        round += 1;
    }
    let cpu_s = crate::stats::cpu_seconds().unwrap_or(0.0) - cpu0;
    let window = ticks().since(window0);

    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let mut metrics = Metrics::new();
    if !tracer.on() {
        for (i, &(name, _, _)) in CELLS.iter().enumerate() {
            metrics.push(&format!("{name}_s"), medians[i], "s");
        }
        metrics.push("fastbcc_rss_mb", rss_sample(w, seed, scale), "MiB");
        print_speedups(w, &times, &medians);
    } else {
        let overhead: f64 = (0..CELLS.len())
            .map(|i| median(&traced_times[i]) - medians[i])
            .sum();
        metrics.push("trace.overhead_ms", overhead * 1e3, "ms");
        layer_metrics(&mut metrics, &reports);
        probes(&mut metrics, w, &g, tracer, root);
    }
    StaticOut {
        metrics,
        setup,
        attempted,
        failed,
        cpu_s,
        window,
    }
}

fn print_speedups(w: Workload, times: &[Vec<f64>], medians: &[f64]) {
    eprintln!(
        "{:<14} {:>12} {:>10}  ({}: {} runs of seq)",
        "cell",
        "median_s",
        "vs_seq",
        w.name(),
        times[0].len(),
    );
    for (i, &(name, _, _)) in CELLS.iter().enumerate() {
        let t = medians[i];
        eprintln!("{name:<14} {t:>12.6} {:>9.3}x", medians[0] / t);
    }
}

/// Per-layer metrics read from the traced runs' `PhaseReport`s (median
/// over the window's runs of each cell).
fn layer_metrics(metrics: &mut Metrics, reports: &[Vec<PhaseReport>]) {
    let cell = |name: &str| {
        let i = CELLS.iter().position(|c| c.0 == name).expect("known cell");
        &reports[i]
    };
    let med = |rs: &[PhaseReport], f: &dyn Fn(&PhaseReport) -> f64| {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    for (alg, steps) in [
        ("fastbcc", &FASTBCC_STEPS[..]),
        ("tvfilter", &TVFILTER_STEPS[..]),
    ] {
        for p in [1, 2] {
            let rs = cell(&format!("{alg}_p{p}"));
            for &step in steps {
                let v = med(rs, &|r| r.step(step).map_or(0.0, |s| ms(s.duration)));
                metrics.push(&format!("{alg}.p{p}.{}_ms", step_metric(step)), v, "ms");
            }
            let v = med(rs, &|r| ms(r.total.saturating_sub(r.step_sum())));
            metrics.push(&format!("{alg}.p{p}.unattributed_ms"), v, "ms");
            let v = med(rs, &|r| r.alloc_bytes as f64 / (1024.0 * 1024.0));
            metrics.push(&format!("{alg}.p{p}.alloc_mb"), v, "MiB");
        }
        let rs = cell(&format!("{alg}_p2"));
        metrics.push(
            &format!("smp.{alg}.regions"),
            med(rs, &|r| r.phase_runs as f64),
            "count",
        );
        metrics.push(
            &format!("smp.{alg}.barrier_wait_ms"),
            med(rs, &|r| ms(r.barrier_wait)),
            "ms",
        );
        if alg == "fastbcc" {
            metrics.push("smp.fastbcc.imbalance", med(rs, &|r| r.imbalance), "ratio");
        }
    }
}

fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&samples), last.expect("reps >= 1"))
}

/// Layer probes: each layer's public entry point on the workload's own
/// graph, not a re-composed pipeline.
fn probes(metrics: &mut Metrics, w: Workload, g: &Graph, tracer: &Tracer, root: SpanId) {
    let p2 = Pool::new(2);
    tracer.span("graph: probes", root, |parent| {
        let (t, _) = tracer.span("graph: GraphBuilder::build", parent, |_| {
            timed_median(3, || {
                GraphBuilder::new(g.n())
                    .reserve(g.m())
                    .edges(g.edges().iter().copied())
                    .build()
                    .expect("valid")
            })
        });
        metrics.push("graph.build_ms", t * 1e3, "ms");

        let path = work_dir().join(format!("{}-probe.bccsr", w.name()));
        g.save_bccsr(&path).expect("write probe .bccsr");
        let (t, _) = tracer.span("graph: io::load", parent, |_| {
            timed_median(3, || io::load(&path).expect("load .bccsr"))
        });
        metrics.push("graph.load_ms", t * 1e3, "ms");
        let _ = std::fs::remove_file(&path);

        let (t, _) = tracer.span("graph: Csr::build", parent, |_| {
            timed_median(3, || Csr::build(g))
        });
        metrics.push("graph.csr_ms", t * 1e3, "ms");
        let (t, _) = tracer.span("graph: Csr::build_par p2", parent, |_| {
            timed_median(3, || Csr::build_par(&p2, g))
        });
        metrics.push("graph.csr_par_ms", t * 1e3, "ms");
    });

    tracer.span("connectivity: probes", root, |parent| {
        let csr = Csr::build(g);
        let tuning = TraversalTuning::default();
        let (t, tree) = tracer.span("connectivity: bfs_tree p2", parent, |_| {
            timed_median(3, || bfs_tree(&p2, &csr, 0, &tuning))
        });
        metrics.push("connectivity.bfs_ms", t * 1e3, "ms");
        metrics.push("connectivity.bfs_levels", f64::from(tree.levels), "count");
        metrics.push(
            "connectivity.bfs_bottom_up_levels",
            f64::from(tree.bottom_up_levels()),
            "count",
        );
        let (t, sv) = tracer.span("connectivity: connected_components p2", parent, |_| {
            timed_median(3, || connected_components(&p2, g.n(), g.edges()))
        });
        metrics.push("connectivity.sv_ms", t * 1e3, "ms");
        metrics.push("connectivity.sv_rounds", f64::from(sv.rounds), "count");
    });

    tracer.span("smp: probes", root, |parent| {
        const REPS: u32 = 2000;
        let (t, _) = tracer.span("smp: empty Pool::run p2", parent, |_| {
            timed_median(5, || {
                for _ in 0..REPS {
                    p2.run(|_| {});
                }
            })
        });
        metrics.push("smp.dispatch_us", t * 1e6 / f64::from(REPS), "us");
        let (t, _) = tracer.span("smp: barrier p2", parent, |_| {
            timed_median(5, || {
                p2.run(|ctx| {
                    for _ in 0..REPS {
                        ctx.barrier();
                    }
                })
            })
        });
        metrics.push("smp.barrier_us", t * 1e6 / f64::from(REPS), "us");
    });
}
