//! The paper's experiment grid as a library: graph families ×
//! algorithms × thread counts × trials, reduced to a `BENCH_bcc.json`
//! document, plus the regression comparator behind `bcc-bench compare`.
//!
//! Keeping this in the library (rather than the binary) makes the
//! schema testable: the golden-schema test emits a grid, parses it
//! back, and checks every field the plotting and CI tooling relies on.

use crate::json::Json;
use crate::prims::{run_prims_cells, PrimsMode};
use bcc_connectivity::bfs::bfs_tree_seq;
use bcc_core::{Algorithm, BccConfig, BccWorkspace, PhaseReport, TraversalTuning};
use bcc_graph::{gen, Csr, Edge, Graph, GraphBuilder};
use bcc_query::{CommitStats, IndexStore};
use bcc_serve::{
    component_grid, run_net_workload, run_workload, Admission, Daemon, Mode, NetFrontend,
    NetWorkloadReport, Profile, ServeConfig, ShardedStore, WorkloadConfig, WorkloadReport, Writers,
};
use bcc_smp::{Pool, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamp for the `BENCH_bcc.json` layout; bump on breaking
/// schema changes. `compare` reads any version listed in
/// [`COMPAT_SCHEMA_VERSIONS`].
///
/// v2 adds the `geo` family, the per-entry `tuning` spec and traversal
/// work counters (`sv_rounds_*`, `bfs_*`), and the per-family shape
/// summary (`families[].effective_diameter_90`). The workspace ablation
/// fields (`workspace`, `alloc_bytes`, `arena_hit_rate`, and the
/// `/ws-off` key suffix) are additive within v2: documents without them
/// stay comparable on the shared cells. The `store-multi` commit-latency
/// cells (`batch`, `batch_effective`, the [`CommitStats`] medians, and
/// the `/batch<k>` key suffix) are additive within v2 the same way.
/// So are the `serve` SLO cells (queries/s, latency/lag quantiles, the
/// `mode` field and its `/closed` / `/open` key suffix): their
/// `seconds` is the p99 query latency, the tail statement a serving
/// SLO is written against. The out-of-core ingestion fields are
/// additive within v2 the same way: algorithm cells gain
/// `peak_rss_bytes` (per-trial peak resident set, max over trials,
/// Linux only — omitted where the kernel does not expose it), and a
/// `--input` run replaces the generated families with a single `file`
/// family loaded from disk (text edge list or mapped `.bccsr`).
/// The `prims` kernel cells (see [`crate::prims`]) are additive within
/// v2 the same way: one entry per primitive kernel × thread count,
/// carrying `reps` (timed invocations per sample) and `simd` (the
/// dispatch tier the build selected — `avx2`, `sse2`, or `scalar`),
/// with the frozen pre-vectorization kernels riding along as
/// `-generic`/`-ref` algorithm series.
pub const SCHEMA_VERSION: u64 = 2;

/// Schema versions [`compare`] can still read (v1 documents predate the
/// tuning/diameter fields; their entries simply carry fewer keys).
pub const COMPAT_SCHEMA_VERSIONS: [u64; 2] = [1, 2];

/// Graph families the grid sweeps — the paper's three workload shapes
/// (random sparse graphs, regular meshes, the articulation-heavy chain
/// of cycles) plus a low-effective-diameter spatial network.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// `random_connected(n, 4n)` — the paper's random sparse inputs.
    RandomSparse,
    /// `geometric(n, deg ≈ 12, n long-range chords)` — a spatial
    /// network with enough random chords to give it a genuinely low
    /// effective diameter (small-world shape).
    Geo,
    /// `torus(k, k)` with `k = floor(sqrt(n))` — the mesh family.
    Torus,
    /// `cycle_chain(n/8, 8)` — many small blocks joined by bridges.
    CycleChain,
    /// A graph loaded from disk via [`bcc_graph::io::load`] (`--input`):
    /// a real dataset instead of the generated families. Not part of
    /// [`Family::ALL`]; it cannot be generated.
    File,
}

impl Family {
    /// Every family, in presentation order.
    pub const ALL: [Family; 4] = [
        Family::RandomSparse,
        Family::Geo,
        Family::Torus,
        Family::CycleChain,
    ];

    /// Name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Family::RandomSparse => "random-sparse",
            Family::Geo => "geo",
            Family::Torus => "torus",
            Family::CycleChain => "cycle-chain",
            Family::File => "file",
        }
    }

    /// The instance of this family with roughly `n` vertices.
    pub fn generate(self, n: u32, seed: u64) -> Graph {
        match self {
            Family::RandomSparse => gen::random_connected(n, 4 * n as usize, seed),
            Family::Geo => gen::geometric(n, 12.0, (n as usize).max(4), seed),
            Family::Torus => {
                let k = (n as f64).sqrt().floor().max(3.0) as u32;
                gen::torus(k, k)
            }
            Family::CycleChain => gen::cycle_chain((n / 8).max(2), 8, seed),
            Family::File => unreachable!("the file family is loaded from --input, not generated"),
        }
    }
}

/// The allocation-ablation axis: which workspace regimes each parallel
/// cell runs under.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkspaceMode {
    /// One arena per cell, shared across every trial: from the second
    /// trial on, the pipeline runs in its zero-allocation steady state.
    /// This is the regime long-lived callers see and the default.
    On,
    /// A fresh transient arena per run: every trial pays the cold-start
    /// allocation cost.
    Off,
    /// Both regimes, as separate ablation series (`off` cells carry a
    /// `/ws-off` key suffix so `on` cells stay comparable with
    /// documents that predate the ablation).
    Both,
}

impl WorkspaceMode {
    /// The ablation points this mode expands to (`true` = shared arena).
    pub fn points(self) -> Vec<bool> {
        match self {
            WorkspaceMode::On => vec![true],
            WorkspaceMode::Off => vec![false],
            WorkspaceMode::Both => vec![true, false],
        }
    }

    /// Name used in the JSON document and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            WorkspaceMode::On => "on",
            WorkspaceMode::Off => "off",
            WorkspaceMode::Both => "both",
        }
    }
}

impl std::str::FromStr for WorkspaceMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "on" => Ok(WorkspaceMode::On),
            "off" => Ok(WorkspaceMode::Off),
            "both" => Ok(WorkspaceMode::Both),
            other => Err(format!("unknown workspace mode {other:?} (on|off|both)")),
        }
    }
}

/// Whether the grid runs the `serve` SLO cells — the `bcc-serve` daemon
/// driven closed- and open-loop over its workload profiles, reduced to
/// latency/lag quantile entries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Skip the serve cells.
    Off,
    /// Run them after the algorithm grid (the default).
    On,
    /// Run *only* the serve cells — what the CI serve-smoke job uses,
    /// so its wall time is the daemon runs and nothing else.
    Only,
}

impl ServeMode {
    /// Name used in the JSON document and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::Off => "off",
            ServeMode::On => "on",
            ServeMode::Only => "only",
        }
    }
}

impl std::str::FromStr for ServeMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(ServeMode::Off),
            "on" => Ok(ServeMode::On),
            "only" => Ok(ServeMode::Only),
            other => Err(format!("unknown serve mode {other:?} (on|off|only)")),
        }
    }
}

/// Grid parameters (what the `bcc-bench` CLI parses into).
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Target vertex count per family instance.
    pub n: u32,
    /// Thread counts to sweep (must contain 1 for speedup baselines).
    pub threads: Vec<usize>,
    /// Timed repetitions per cell; medians are reported.
    pub trials: usize,
    /// Workload seed.
    pub seed: u64,
    /// Marks the document as a smoke run (small sizes, CI-friendly).
    pub smoke: bool,
    /// Traversal ablation points: the parallel algorithms run once per
    /// tuning (the Sequential baseline ignores tunings and runs once).
    pub tunings: Vec<TraversalTuning>,
    /// Allocation-ablation axis: whether parallel cells share one arena
    /// across trials, allocate fresh per run, or run both series.
    pub workspace: WorkspaceMode,
    /// Whether to run the `store-multi` commit-latency cells: an
    /// [`IndexStore`] over a many-component instance, timing
    /// incremental (`Txn::commit`) against from-scratch
    /// (`Txn::commit_full`) commits across batch sizes.
    pub store: bool,
    /// Whether (and how) to run the `serve` SLO cells: the `bcc-serve`
    /// daemon under its workload profiles, swept over reader counts.
    pub serve: ServeMode,
    /// Whether (and how) to run the `prims` kernel cells: the
    /// vectorized primitives against their frozen scalar references
    /// (see [`crate::prims`]).
    pub prims: PrimsMode,
    /// When set, the algorithm grid runs on this one on-disk graph
    /// (text edge list or `.bccsr`, sniffed by [`bcc_graph::io::load`])
    /// as the single `file` family instead of the generated families.
    /// The store/serve cells still use their generated instances.
    pub input: Option<PathBuf>,
}

impl GridConfig {
    /// The default full-size grid for `max_threads` threads.
    ///
    /// 50k vertices puts the per-vertex arrays past L2 so the
    /// traversal ablation measures the memory system, not the cache.
    pub fn full(max_threads: usize) -> GridConfig {
        GridConfig {
            n: 50_000,
            threads: thread_sweep(max_threads),
            trials: 3,
            seed: 42,
            smoke: false,
            tunings: vec![TraversalTuning::fast()],
            workspace: WorkspaceMode::On,
            store: true,
            serve: ServeMode::On,
            prims: PrimsMode::On,
            input: None,
        }
    }

    /// A CI-sized grid: seconds, not minutes, on one core.
    pub fn smoke(max_threads: usize) -> GridConfig {
        GridConfig {
            n: 600,
            threads: thread_sweep(max_threads),
            trials: 2,
            seed: 42,
            smoke: true,
            tunings: vec![TraversalTuning::fast()],
            workspace: WorkspaceMode::On,
            store: true,
            serve: ServeMode::On,
            prims: PrimsMode::On,
            input: None,
        }
    }
}

/// 1, 2, 4, ... up to and always including `max` (and always at least
/// {1, 2}, so speedup columns exist even on one-core machines).
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(2);
    let mut ps = vec![];
    let mut p = 1;
    while p < max {
        ps.push(p);
        p *= 2;
    }
    ps.push(max);
    ps.dedup();
    ps
}

pub(crate) fn median_f64(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[(xs.len() - 1) / 2]
}

/// Field-wise medians over one cell's trial reports, flattened to the
/// JSON entry layout. Shared with the xl tier ([`crate::xl`]), which
/// names its families after the streamed inputs rather than [`Family`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn cell_json(
    family: &str,
    g: &Graph,
    threads: usize,
    reports: &[PhaseReport],
    seq_baseline: f64,
    tuning: Option<&TraversalTuning>,
    workspace: Option<bool>,
    peak_rss: Option<u64>,
) -> Json {
    let med = |f: &dyn Fn(&PhaseReport) -> f64| median_f64(reports.iter().map(f).collect());
    let seconds = med(&|r| r.total.as_secs_f64());
    // Per-phase medians, keyed by step name in first-seen order.
    let mut phase_names: Vec<&'static str> = vec![];
    for r in reports {
        for s in &r.steps {
            if !phase_names.contains(&s.name()) {
                phase_names.push(s.name());
            }
        }
    }
    let phases: Vec<Json> = phase_names
        .iter()
        .map(|&name| {
            let samples: Vec<f64> = reports
                .iter()
                .map(|r| {
                    r.steps
                        .iter()
                        .find(|s| s.name() == name)
                        .map_or(0.0, |s| s.duration.as_secs_f64())
                })
                .collect();
            Json::Arr(vec![Json::str(name), Json::num(median_f64(samples))])
        })
        .collect();
    let mut fields = vec![
        ("family", Json::str(family)),
        ("algorithm", Json::str(reports[0].algorithm)),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("threads", Json::num(threads as f64)),
        ("seconds", Json::num(seconds)),
        // Minimum across trials: the regression gate's metric. Host
        // noise (scheduler bursts, oversubscription) only ever adds
        // time, so the min converges to the true cost long before the
        // median settles on a shared CI runner.
        (
            "seconds_min",
            Json::num(
                reports
                    .iter()
                    .map(|r| r.total.as_secs_f64())
                    .fold(f64::INFINITY, f64::min),
            ),
        ),
        (
            "speedup_vs_sequential",
            Json::num(if seconds > 0.0 {
                seq_baseline / seconds
            } else {
                0.0
            }),
        ),
        ("phases", Json::Arr(phases)),
        ("phase_runs", Json::num(med(&|r| r.phase_runs as f64))),
        (
            "barrier_episodes",
            Json::num(med(&|r| r.barrier_episodes as f64)),
        ),
        (
            "barrier_wait_seconds",
            Json::num(med(&|r| r.barrier_wait.as_secs_f64())),
        ),
        ("imbalance", Json::num(med(&|r| r.imbalance))),
        // Allocation telemetry: bytes the run's arena had to freshly
        // allocate (0 once warm) and the arena's hit rate. Medians, so
        // a shared-arena cell with ≥2 trials reports its steady state.
        ("alloc_bytes", Json::num(med(&|r| r.alloc_bytes as f64))),
        ("arena_hit_rate", Json::num(med(&|r| r.arena_hit_rate))),
    ];
    if let Some(on) = workspace {
        fields.push(("workspace", Json::str(if on { "on" } else { "off" })));
    }
    // Space telemetry for the out-of-core ingestion work: the run's
    // peak resident set (max over trials — a high-water metric), from
    // the kernel watermark reset before each trial. Omitted where the
    // platform does not expose it.
    if let Some(peak) = peak_rss {
        fields.push(("peak_rss_bytes", Json::num(peak as f64)));
    }
    if let Some(t) = tuning {
        // Work counters are deterministic per (graph, tuning) except SV
        // rounds under races; take the last trial (all trials agree in
        // practice, and the last is past any warm-up).
        let stats = &reports[reports.len() - 1].stats;
        fields.push(("tuning", Json::str(t.spec())));
        fields.push(("sv_rounds_spanning", Json::num(stats.sv_rounds_spanning)));
        fields.push(("sv_rounds_cc", Json::num(stats.sv_rounds_cc)));
        fields.push(("bfs_levels", Json::num(stats.bfs_levels)));
        fields.push((
            "bfs_bottom_up_levels",
            Json::num(stats.bfs_bottom_up_levels),
        ));
        // One char per BFS level; a pathological-diameter input would
        // otherwise dump megabytes of 'T's into the document, so cap it
        // (the level count is always exact in `bfs_levels`).
        let mut dirs = stats.bfs_directions.clone();
        if dirs.len() > 96 {
            dirs.truncate(96);
            dirs.push('+');
        }
        fields.push(("bfs_directions", Json::str(dirs)));
    }
    Json::obj(fields)
}

/// Shape summary for one family instance: the 90th-percentile effective
/// diameter (smallest BFS depth from vertex 0 reaching 90% of the
/// reachable vertices), the statistic the direction-optimizing
/// heuristic's payoff depends on.
fn family_json(family: Family, g: &Graph) -> Json {
    let csr = Csr::build(g);
    let tree = bfs_tree_seq(&csr, 0);
    Json::obj(vec![
        ("family", Json::str(family.name())),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("bfs_levels", Json::num(tree.levels)),
        (
            "effective_diameter_90",
            Json::num(tree.effective_diameter(0.9)),
        ),
    ])
}

/// Connected components in the store-commit benchmark instance. With
/// batches confined to one of them, an incremental commit's rebuild
/// region is `1/STORE_PARTS` of the graph — the locality the
/// component-scoped commit is supposed to monetize.
pub const STORE_PARTS: u32 = 16;

/// Batch sizes the store-commit cells sweep: a point update, a burst,
/// and a bulk load.
pub const STORE_BATCHES: [usize; 3] = [1, 64, 4096];

/// Splitmix-flavored LCG for shaping deterministic update batches.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The store-commit instance: [`STORE_PARTS`] disjoint random connected
/// components of ~`n / STORE_PARTS` vertices each, laid out on
/// contiguous vertex ranges. Kept sparse enough (half the complete
/// graph at tiny sizes) that the first component always has absent
/// chords left to insert.
fn store_family_graph(n: u32, seed: u64) -> Graph {
    let part_n = (n / STORE_PARTS).max(8);
    let part_m = (3 * part_n as usize)
        .min(gen::max_edges(part_n) / 2)
        .max(part_n as usize);
    let mut edges = Vec::with_capacity(STORE_PARTS as usize * part_m);
    for p in 0..STORE_PARTS {
        let off = p * part_n;
        let sub = gen::random_connected(part_n, part_m, seed.wrapping_add(p as u64));
        edges.extend(sub.edges().iter().map(|e| Edge::new(e.u + off, e.v + off)));
    }
    GraphBuilder::new(part_n * STORE_PARTS)
        .edges(edges)
        .build()
        .unwrap()
}

/// Picks up to `want` distinct vertex pairs inside the first component
/// (ids `< part_n`) that are *not* edges of `g`. Returns fewer when the
/// component runs out of absent chords (tiny smoke instances under the
/// 4096 batch).
fn absent_chords(g: &Graph, part_n: u32, want: usize, state: &mut u64) -> Vec<(u32, u32)> {
    let mut present: std::collections::BTreeSet<u64> = g.edges().iter().map(|e| e.key()).collect();
    let mut out = Vec::with_capacity(want.min(1024));
    let mut attempts = 0usize;
    let cap = want * 20 + 1000;
    while out.len() < want && attempts < cap {
        attempts += 1;
        let u = (lcg(state) % u64::from(part_n)) as u32;
        let v = (lcg(state) % u64::from(part_n)) as u32;
        if u != v && present.insert(Edge::new(u, v).key()) {
            out.push((u, v));
        }
    }
    out
}

/// Runs the `store-multi` commit-latency cells: one [`IndexStore`] per
/// (threads × batch × mode) cell over the same many-component instance.
/// Each trial inserts a batch of absent chords confined to the first
/// component, times the commit (incremental or full), and reverts
/// untimed so every round commits against the same steady-state graph.
/// Returns the family summary and the entry list.
fn run_store_cells(
    cfg: &GridConfig,
    pools: &[Pool],
    progress: &mut impl FnMut(&str),
) -> (Json, Vec<Json>) {
    let trials = cfg.trials.max(1);
    let g = store_family_graph(cfg.n, cfg.seed);
    let part_n = (cfg.n / STORE_PARTS).max(8);

    struct StoreCell {
        pool: usize,
        batch: usize,
        full: bool,
        store: IndexStore,
        state: u64,
        secs: Vec<f64>,
        effective: Vec<usize>,
        stats: Vec<CommitStats>,
    }
    let mut cells: Vec<StoreCell> = vec![];
    for (pool, pool_ref) in pools.iter().enumerate() {
        for &batch in &STORE_BATCHES {
            for full in [false, true] {
                cells.push(StoreCell {
                    pool,
                    batch,
                    full,
                    store: IndexStore::new(pool_ref.clone(), g.clone())
                        .expect("store family instance indexes"),
                    state: cfg.seed ^ (((pool as u64) << 32) | ((batch as u64) << 1) | full as u64),
                    secs: Vec::with_capacity(trials),
                    effective: Vec::with_capacity(trials),
                    stats: Vec::with_capacity(trials),
                });
            }
        }
    }

    // Trial-major for the same reason as the main grid: spread each
    // cell's samples past any single host-scheduler burst.
    for round in 0..trials {
        for cell in &mut cells {
            let before = cell.store.load();
            let chords = absent_chords(&before.graph, part_n, cell.batch, &mut cell.state);
            let mut txn = cell.store.begin();
            for &(u, v) in &chords {
                txn.insert(u, v);
            }
            let t = Instant::now();
            let snap = if cell.full {
                txn.commit_full()
            } else {
                txn.commit()
            }
            .expect("store commit");
            cell.secs.push(t.elapsed().as_secs_f64());
            cell.effective.push(chords.len());
            cell.stats.push(snap.stats);
            let mut txn = cell.store.begin();
            for &(u, v) in &chords {
                txn.remove(u, v);
            }
            txn.commit().expect("store revert");
        }
        progress(&format!(
            "store trial round {}/{trials} complete",
            round + 1
        ));
    }

    let mut entries = Vec::with_capacity(cells.len());
    for cell in &cells {
        let p = cfg.threads[cell.pool];
        let algorithm = if cell.full {
            "commit-full"
        } else {
            "commit-incremental"
        };
        let seconds = median_f64(cell.secs.clone());
        let med = |f: &dyn Fn(&CommitStats) -> f64| median_f64(cell.stats.iter().map(f).collect());
        entries.push(Json::obj(vec![
            ("family", Json::str("store-multi")),
            ("algorithm", Json::str(algorithm)),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("threads", Json::num(p as f64)),
            // Nominal batch size (the entry-key axis) and the median
            // batch actually committed (smaller only when a tiny smoke
            // component runs out of absent chords).
            ("batch", Json::num(cell.batch as f64)),
            (
                "batch_effective",
                Json::num(median_f64(
                    cell.effective.iter().map(|&b| b as f64).collect(),
                )),
            ),
            ("seconds", Json::num(seconds)),
            (
                "seconds_min",
                Json::num(cell.secs.iter().copied().fold(f64::INFINITY, f64::min)),
            ),
            // CommitStats medians: how much of the index each commit
            // actually rebuilt.
            (
                "components_rebuilt",
                Json::num(med(&|s| f64::from(s.components_rebuilt))),
            ),
            (
                "components_reused",
                Json::num(med(&|s| f64::from(s.components_reused))),
            ),
            (
                "vertices_rebuilt",
                Json::num(med(&|s| f64::from(s.vertices_rebuilt))),
            ),
            ("edges_rebuilt", Json::num(med(&|s| s.edges_rebuilt as f64))),
            ("reused_fraction", Json::num(med(&|s| s.reused_fraction))),
        ]));
        progress(&format!(
            "{:>13} {:>10} p={p} batch={}: {:>9.3?} ({} trials)",
            "store-multi",
            algorithm,
            cell.batch,
            Duration::from_secs_f64(seconds),
            trials,
        ));
    }

    let family = Json::obj(vec![
        ("family", Json::str("store-multi")),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("components", Json::num(f64::from(STORE_PARTS))),
    ]);
    (family, entries)
}

/// Components in the serve-cell instance (each a contiguous ring plus
/// random chords; see [`component_grid`]).
pub const SERVE_PARTS: u32 = 8;

/// Shards the serve cells split the store across.
pub const SERVE_SHARDS: usize = 4;

/// One serve-cell scenario: drive profile and mode, plus the
/// writer-topology and admission-control knobs the ablation cells
/// flip. `shed` cells run a deliberately oversubscribed update stream
/// against tight watermarks, measuring the read tail *while* admission
/// control sheds (the SLO claim: rejections, not latency collapse).
#[derive(Copy, Clone)]
struct ServeScenario {
    profile: Profile,
    mode: Mode,
    writers: Writers,
    shed: bool,
}

/// The scenarios each reader count runs: the read-heavy profile under
/// both drive modes, then the churn-heavy and adversarial hot-component
/// profiles open-loop — the mode where queueing behind commits shows up
/// as tail latency instead of silently reducing the offered load.
/// Riding along: the churn-heavy cell with the writer pool collapsed
/// to one thread (the `writers=1` ablation the per-shard commit path
/// is justified against) and the overload cell with admission
/// watermarks armed.
fn serve_scenarios(rate: f64) -> [ServeScenario; 6] {
    let cell = |profile, mode, writers, shed| ServeScenario {
        profile,
        mode,
        writers,
        shed,
    };
    [
        cell(Profile::ReadHeavy, Mode::Closed, Writers::PerShard, false),
        cell(
            Profile::ReadHeavy,
            Mode::Open { rate },
            Writers::PerShard,
            false,
        ),
        cell(
            Profile::ChurnHeavy,
            Mode::Open { rate },
            Writers::PerShard,
            false,
        ),
        cell(
            Profile::HotComponent,
            Mode::Open { rate },
            Writers::PerShard,
            false,
        ),
        // Writer-topology ablation: same churn, one writer thread.
        cell(
            Profile::ChurnHeavy,
            Mode::Open { rate },
            Writers::Single,
            false,
        ),
        // Overload: an update storm (10/90 mix) at 4x the arrival rate
        // against armed admission watermarks — sheds must be nonzero
        // and reads must survive.
        cell(
            Profile::UpdateStorm,
            Mode::Open { rate: rate * 4.0 },
            Writers::PerShard,
            true,
        ),
    ]
}

/// Watermarks the overload (`shed`) cells arm. The backlog watermark
/// sits below what one writer flush window accumulates under the
/// storm's update arrival rate, so admission control demonstrably
/// engages inside even the smoke grid's 120ms window; the queue-depth
/// watermark keeps sheds typed (`Overloaded`) instead of degrading to
/// `QueueFull` when commits stall outright.
const SHED_ADMISSION: Admission = Admission {
    shed_queue_depth: Some(512),
    shed_backlog: Some(48),
};

/// Runs the `serve` SLO cells: one [`ShardedStore`] per (readers ×
/// scenario) cell — reused across trials, so churn runs against a warm,
/// steady-state store — each trial spawning a fresh [`Daemon`] and
/// driving it with [`run_workload`]. The gate metric (`seconds`) is the
/// p99 query latency; throughput and snapshot-lag quantiles ride along.
fn run_serve_cells(cfg: &GridConfig, progress: &mut impl FnMut(&str)) -> (Json, Vec<Json>) {
    let trials = cfg.trials.max(1);
    // Arrival rate and measurement window, sized so the smoke grid
    // stays CI-friendly while the full grid queues for real.
    let (rate, duration) = if cfg.smoke {
        (20_000.0, Duration::from_millis(120))
    } else {
        (100_000.0, Duration::from_millis(400))
    };
    let n = cfg.n.max(3 * SERVE_PARTS);
    let g = component_grid(n, SERVE_PARTS, cfg.seed);

    struct ServeCell {
        pool: usize,
        scenario: ServeScenario,
        store: Arc<ShardedStore>,
        reports: Vec<WorkloadReport>,
    }
    let mut cells: Vec<ServeCell> = vec![];
    for pool in 0..cfg.threads.len() {
        let p = cfg.threads[pool];
        for scenario in serve_scenarios(rate) {
            cells.push(ServeCell {
                pool,
                scenario,
                store: Arc::new(
                    ShardedStore::new(&Pool::new(p), &g, SERVE_SHARDS)
                        .expect("serve instance shards"),
                ),
                reports: Vec::with_capacity(trials),
            });
        }
    }

    // Trial-major, like the rest of the grid: spread each cell's
    // samples past any single host-scheduler burst.
    for round in 0..trials {
        for cell in &mut cells {
            let sc = cell.scenario;
            let daemon = Daemon::spawn(
                Arc::clone(&cell.store),
                ServeConfig::builder()
                    .readers(cfg.threads[cell.pool])
                    .flush_interval(Duration::from_millis(1))
                    .writers(sc.writers)
                    .admission(if sc.shed {
                        SHED_ADMISSION
                    } else {
                        Admission::default()
                    })
                    .build(),
            );
            let report = run_workload(
                daemon,
                &WorkloadConfig {
                    profile: sc.profile,
                    mode: sc.mode,
                    duration,
                    parts: SERVE_PARTS,
                    seed: cfg.seed,
                },
            );
            if let Some(e) = &report.serve.writer_error {
                panic!(
                    "serve writer failed ({} / {} p={}): {e}",
                    sc.profile.name(),
                    sc.mode.name(),
                    cfg.threads[cell.pool]
                );
            }
            cell.reports.push(report);
        }
        progress(&format!(
            "serve trial round {}/{trials} complete",
            round + 1
        ));
    }

    const NS: f64 = 1e-9;
    let mut entries = Vec::with_capacity(cells.len());
    for cell in &cells {
        let p = cfg.threads[cell.pool];
        let sc = cell.scenario;
        let med =
            |f: &dyn Fn(&WorkloadReport) -> f64| median_f64(cell.reports.iter().map(f).collect());
        let p99s: Vec<f64> = cell
            .reports
            .iter()
            .map(|r| r.serve.latency.quantile(0.99) as f64 * NS)
            .collect();
        let seconds = median_f64(p99s.clone());
        let mut fields = vec![
            ("family", Json::str("serve")),
            ("algorithm", Json::str(sc.profile.name())),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("threads", Json::num(p as f64)),
            ("mode", Json::str(sc.mode.name())),
            (
                "rate",
                Json::num(match sc.mode {
                    Mode::Open { rate } => rate,
                    Mode::Closed => 0.0,
                }),
            ),
            // Writer topology and admission policy: part of the cell's
            // identity (they land in the entry key) so the writers=1
            // ablation and the overload cell gate against themselves.
            ("writers", Json::str(sc.writers.name())),
            (
                "admission",
                Json::str(if sc.shed { "shed" } else { "open" }),
            ),
            // The gate metric: p99 query latency, median over trials
            // (and its min, which the comparator prefers).
            ("seconds", Json::num(seconds)),
            (
                "seconds_min",
                Json::num(p99s.iter().copied().fold(f64::INFINITY, f64::min)),
            ),
            ("queries_per_sec", Json::num(med(&|r| r.queries_per_sec()))),
            ("answered", Json::num(med(&|r| r.serve.answered as f64))),
            (
                "latency_p50_seconds",
                Json::num(med(&|r| r.serve.latency.quantile(0.50) as f64 * NS)),
            ),
            (
                "latency_p999_seconds",
                Json::num(med(&|r| r.serve.latency.quantile(0.999) as f64 * NS)),
            ),
            (
                "latency_max_seconds",
                Json::num(med(&|r| r.serve.latency.max() as f64 * NS)),
            ),
            (
                "lag_commits_p50",
                Json::num(med(&|r| r.serve.lag_commits.quantile(0.50) as f64)),
            ),
            (
                "lag_commits_p99",
                Json::num(med(&|r| r.serve.lag_commits.quantile(0.99) as f64)),
            ),
            (
                "lag_commits_max",
                Json::num(med(&|r| r.serve.lag_commits.max() as f64)),
            ),
            (
                "lag_wall_p99_seconds",
                Json::num(med(&|r| r.serve.lag_wall.quantile(0.99) as f64 * NS)),
            ),
            (
                "updates_applied",
                Json::num(med(&|r| r.serve.updates_applied as f64)),
            ),
            ("commits", Json::num(med(&|r| r.serve.commits as f64))),
            ("migrations", Json::num(med(&|r| r.serve.migrations as f64))),
            // v2-additive: writer topology, shed accounting, and the
            // commit tail the per-shard writers are justified by.
            (
                "writer_threads",
                Json::num(med(&|r| r.serve.writer_threads as f64)),
            ),
            (
                "shed_count",
                Json::num(med(&|r| r.serve.shed_updates as f64)),
            ),
            (
                "commit_p50_seconds",
                Json::num(med(&|r| r.serve.commit_latency.quantile(0.50) as f64 * NS)),
            ),
            (
                "commit_p99_seconds",
                Json::num(med(&|r| r.serve.commit_latency.quantile(0.99) as f64 * NS)),
            ),
        ];
        // Per-shard commit-latency p99s, keyed by the shard committed
        // to (w1 cells feed all four from one thread; per-shard cells
        // from one thread each) — where the writers=1 vs per-shard
        // commit-tail gap is read from.
        let shard_p99s: Vec<(String, Json)> = (0..SERVE_SHARDS)
            .map(|s| {
                (
                    format!("commit_p99_seconds_shard{s}"),
                    Json::num(med(&|r| {
                        r.serve
                            .shard_commit_latency
                            .get(s)
                            .map_or(0.0, |h| h.quantile(0.99) as f64 * NS)
                    })),
                )
            })
            .collect();
        for (k, v) in &shard_p99s {
            fields.push((k.as_str(), v.clone()));
        }
        entries.push(Json::obj(fields));
        progress(&format!(
            "{:>13} {:>13} p={p} [{} {} {}]: p99 {:>9.3?}, {:.0} q/s, shed {:.0} ({} trials)",
            "serve",
            sc.profile.name(),
            sc.mode.name(),
            sc.writers.name(),
            if sc.shed { "shed" } else { "open" },
            Duration::from_secs_f64(seconds),
            med(&|r| r.queries_per_sec()),
            med(&|r| r.serve.shed_updates as f64),
            trials,
        ));
    }

    let family = Json::obj(vec![
        ("family", Json::str("serve")),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("components", Json::num(f64::from(SERVE_PARTS))),
        ("shards", Json::num(SERVE_SHARDS as f64)),
        ("duration_seconds", Json::num(duration.as_secs_f64())),
        ("open_rate", Json::num(rate)),
    ]);
    (family, entries)
}

/// The scenarios the loopback-TCP cells run: the read-heavy SLO path
/// over a real socket, and the update-storm overload cell proving the
/// daemon sheds with typed `Rejected(Overloaded)` frames on the wire
/// (not just in-process) while reads keep flowing. The storm's
/// multiplier is higher than the in-process cell's because one client
/// connection sends serially — the wire rate must still outrun the
/// backlog watermark.
fn serve_net_scenarios(rate: f64) -> [ServeScenario; 2] {
    [
        ServeScenario {
            profile: Profile::ReadHeavy,
            mode: Mode::Open { rate },
            writers: Writers::PerShard,
            shed: false,
        },
        ServeScenario {
            profile: Profile::UpdateStorm,
            mode: Mode::Open { rate: rate * 16.0 },
            writers: Writers::PerShard,
            shed: true,
        },
    ]
}

/// Runs the `serve-net` cells: the same open-loop drivers as
/// [`run_serve_cells`], but over a real loopback TCP socket through
/// [`NetFrontend`] — one connection, length-prefixed frames, responses
/// matched by request id. The gate metric (`seconds`) is the round-trip
/// p99 (scheduled arrival to response on the client), so it prices the
/// codec and the socket alongside the daemon.
fn run_serve_net_cells(cfg: &GridConfig, progress: &mut impl FnMut(&str)) -> (Json, Vec<Json>) {
    let trials = cfg.trials.max(1);
    // Loopback round-trips are ~10x a queue hop, so drive at a rate the
    // single client connection can sustain without self-queueing.
    let (rate, duration) = if cfg.smoke {
        (5_000.0, Duration::from_millis(120))
    } else {
        (20_000.0, Duration::from_millis(400))
    };
    let n = cfg.n.max(3 * SERVE_PARTS);
    let g = component_grid(n, SERVE_PARTS, cfg.seed);

    struct NetCell {
        pool: usize,
        scenario: ServeScenario,
        store: Arc<ShardedStore>,
        reports: Vec<NetWorkloadReport>,
    }
    let mut cells: Vec<NetCell> = vec![];
    for pool in 0..cfg.threads.len() {
        let p = cfg.threads[pool];
        for scenario in serve_net_scenarios(rate) {
            cells.push(NetCell {
                pool,
                scenario,
                store: Arc::new(
                    ShardedStore::new(&Pool::new(p), &g, SERVE_SHARDS)
                        .expect("serve-net instance shards"),
                ),
                reports: Vec::with_capacity(trials),
            });
        }
    }

    for round in 0..trials {
        for cell in &mut cells {
            let sc = cell.scenario;
            let daemon = Daemon::spawn(
                Arc::clone(&cell.store),
                ServeConfig::builder()
                    .readers(cfg.threads[cell.pool])
                    .flush_interval(Duration::from_millis(1))
                    .writers(sc.writers)
                    .admission(if sc.shed {
                        SHED_ADMISSION
                    } else {
                        Admission::default()
                    })
                    .build(),
            );
            let frontend = NetFrontend::spawn(daemon, "127.0.0.1:0").expect("loopback listener");
            let addr = frontend.local_addr();
            let report = run_net_workload(
                addr,
                &WorkloadConfig {
                    profile: sc.profile,
                    mode: sc.mode,
                    duration,
                    parts: SERVE_PARTS,
                    seed: cfg.seed,
                },
                g.n(),
            )
            .expect("loopback workload");
            let serve = frontend.shutdown();
            if let Some(e) = &serve.writer_error {
                panic!(
                    "serve-net writer failed ({} / {} p={}): {e}",
                    sc.profile.name(),
                    sc.mode.name(),
                    cfg.threads[cell.pool]
                );
            }
            cell.reports.push(report);
        }
        progress(&format!(
            "serve-net trial round {}/{trials} complete",
            round + 1
        ));
    }

    const NS: f64 = 1e-9;
    let mut entries = Vec::with_capacity(cells.len());
    for cell in &cells {
        let p = cfg.threads[cell.pool];
        let sc = cell.scenario;
        let med = |f: &dyn Fn(&NetWorkloadReport) -> f64| {
            median_f64(cell.reports.iter().map(f).collect())
        };
        let p99s: Vec<f64> = cell
            .reports
            .iter()
            .map(|r| r.latency.quantile(0.99) as f64 * NS)
            .collect();
        let seconds = median_f64(p99s.clone());
        entries.push(Json::obj(vec![
            ("family", Json::str("serve-net")),
            ("algorithm", Json::str(sc.profile.name())),
            ("n", Json::num(g.n())),
            ("m", Json::num(g.m() as f64)),
            ("threads", Json::num(p as f64)),
            ("mode", Json::str(sc.mode.name())),
            (
                "rate",
                Json::num(match sc.mode {
                    Mode::Open { rate } => rate,
                    Mode::Closed => 0.0,
                }),
            ),
            ("writers", Json::str(sc.writers.name())),
            (
                "admission",
                Json::str(if sc.shed { "shed" } else { "open" }),
            ),
            // The gate metric: round-trip p99 over the socket.
            ("seconds", Json::num(seconds)),
            (
                "seconds_min",
                Json::num(p99s.iter().copied().fold(f64::INFINITY, f64::min)),
            ),
            (
                "responses_per_sec",
                Json::num(med(&|r| r.responses_per_sec())),
            ),
            ("answered", Json::num(med(&|r| r.answered as f64))),
            ("accepted", Json::num(med(&|r| r.accepted as f64))),
            ("shed_count", Json::num(med(&|r| r.shed as f64))),
            (
                "rejected_other",
                Json::num(med(&|r| r.rejected_other as f64)),
            ),
            (
                "latency_p50_seconds",
                Json::num(med(&|r| r.latency.quantile(0.50) as f64 * NS)),
            ),
            (
                "latency_p999_seconds",
                Json::num(med(&|r| r.latency.quantile(0.999) as f64 * NS)),
            ),
            (
                "latency_max_seconds",
                Json::num(med(&|r| r.latency.max() as f64 * NS)),
            ),
        ]));
        progress(&format!(
            "{:>13} {:>13} p={p} [{} {}]: rt p99 {:>9.3?}, {:.0} resp/s, shed {:.0} ({} trials)",
            "serve-net",
            sc.profile.name(),
            sc.mode.name(),
            if sc.shed { "shed" } else { "open" },
            Duration::from_secs_f64(seconds),
            med(&|r| r.responses_per_sec()),
            med(&|r| r.shed as f64),
            trials,
        ));
    }

    let family = Json::obj(vec![
        ("family", Json::str("serve-net")),
        ("n", Json::num(g.n())),
        ("m", Json::num(g.m() as f64)),
        ("components", Json::num(f64::from(SERVE_PARTS))),
        ("shards", Json::num(SERVE_SHARDS as f64)),
        ("duration_seconds", Json::num(duration.as_secs_f64())),
        ("open_rate", Json::num(rate)),
        ("transport", Json::str("tcp-loopback")),
    ]);
    (family, entries)
}

/// Runs the full grid and returns the `BENCH_bcc.json` document.
/// `progress` receives one line per trial round and per finished cell
/// (pass `|_| {}` to silence it).
///
/// Trials run **trial-major** (round-robin over every cell, repeated
/// `trials` times) rather than back-to-back per cell: a host-scheduler
/// burst lasts far longer than one cell's handful of consecutive
/// trials, so per-cell batching lets a burst poison *all* of a cell's
/// samples at once. Spreading each cell's trials across the whole run
/// lets the min-of-trials gate metric escape any single burst.
pub fn run_grid(cfg: &GridConfig, mut progress: impl FnMut(&str)) -> Json {
    assert!(cfg.threads.contains(&1), "thread sweep must include 1");
    assert!(!cfg.tunings.is_empty(), "at least one tuning is required");
    let mut families: Vec<Json> = vec![];
    let mut entries: Vec<Json> = vec![];
    // The `only` modes are exclusive smoke shortcuts: `--serve only`
    // runs just the daemon cells, `--prims only` just the kernel cells.
    let serve_only = cfg.serve == ServeMode::Only;
    let prims_only = cfg.prims == PrimsMode::Only;
    if !serve_only && !prims_only {
        let (f, e) = run_algorithm_cells(cfg, &mut progress);
        families.extend(f);
        entries.extend(e);
    }
    if cfg.serve != ServeMode::Off && !prims_only {
        let (fam, mut serve_entries) = run_serve_cells(cfg, &mut progress);
        families.push(fam);
        entries.append(&mut serve_entries);
        let (fam, mut net_entries) = run_serve_net_cells(cfg, &mut progress);
        families.push(fam);
        entries.append(&mut net_entries);
    }
    if cfg.prims != PrimsMode::Off && !serve_only {
        let (fam, mut prims_entries) = run_prims_cells(cfg, &mut progress);
        families.push(fam);
        entries.append(&mut prims_entries);
    }
    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("experiment", Json::str("bcc-grid")),
        ("smoke", Json::Bool(cfg.smoke)),
        ("n", Json::num(cfg.n)),
        (
            "threads",
            Json::Arr(cfg.threads.iter().map(|&p| Json::num(p as f64)).collect()),
        ),
        ("trials", Json::num(cfg.trials.max(1) as f64)),
        ("seed", Json::num(cfg.seed as f64)),
        (
            "tunings",
            Json::Arr(cfg.tunings.iter().map(|t| Json::str(t.spec())).collect()),
        ),
        ("workspace", Json::str(cfg.workspace.name())),
        ("store", Json::Bool(cfg.store)),
        ("serve", Json::str(cfg.serve.name())),
        ("prims", Json::str(cfg.prims.name())),
        ("families", Json::Arr(families)),
        ("entries", Json::Arr(entries)),
    ])
}

/// The algorithm grid proper (families × algorithms × threads ×
/// ablation points) plus the `store-multi` cells, as (family summaries,
/// entries).
fn run_algorithm_cells(
    cfg: &GridConfig,
    progress: &mut impl FnMut(&str),
) -> (Vec<Json>, Vec<Json>) {
    let trials = cfg.trials.max(1);

    // Instances and pools are built once; every trial round reuses
    // them. PhaseRecorder reads telemetry *deltas*, so sharing a pool
    // (and its sink) across cells is safe.
    let graphs: Vec<(Family, Graph)> = match &cfg.input {
        Some(path) => {
            let g = bcc_graph::io::load(path)
                .unwrap_or_else(|e| panic!("loading {}: {e}", path.display()));
            vec![(Family::File, g)]
        }
        None => Family::ALL
            .into_iter()
            .map(|f| {
                let g = f.generate(cfg.n, cfg.seed);
                (f, g)
            })
            .collect(),
    };
    let pools: Vec<Pool> = cfg
        .threads
        .iter()
        .map(|&p| {
            Pool::builder()
                .threads(p)
                .telemetry(Arc::new(Telemetry::new(p)))
                .build()
        })
        .collect();

    // Cell order matches the reducer's expectations below: family-major
    // (Sequential at p = 1 leads each family, providing the speedup
    // denominator), then threads, algorithm, ablation point. Tarjan's
    // DFS has no traversal knobs: one cell; the parallel pipelines get
    // one cell per tuning.
    struct Cell {
        fam: usize,
        pool: usize,
        alg: Algorithm,
        tuning: Option<TraversalTuning>,
        /// `Some(arena)` for shared-arena ablation cells (the arena
        /// persists across this cell's trial rounds, so trials past the
        /// first run in the zero-allocation steady state), `Some(None)`
        /// → `workspace: "off"` cells, `None` for Sequential (no
        /// ablation axis, like tunings).
        workspace: Option<Option<Arc<BccWorkspace>>>,
    }
    let mut cells: Vec<Cell> = vec![];
    for fam in 0..graphs.len() {
        for pool in 0..cfg.threads.len() {
            for alg in Algorithm::ALL {
                let cell_tunings: Vec<Option<TraversalTuning>> = if alg == Algorithm::Sequential {
                    vec![None]
                } else {
                    cfg.tunings.iter().copied().map(Some).collect()
                };
                let ws_points: Vec<Option<bool>> = if alg == Algorithm::Sequential {
                    vec![None]
                } else {
                    cfg.workspace.points().into_iter().map(Some).collect()
                };
                for tuning in cell_tunings {
                    for ws in &ws_points {
                        cells.push(Cell {
                            fam,
                            pool,
                            alg,
                            tuning,
                            workspace: ws.map(|on| on.then(|| Arc::new(BccWorkspace::new()))),
                        });
                    }
                }
            }
        }
    }

    let mut trial_reports: Vec<Vec<PhaseReport>> = (0..cells.len())
        .map(|_| Vec::with_capacity(trials))
        .collect();
    let mut trial_peaks: Vec<Vec<u64>> = vec![vec![]; cells.len()];
    // One untimed Sequential pass per family before round 1. Its
    // Sequential cell leads the family, so it would otherwise run cold
    // (first touch of the graph's pages) and inflate every speedup
    // derived from it.
    if let Some(pool) = pools.first() {
        for (family, g) in &graphs {
            BccConfig::new(Algorithm::Sequential)
                .run(pool, g)
                .unwrap_or_else(|e| panic!("Sequential warm-up on {}: {e}", family.name()));
        }
    }
    for round in 0..trials {
        for (i, cell) in cells.iter().enumerate() {
            let (family, g) = &graphs[cell.fam];
            let mut config = BccConfig::new(cell.alg);
            if let Some(t) = cell.tuning {
                config = config.tuning(t);
            }
            if let Some(Some(ws)) = &cell.workspace {
                config = config.workspace(Arc::clone(ws));
            }
            // Reset the kernel's peak-RSS watermark so the post-run
            // reading reflects this trial's high-water mark (no-op off
            // Linux; the cell then omits the field).
            let rss = bcc_smp::rss::reset_peak().is_ok();
            let run = config
                .run(&pools[cell.pool], g)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", cell.alg.name(), family.name()));
            if rss {
                if let Some(peak) = bcc_smp::rss::peak_rss_bytes() {
                    trial_peaks[i].push(peak);
                }
            }
            trial_reports[i].push(run.report);
        }
        progress(&format!("trial round {}/{trials} complete", round + 1));
    }

    let mut entries: Vec<Json> = vec![];
    let mut families: Vec<Json> = vec![];
    let mut current_fam = usize::MAX;
    let mut seq_baseline = f64::INFINITY;
    for ((cell, reports), peaks) in cells.iter().zip(&trial_reports).zip(&trial_peaks) {
        let (family, g) = &graphs[cell.fam];
        if cell.fam != current_fam {
            current_fam = cell.fam;
            families.push(family_json(*family, g));
            // Sequential at p = 1 is the speedup denominator for the
            // family; it is always this family's first cell.
            seq_baseline = f64::INFINITY;
        }
        let p = cfg.threads[cell.pool];
        let seconds = median_f64(reports.iter().map(|r| r.total.as_secs_f64()).collect());
        if cell.alg == Algorithm::Sequential && p == 1 {
            seq_baseline = seconds;
        }
        let ws_on = cell.workspace.as_ref().map(Option::is_some);
        entries.push(cell_json(
            family.name(),
            g,
            p,
            reports,
            seq_baseline,
            cell.tuning.as_ref(),
            ws_on,
            peaks.iter().copied().max(),
        ));
        progress(&format!(
            "{:>13} {:>10} p={p}{}{}: {:>9.3?} ({} trials)",
            family.name(),
            cell.alg.name(),
            cell.tuning
                .map(|t| format!(" [{}]", t.spec()))
                .unwrap_or_default(),
            match ws_on {
                Some(false) => " [ws-off]",
                _ => "",
            },
            Duration::from_secs_f64(seconds),
            trials,
        ));
    }
    if cfg.store {
        let (fam, mut store_entries) = run_store_cells(cfg, &pools, progress);
        families.push(fam);
        entries.append(&mut store_entries);
    }
    (families, entries)
}

/// One regression found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `family/algorithm/n/threads` key of the offending entry.
    pub key: String,
    /// Which gated metric regressed: `"seconds_min"` (time) or
    /// `"peak_rss_bytes"` (space).
    pub metric: &'static str,
    /// Baseline value, in the metric's unit (seconds or bytes).
    pub baseline: f64,
    /// Candidate value, in the metric's unit.
    pub candidate: f64,
    /// Regression in percent (`(candidate/baseline - 1) * 100`,
    /// calibration applied for the time metric).
    pub slowdown_pct: f64,
}

/// Structural problems that stop a comparison before it starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompareError {
    /// A document is not a `bcc-grid` object with an `entries` array.
    MalformedDocument(&'static str),
    /// A document carries a `schema_version` outside
    /// [`COMPAT_SCHEMA_VERSIONS`] (or none at all).
    SchemaMismatch,
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::MalformedDocument(which) => {
                write!(f, "{which} document is not a bcc-grid BENCH file")
            }
            CompareError::SchemaMismatch => {
                write!(
                    f,
                    "unsupported schema_version (supported: {COMPAT_SCHEMA_VERSIONS:?})"
                )
            }
        }
    }
}

impl std::error::Error for CompareError {}

fn entry_key(e: &Json) -> Option<String> {
    let mut key = format!(
        "{}/{}/n{}/p{}",
        e.get("family")?.as_str()?,
        e.get("algorithm")?.as_str()?,
        e.get("n")?.as_u64()?,
        e.get("threads")?.as_u64()?,
    );
    // v2 ablation cells are distinct series per tuning; v1 entries (and
    // Sequential cells) have no tuning field and keep the short key.
    if let Some(t) = e.get("tuning").and_then(Json::as_str) {
        key.push('/');
        key.push_str(t);
    }
    // The allocation ablation suffixes only its *off* cells, so default
    // (`on`) cells keep the keys older documents used and stay
    // comparable against them.
    if e.get("workspace").and_then(Json::as_str) == Some("off") {
        key.push_str("/ws-off");
    }
    // Store-commit cells are one series per batch size.
    if let Some(b) = e.get("batch").and_then(Json::as_u64) {
        key.push_str(&format!("/batch{b}"));
    }
    // Serve cells are one series per drive mode (closed vs open).
    if let Some(m) = e.get("mode").and_then(Json::as_str) {
        key.push('/');
        key.push_str(m);
    }
    // The writer-topology ablation suffixes only its single-writer
    // cells (like `/ws-off` above): default per-shard cells keep the
    // keys older documents used and stay comparable against them.
    if e.get("writers").and_then(Json::as_str) == Some("w1") {
        key.push_str("/w1");
    }
    // Overload cells (admission watermarks armed, oversubscribed
    // arrivals) are their own series — they gate shed behaviour, not
    // steady-state latency.
    if e.get("admission").and_then(Json::as_str) == Some("shed") {
        key.push_str("/shed");
    }
    Some(key)
}

/// Residual slowdowns smaller than this many seconds never flag:
/// timer granularity and scheduler jitter move microsecond-scale cells
/// by double-digit percentages that no amount of calibration removes.
/// The gate therefore catches regressions of at least
/// `max(threshold_pct, MIN_ABS_REGRESSION_SECS)`.
const MIN_ABS_REGRESSION_SECS: f64 = 50e-6;

/// Peak-RSS growth smaller than this many bytes never flags: allocator
/// arena rounding, thread-stack placement, and page-cache attribution
/// move small processes by a few MiB run to run. 16 MiB is far above
/// that jitter and far below the O(m) arrays whose accidental return
/// the space gate exists to catch at xl sizes.
const MIN_ABS_RSS_REGRESSION_BYTES: f64 = 16.0 * 1024.0 * 1024.0;

/// Compares two BENCH documents; entries are matched by
/// `(family, algorithm, n, threads[, tuning])` and flagged when the
/// candidate's `seconds_min` (falling back to the median `seconds` for
/// v1 documents) exceeds the baseline's by more than `threshold_pct`
/// percent **after machine-speed calibration**, under **two**
/// calibrations at once: the median candidate/baseline ratio over all
/// shared cells (the global host-speed factor) and the median over the
/// entry's own family. Host drift is correlated in arbitrary subsets
/// of the grid (whole-machine slowdowns, one family's working set
/// landing at different cache-aliasing offsets, one thread count
/// scheduling differently), and each calibration is blind to the
/// subsets the other one absorbs — but a real kernel regression stands
/// out against *both* medians, because the grid's other cells and the
/// family's other cells both anchor them. The residual slowdown must
/// also exceed [`MIN_ABS_REGRESSION_SECS`]. Entries present on only
/// one side are skipped (grids of different sizes — or a v1 baseline
/// against a v2 candidate — stay comparable on their shared cells).
/// Overload cells (keys ending `/shed`) still anchor the calibration
/// medians but are exempt from flagging on time — their tail latency
/// is load-dependent by construction; see the inline comment in the
/// gating loop for the rationale and where their contract is gated
/// instead.
///
/// `peak_rss_bytes` is gated as a **second, independent metric** under
/// `rss_threshold_pct` on every shared cell where *both* documents
/// carry it (a baseline that predates the field — or a non-Linux host
/// that omits it — is tolerated, its cells simply aren't space-gated).
/// Peak RSS needs no machine-speed calibration: it measures the
/// algorithm's working set, not the host's clock — so the gate is a
/// plain ratio test with its own absolute floor
/// ([`MIN_ABS_RSS_REGRESSION_BYTES`]), which keeps small-process
/// allocator jitter quiet while catching an accidentally-rematerialized
/// O(m) array at xl sizes.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    threshold_pct: f64,
    rss_threshold_pct: f64,
) -> Result<Vec<Regression>, CompareError> {
    type Entries = Vec<(String, f64, Option<f64>)>;
    let doc = |j: &Json, which| -> Result<Entries, CompareError> {
        let entries = j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or(CompareError::MalformedDocument(which))?;
        entries
            .iter()
            .map(|e| {
                let key = entry_key(e).ok_or(CompareError::MalformedDocument(which))?;
                // Gate on the min-of-trials when the document carries it
                // (v2); fall back to the median `seconds` (v1).
                let secs = e
                    .get("seconds_min")
                    .and_then(Json::as_f64)
                    .or_else(|| e.get("seconds").and_then(Json::as_f64))
                    .ok_or(CompareError::MalformedDocument(which))?;
                let rss = e.get("peak_rss_bytes").and_then(Json::as_f64);
                Ok((key, secs, rss))
            })
            .collect()
    };
    let sv = |j: &Json| j.get("schema_version").and_then(Json::as_u64);
    let readable = |j: &Json| sv(j).is_some_and(|v| COMPAT_SCHEMA_VERSIONS.contains(&v));
    if !readable(baseline) || !readable(candidate) {
        return Err(CompareError::SchemaMismatch);
    }
    let base = doc(baseline, "baseline")?;
    let cand = doc(candidate, "candidate")?;
    // Machine-speed calibration: shared CI runners (and laptops) drift
    // wholesale between runs, so an absolute per-cell gate flags
    // everything on a slow day and nothing on a fast one. The drift is
    // additionally correlated in subsets (one family, one thread
    // count), so a cell must look regressed against both the global
    // median ratio *and* its family's before it flags — whichever
    // median absorbs the drift pattern clears the innocent cell, while
    // a genuinely regressed kernel stands out against both.
    let family_of = |key: &str| key.split('/').next().unwrap_or("").to_string();
    let shared: Vec<(&String, f64, f64)> = base
        .iter()
        .filter_map(|(key, b, _)| {
            let (_, c, _) = cand.iter().find(|(k, _, _)| k == key)?;
            (*b > 0.0).then_some((key, *b, *c))
        })
        .collect();
    let median_ratio = |pick: &dyn Fn(&str) -> bool| -> Option<f64> {
        let mut ratios: Vec<f64> = shared
            .iter()
            .filter(|(key, _, _)| pick(key))
            .map(|(_, b, c)| c / b)
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (!ratios.is_empty()).then(|| ratios[ratios.len() / 2])
    };
    let global_factor = median_ratio(&|_| true).unwrap_or(1.0);
    let mut regressions = vec![];
    for (key, b, c) in &shared {
        // Overload (`…/shed`) cells never *flag* on time: under
        // deliberate shedding, *which* requests get answered is itself
        // load-dependent, so their tail latency is bimodal run-to-run
        // (observed ~2x spread in the min-of-trials on a 1-core host)
        // and would flap any cross-run threshold. They stay in the
        // calibration medians above — they ride the same transport and
        // scheduler drift as their family and the medians are robust
        // to their noise — but their own contract (sheds nonzero and
        // typed, read p99 within a band of the same run's non-shed
        // cells) is asserted in-run by the CI serve-smoke step.
        if key.ends_with("/shed") {
            continue;
        }
        let fam = family_of(key);
        let fam_cells = shared
            .iter()
            .filter(|(k, _, _)| family_of(k) == fam)
            .count();
        // A family needs a few cells for its median to be meaningful;
        // otherwise the global factor stands in for it.
        let fam_factor = if fam_cells >= 4 {
            median_ratio(&|k| family_of(k) == fam).unwrap_or(global_factor)
        } else {
            global_factor
        };
        // Judge against the more forgiving of the two calibrations.
        let calibrated = b * global_factor.max(fam_factor);
        if c / calibrated > 1.0 + threshold_pct / 100.0 && c - calibrated > MIN_ABS_REGRESSION_SECS
        {
            regressions.push(Regression {
                key: (*key).clone(),
                metric: "seconds_min",
                baseline: *b,
                candidate: *c,
                slowdown_pct: (c / calibrated - 1.0) * 100.0,
            });
        }
    }
    // The space gate: uncalibrated ratio test on cells where both
    // sides report the watermark.
    for (key, _, b_rss) in &base {
        let Some((_, _, Some(c_rss))) = cand.iter().find(|(k, _, _)| k == key) else {
            continue;
        };
        let Some(b_rss) = b_rss else { continue };
        if *b_rss > 0.0
            && c_rss / b_rss > 1.0 + rss_threshold_pct / 100.0
            && c_rss - b_rss > MIN_ABS_RSS_REGRESSION_BYTES
        {
            regressions.push(Regression {
                key: key.clone(),
                metric: "peak_rss_bytes",
                baseline: *b_rss,
                candidate: *c_rss,
                slowdown_pct: (c_rss / b_rss - 1.0) * 100.0,
            });
        }
    }
    regressions.sort_by(|a, b| b.slowdown_pct.partial_cmp(&a.slowdown_pct).unwrap());
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Json {
        tiny_grid_with(vec![TraversalTuning::fast()])
    }

    fn tiny_grid_with(tunings: Vec<TraversalTuning>) -> Json {
        tiny_grid_full(tunings, WorkspaceMode::On, 1)
    }

    fn tiny_grid_full(
        tunings: Vec<TraversalTuning>,
        workspace: WorkspaceMode,
        trials: usize,
    ) -> Json {
        let cfg = GridConfig {
            n: 80,
            threads: vec![1, 2],
            trials,
            seed: 7,
            smoke: true,
            tunings,
            workspace,
            // The entry-count and rescale-by-index assertions below
            // predate the store and serve cells; they run on the plain
            // grid.
            store: false,
            serve: ServeMode::Off,
            prims: PrimsMode::Off,
            input: None,
        };
        run_grid(&cfg, |_| {})
    }

    #[test]
    fn store_commit_cells_emit_incremental_and_full_series() {
        let cfg = GridConfig {
            n: 320,
            threads: vec![1, 2],
            trials: 2,
            seed: 7,
            smoke: true,
            tunings: vec![TraversalTuning::fast()],
            workspace: WorkspaceMode::On,
            store: true,
            serve: ServeMode::Off,
            prims: PrimsMode::Off,
            input: None,
        };
        let doc = run_grid(&cfg, |_| {});
        assert_eq!(doc.get("store"), Some(&Json::Bool(true)));
        // The family summary rides along with the per-algorithm ones.
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        let store_fam = fams
            .iter()
            .find(|f| f.get("family").and_then(Json::as_str) == Some("store-multi"))
            .expect("store-multi family summary");
        assert_eq!(
            store_fam.get("components").and_then(Json::as_u64),
            Some(u64::from(STORE_PARTS))
        );
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        let store_cells: Vec<&Json> = entries
            .iter()
            .filter(|e| e.get("family").and_then(Json::as_str) == Some("store-multi"))
            .collect();
        // threads × batch sizes × {incremental, full}.
        assert_eq!(store_cells.len(), 2 * STORE_BATCHES.len() * 2);
        // Keys stay unique: the batch suffix disambiguates the series.
        let keys: std::collections::BTreeSet<String> =
            store_cells.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), store_cells.len());
        for e in &store_cells {
            let alg = e.get("algorithm").and_then(Json::as_str).unwrap();
            let batch = e.get("batch").and_then(Json::as_u64).unwrap();
            assert!(STORE_BATCHES.contains(&(batch as usize)));
            let key = entry_key(e).unwrap();
            assert!(key.ends_with(&format!("/batch{batch}")), "{key}");
            for field in [
                "seconds",
                "seconds_min",
                "batch_effective",
                "reused_fraction",
            ] {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field} in {key}"
                );
            }
            let effective = e.get("batch_effective").and_then(Json::as_f64).unwrap();
            assert!(effective >= 1.0, "{key}: no chords committed");
            let rebuilt = e.get("components_rebuilt").and_then(Json::as_u64).unwrap();
            let reused = e.get("components_reused").and_then(Json::as_u64).unwrap();
            match alg {
                // The batch is confined to the first component: the
                // incremental commit rebuilds exactly it and carries
                // the other 15 over by Arc.
                "commit-incremental" => {
                    assert_eq!(rebuilt, 1, "{key}");
                    assert_eq!(reused, u64::from(STORE_PARTS) - 1, "{key}");
                    assert!(
                        e.get("reused_fraction").and_then(Json::as_f64).unwrap() > 0.9,
                        "{key}"
                    );
                }
                // The escape hatch rebuilds everything.
                "commit-full" => {
                    assert_eq!(rebuilt, u64::from(STORE_PARTS), "{key}");
                    assert_eq!(reused, 0, "{key}");
                }
                other => panic!("unexpected store algorithm {other}"),
            }
        }
    }

    #[test]
    fn serve_cells_emit_slo_series() {
        let cfg = GridConfig {
            n: 320,
            threads: vec![1, 2],
            trials: 2,
            seed: 7,
            smoke: true,
            tunings: vec![TraversalTuning::fast()],
            workspace: WorkspaceMode::On,
            store: false,
            serve: ServeMode::Only,
            prims: PrimsMode::Off,
            input: None,
        };
        let doc = run_grid(&cfg, |_| {});
        assert_eq!(doc.get("serve").and_then(Json::as_str), Some("only"));
        // `only` skips the algorithm grid: the serve and serve-net
        // family summaries are the whole families array.
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), 2);
        for f in fams {
            assert_eq!(
                f.get("shards").and_then(Json::as_u64),
                Some(SERVE_SHARDS as u64)
            );
        }
        assert_eq!(
            fams[1].get("transport").and_then(Json::as_str),
            Some("tcp-loopback")
        );
        let text = doc.pretty();
        let parsed = crate::json::parse(&text).expect("serve BENCH json must parse");
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        // threads × (in-process scenarios + loopback-TCP scenarios).
        assert_eq!(
            entries.len(),
            2 * (serve_scenarios(1.0).len() + serve_net_scenarios(1.0).len())
        );
        let keys: std::collections::BTreeSet<String> =
            entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), entries.len());
        for e in entries {
            let key = entry_key(e).unwrap();
            let family = e.get("family").and_then(Json::as_str).unwrap();
            let mode = e.get("mode").and_then(Json::as_str).unwrap();
            assert!(matches!(mode, "closed" | "open"), "{key}");
            // Keys end with the drive mode plus the ablation suffixes
            // the writers/admission fields dictate.
            let mut tail = format!("/{mode}");
            if e.get("writers").and_then(Json::as_str) == Some("w1") {
                tail.push_str("/w1");
            }
            if e.get("admission").and_then(Json::as_str) == Some("shed") {
                tail.push_str("/shed");
            }
            assert!(key.ends_with(&tail), "{key} vs {tail}");
            // Closed-loop cells drive as fast as backpressure allows;
            // open-loop cells carry their arrival rate.
            let rate = e.get("rate").and_then(Json::as_f64).unwrap();
            assert_eq!(mode == "closed", rate == 0.0, "{key}");
            let common = ["seconds", "seconds_min", "answered", "shed_count"];
            let fields: &[&str] = if family == "serve" {
                &[
                    "queries_per_sec",
                    "latency_p50_seconds",
                    "latency_p999_seconds",
                    "lag_commits_p50",
                    "lag_commits_p99",
                    "lag_commits_max",
                    "lag_wall_p99_seconds",
                    "updates_applied",
                    "commits",
                    "writer_threads",
                    "commit_p99_seconds",
                    "commit_p99_seconds_shard0",
                ]
            } else {
                assert_eq!(family, "serve-net", "{key}");
                &["responses_per_sec", "accepted", "rejected_other"]
            };
            for field in common.iter().chain(fields) {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field} in {key}"
                );
            }
            assert!(
                e.get("answered").and_then(Json::as_f64).unwrap() > 0.0,
                "{key}: no queries answered"
            );
            // Quantiles are ordered: p50 ≤ p99 (= seconds) ≤ p999.
            let p50 = e.get("latency_p50_seconds").and_then(Json::as_f64).unwrap();
            let p99 = e.get("seconds").and_then(Json::as_f64).unwrap();
            let p999 = e
                .get("latency_p999_seconds")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(p50 <= p99 && p99 <= p999, "{key}: {p50} / {p99} / {p999}");
            if family != "serve" {
                continue;
            }
            // Churn profiles commit; read-heavy ones may too (1% mix).
            if e.get("algorithm").and_then(Json::as_str) == Some("churn-heavy") {
                assert!(
                    e.get("commits").and_then(Json::as_f64).unwrap() > 0.0,
                    "{key}: churn profile never committed"
                );
            }
            // The writer-topology field matches the daemon's actual
            // thread count: 1 for the ablation, shard count otherwise.
            let threads = e.get("writer_threads").and_then(Json::as_f64).unwrap();
            match e.get("writers").and_then(Json::as_str).unwrap() {
                "w1" => assert_eq!(threads, 1.0, "{key}"),
                _ => assert_eq!(threads, SERVE_SHARDS as f64, "{key}"),
            }
        }
    }

    #[test]
    fn golden_schema_round_trips() {
        let doc = tiny_grid();
        let text = doc.pretty();
        let parsed = crate::json::parse(&text).expect("emitted BENCH json must parse");
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("bcc-grid")
        );
        // Per-family shape summaries carry the effective diameter.
        let fams = parsed.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), Family::ALL.len());
        for f in fams {
            let d = f
                .get("effective_diameter_90")
                .and_then(Json::as_u64)
                .unwrap();
            let levels = f.get("bfs_levels").and_then(Json::as_u64).unwrap();
            assert!(d >= 1 && d <= levels, "diameter {d} vs levels {levels}");
        }
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        // families × threads × (Sequential + 4 parallel × |tunings|).
        assert_eq!(entries.len(), 4 * 2 * (1 + 4));
        let mut algs_seen = std::collections::BTreeSet::new();
        for e in entries {
            algs_seen.insert(e.get("algorithm").and_then(Json::as_str).unwrap());
            for field in [
                "seconds",
                "speedup_vs_sequential",
                "phase_runs",
                "barrier_episodes",
                "barrier_wait_seconds",
                "imbalance",
                "alloc_bytes",
                "arena_hit_rate",
            ] {
                assert!(
                    e.get(field).and_then(Json::as_f64).is_some(),
                    "missing {field}"
                );
            }
            assert!(e.get("phases").and_then(Json::as_arr).is_some());
            assert!(e.get("imbalance").and_then(Json::as_f64).unwrap() >= 1.0);
            // Tuning + work counters + workspace axis on parallel
            // cells only.
            let seq = e.get("algorithm").and_then(Json::as_str) == Some("Sequential");
            assert_eq!(e.get("tuning").is_none(), seq);
            assert_eq!(e.get("sv_rounds_cc").is_none(), seq);
            assert_eq!(e.get("workspace").is_none(), seq);
            if !seq {
                assert_eq!(e.get("workspace").and_then(Json::as_str), Some("on"));
            }
            if !seq {
                assert_eq!(
                    e.get("tuning").and_then(Json::as_str),
                    Some("hybrid+fastsv")
                );
                assert!(e.get("bfs_directions").and_then(Json::as_str).is_some());
            }
        }
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(algs_seen.into_iter().collect::<Vec<_>>(), {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        });
        // Parallel entries carry per-phase breakdowns; the Sequential
        // baseline legitimately has none.
        let tv = entries
            .iter()
            .find(|e| e.get("algorithm").and_then(Json::as_str) == Some("TV-filter"))
            .unwrap();
        assert!(!tv.get("phases").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn ablation_grid_emits_one_series_per_tuning() {
        let doc = tiny_grid_with(vec![
            "topdown+classic-sv".parse().unwrap(),
            TraversalTuning::fast(),
        ]);
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        // Sequential once, 4 parallel algorithms × 2 tunings.
        assert_eq!(entries.len(), 4 * 2 * (1 + 4 * 2));
        // Keys stay unique (the tuning disambiguates the ablation cells).
        let keys: std::collections::BTreeSet<String> =
            entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(keys.len(), entries.len());
        // FastSV finishes its step-6 run in strictly fewer graft rounds
        // than classic SV on at least one family.
        let rounds = |e: &&Json| e.get("sv_rounds_cc").and_then(Json::as_u64).unwrap();
        let of = |tuning: &str| -> Vec<u64> {
            entries
                .iter()
                .filter(|e| e.get("tuning").and_then(Json::as_str) == Some(tuning))
                .map(|e| rounds(&e))
                .collect()
        };
        let classic = of("topdown+classic-sv");
        let fast = of("hybrid+fastsv");
        assert_eq!(classic.len(), fast.len());
        assert!(!classic.is_empty());
        assert!(
            fast.iter().zip(&classic).any(|(f, c)| f < c),
            "fast {fast:?} vs classic {classic:?}"
        );
    }

    #[test]
    fn workspace_ablation_emits_on_and_off_series() {
        let doc = tiny_grid_full(vec![TraversalTuning::fast()], WorkspaceMode::Both, 2);
        assert_eq!(doc.get("workspace").and_then(Json::as_str), Some("both"));
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        // Sequential once, 4 parallel algorithms × 2 workspace points.
        assert_eq!(entries.len(), 4 * 2 * (1 + 4 * 2));
        // Keys stay unique; exactly the off-cells carry the suffix.
        let keys: Vec<String> = entries.iter().map(|e| entry_key(e).unwrap()).collect();
        assert_eq!(
            keys.iter().collect::<std::collections::BTreeSet<_>>().len(),
            entries.len()
        );
        for (e, key) in entries.iter().zip(&keys) {
            let ws = e.get("workspace").and_then(Json::as_str);
            assert_eq!(ws == Some("off"), key.ends_with("/ws-off"), "{key}");
            let alloc = e.get("alloc_bytes").and_then(Json::as_f64).unwrap();
            match ws {
                // Shared arena + 2 trials: the warm trial's 0 is the
                // reported median.
                Some("on") => assert_eq!(alloc, 0.0, "{key}"),
                // Fresh arena per run: every trial pays cold-start.
                Some("off") => assert!(alloc > 0.0, "{key}"),
                _ => {}
            }
        }
    }

    #[test]
    fn file_input_replaces_generated_families() {
        // A real on-disk dataset: write a text edge list, point the
        // grid at it, and the algorithm cells run on the single `file`
        // family instead of the four generated ones.
        let dir = std::env::temp_dir().join(format!("bcc-grid-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        let g = bcc_graph::gen::random_connected(60, 150, 7);
        bcc_graph::io::write_text(&g, &mut std::fs::File::create(&path).unwrap()).unwrap();
        let cfg = GridConfig {
            n: 60,
            threads: vec![1, 2],
            trials: 1,
            seed: 7,
            smoke: true,
            tunings: vec![TraversalTuning::fast()],
            workspace: WorkspaceMode::On,
            store: false,
            serve: ServeMode::Off,
            prims: PrimsMode::Off,
            input: Some(path.clone()),
        };
        let doc = run_grid(&cfg, |_| {});
        let fams = doc.get("families").and_then(Json::as_arr).unwrap();
        assert_eq!(fams.len(), 1);
        assert_eq!(fams[0].get("family").and_then(Json::as_str), Some("file"));
        assert_eq!(fams[0].get("n").and_then(Json::as_u64), Some(60));
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        // One family × 2 thread counts × (Sequential + 4 parallel).
        assert_eq!(entries.len(), 2 * (1 + 4));
        let rss_available = bcc_smp::rss::reset_peak().is_ok();
        for e in entries {
            assert_eq!(e.get("family").and_then(Json::as_str), Some("file"));
            assert_eq!(e.get("n").and_then(Json::as_u64), Some(60));
            // Where the kernel exposes the watermark, every cell
            // carries its peak resident set.
            if rss_available {
                let peak = e.get("peak_rss_bytes").and_then(Json::as_f64).unwrap();
                assert!(peak > 0.0);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_speedup_is_one_at_p1() {
        let doc = tiny_grid();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        for e in entries {
            if e.get("algorithm").and_then(Json::as_str) == Some("Sequential")
                && e.get("threads").and_then(Json::as_u64) == Some(1)
            {
                let s = e
                    .get("speedup_vs_sequential")
                    .and_then(Json::as_f64)
                    .unwrap();
                assert!((s - 1.0).abs() < 1e-9, "got {s}");
            }
        }
    }

    /// Rescales the gate's timing fields (`seconds` and `seconds_min`)
    /// of every entry by `f(index, old)`.
    fn rescale_entries(doc: &Json, f: &dyn Fn(usize, f64) -> f64) -> Json {
        let mut scaled = doc.clone();
        if let Json::Obj(fields) = &mut scaled {
            let entries = fields
                .iter_mut()
                .find(|(k, _)| k == "entries")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(list) = entries {
                for (i, e) in list.iter_mut().enumerate() {
                    if let Json::Obj(entry) = e {
                        for (k, v) in entry.iter_mut() {
                            if k == "seconds" || k == "seconds_min" {
                                let old = v.as_f64().unwrap();
                                *v = Json::num(f(i, old));
                            }
                        }
                    }
                }
            }
        }
        scaled
    }

    #[test]
    fn compare_flags_injected_regression_and_only_it() {
        let base = tiny_grid();
        // Inject a 50%+ slowdown into exactly one entry.
        let slowed = rescale_entries(&base, &|i, s| if i == 5 { s * 1.5 + 1.0 } else { s });
        assert_eq!(compare(&base, &base, 10.0, 25.0).unwrap(), vec![]);
        let regs = compare(&base, &slowed, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "exactly the injected cell: {regs:?}");
        assert!(regs[0].slowdown_pct > 25.0);
        // The reverse direction (speedup) is not a regression.
        assert_eq!(compare(&slowed, &base, 25.0, 25.0).unwrap(), vec![]);
    }

    #[test]
    fn compare_calibrates_out_uniform_machine_drift() {
        let base = tiny_grid();
        // A uniformly 2x-slower host: every cell doubles. The gate must
        // stay quiet — and still catch a cell that regressed on top of
        // the drift.
        let drifted = rescale_entries(&base, &|_, s| s * 2.0);
        assert_eq!(compare(&base, &drifted, 10.0, 25.0).unwrap(), vec![]);
        // Drift plus one real (large, past the absolute noise floor)
        // regression: exactly that cell flags.
        let drifted_plus =
            rescale_entries(&base, &|i, s| if i == 3 { s * 6.0 + 1.0 } else { s * 2.0 });
        let regs = compare(&base, &drifted_plus, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "exactly the regressed cell: {regs:?}");
    }

    #[test]
    fn compare_exempts_shed_cells_from_the_time_gate() {
        // Five serve cells, one of them an overload (`…/shed`) cell.
        // Overload tails are load-dependent by design, so an arbitrary
        // slowdown there must stay quiet while the same slowdown on a
        // steady-state cell still flags.
        let entry = |profile: &str, shed: bool, secs: f64| {
            let admission = if shed { "shed" } else { "open" };
            format!(
                "{{\"family\": \"serve\", \"algorithm\": \"{profile}\", \
                 \"n\": 600, \"threads\": 1, \"mode\": \"open\", \
                 \"admission\": \"{admission}\", \
                 \"seconds\": {secs}, \"seconds_min\": {secs}}}"
            )
        };
        let doc = |shed_secs: f64, churn_secs: f64| {
            crate::json::parse(&format!(
                "{{\"schema_version\": 2, \"entries\": [{}, {}, {}, {}, {}]}}",
                entry("read-heavy", false, 0.010),
                entry("churn-heavy", false, churn_secs),
                entry("hot-component", false, 0.012),
                entry("plain", false, 0.014),
                entry("update-storm", true, shed_secs),
            ))
            .unwrap()
        };
        let base = doc(0.020, 0.011);
        // The shed cell 100x slower: exempt, quiet.
        assert_eq!(
            compare(&base, &doc(2.0, 0.011), 10.0, 25.0).unwrap(),
            vec![]
        );
        // A steady-state cell 100x slower: flagged as usual.
        let regs = compare(&base, &doc(0.020, 1.1), 10.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].key.ends_with("/open"), "{}", regs[0].key);
    }

    /// Sets `peak_rss_bytes` on every entry to `f(index)` (None removes
    /// the field — a baseline predating the metric).
    fn with_rss(doc: &Json, f: &dyn Fn(usize) -> Option<f64>) -> Json {
        let mut out = doc.clone();
        if let Json::Obj(fields) = &mut out {
            let entries = fields
                .iter_mut()
                .find(|(k, _)| k == "entries")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(list) = entries {
                for (i, e) in list.iter_mut().enumerate() {
                    if let Json::Obj(entry) = e {
                        entry.retain(|(k, _)| k != "peak_rss_bytes");
                        if let Some(v) = f(i) {
                            entry.push(("peak_rss_bytes".to_string(), Json::num(v)));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn compare_gates_peak_rss_as_a_second_metric() {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let plain = tiny_grid();
        let base = with_rss(&plain, &|_| Some(GIB));
        // Identical RSS: quiet.
        assert_eq!(compare(&base, &base, 10.0, 25.0).unwrap(), vec![]);
        // One cell grows 2x (past both the ratio and the 16 MiB
        // floor): exactly it flags, on the space metric, with the raw
        // byte values.
        let bloated = with_rss(&plain, &|i| Some(if i == 4 { 2.0 * GIB } else { GIB }));
        let regs = compare(&base, &bloated, 10.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "peak_rss_bytes");
        assert_eq!(regs[0].baseline, GIB);
        assert_eq!(regs[0].candidate, 2.0 * GIB);
        assert!((regs[0].slowdown_pct - 100.0).abs() < 1e-9);
        // Under the ratio threshold: quiet.
        let mild = with_rss(&plain, &|_| Some(1.2 * GIB));
        assert_eq!(compare(&base, &mild, 10.0, 25.0).unwrap(), vec![]);
        // Over the ratio but under the absolute floor (small process):
        // quiet.
        let tiny = with_rss(&plain, &|_| Some(8.0 * 1024.0 * 1024.0));
        let tiny_grown = with_rss(&plain, &|_| Some(14.0 * 1024.0 * 1024.0));
        assert_eq!(compare(&tiny, &tiny_grown, 10.0, 25.0).unwrap(), vec![]);
        // Missing on either side (old baseline, non-Linux candidate):
        // tolerated, not flagged.
        let absent = with_rss(&plain, &|_| None);
        assert_eq!(compare(&absent, &bloated, 10.0, 25.0).unwrap(), vec![]);
        assert_eq!(compare(&bloated, &absent, 10.0, 25.0).unwrap(), vec![]);
        // Shrinking is not a regression.
        assert_eq!(compare(&bloated, &base, 10.0, 25.0).unwrap(), vec![]);
        // Time regressions still gate independently of RSS parity.
        let slowed = rescale_entries(&base, &|i, s| if i == 5 { s * 1.5 + 1.0 } else { s });
        let regs = compare(&base, &slowed, 25.0, 25.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "seconds_min");
    }

    #[test]
    fn compare_rejects_malformed_and_mismatched_documents() {
        let good = tiny_grid();
        let junk = crate::json::parse("{\"entries\": [{}]}").unwrap();
        assert!(matches!(
            compare(&junk, &junk, 10.0, 25.0),
            Err(CompareError::SchemaMismatch) | Err(CompareError::MalformedDocument(_))
        ));
        let mut other = good.clone();
        if let Json::Obj(fields) = &mut other {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(99.0);
                }
            }
        }
        assert_eq!(
            compare(&good, &other, 10.0, 25.0),
            Err(CompareError::SchemaMismatch)
        );
        // A v1 document is still readable against a v2 one (matching
        // falls back to the shared keys).
        let mut v1 = good.clone();
        if let Json::Obj(fields) = &mut v1 {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(1.0);
                }
            }
        }
        assert_eq!(compare(&v1, &good, 10.0, 25.0), Ok(vec![]));
    }

    #[test]
    fn thread_sweep_always_has_one_and_two() {
        assert_eq!(thread_sweep(1), vec![1, 2]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
    }
}
