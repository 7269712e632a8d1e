//! Per-step timing, the instrumentation behind the paper's Fig. 4
//! (execution-time breakdown at fixed processor count).
//!
//! Two layers:
//!
//! * [`PhaseTimes`] / [`PipelineStats`] — the flat per-run numbers the
//!   original harness consumed (kept for compatibility).
//! * [`PhaseReport`] — the structured record produced by
//!   [`BccConfig::run`](crate::BccConfig::run): per-step durations
//!   *plus* per-step barrier-wait and load-imbalance (when the pool
//!   carries a [`Telemetry`] sink) and the input sizes that contextualize
//!   them (n, m, effective/filtered edge counts).

use bcc_smp::telemetry::{Telemetry, TelemetrySnapshot};
use bcc_smp::{BccWorkspace, WorkspaceStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one pipeline step (the rows of the paper's Fig. 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Spanning-tree construction (TV-filter: the BFS tree).
    SpanningTree,
    /// Euler-tour construction (classic or DFS-order).
    EulerTour,
    /// Root-tree / tree computations (preorder, sizes, depths).
    RootTree,
    /// Low-high values.
    LowHigh,
    /// Label-edge: building the auxiliary graph (paper Alg. 1).
    LabelEdge,
    /// Connected components of the auxiliary graph + label write-back.
    ConnectedComponents,
    /// TV-filter only: filtering and filtered-edge placement.
    Filtering,
}

impl Step {
    /// All steps in the paper's Fig. 4 order.
    pub const ALL: [Step; 7] = [
        Step::SpanningTree,
        Step::EulerTour,
        Step::RootTree,
        Step::LowHigh,
        Step::LabelEdge,
        Step::ConnectedComponents,
        Step::Filtering,
    ];

    /// Display name matching [`PhaseTimes::named`].
    pub fn name(self) -> &'static str {
        match self {
            Step::SpanningTree => "Spanning-tree",
            Step::EulerTour => "Euler-tour",
            Step::RootTree => "Root",
            Step::LowHigh => "Low-high",
            Step::LabelEdge => "Label-edge",
            Step::ConnectedComponents => "Connected-comp",
            Step::Filtering => "Filtering",
        }
    }
}

/// Wall-clock time of each pipeline step. Steps that an algorithm does
/// not perform stay zero (e.g. `filtering` for TV-SMP/TV-opt; TV-opt's
/// merged rooting leaves `root_tree` for the tree computations).
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Spanning-tree step (TV-filter: the BFS tree).
    pub spanning_tree: Duration,
    /// Euler-tour construction (classic or DFS-order).
    pub euler_tour: Duration,
    /// Root-tree / tree computations (preorder, sizes, depths).
    pub root_tree: Duration,
    /// Low-high values.
    pub low_high: Duration,
    /// Label-edge: building the auxiliary graph (paper Alg. 1).
    pub label_edge: Duration,
    /// Connected components of the auxiliary graph + label write-back.
    pub connected_components: Duration,
    /// TV-filter only: spanning forest of G − T and edge filtering.
    pub filtering: Duration,
    /// End-to-end time (≥ sum of the steps; includes glue).
    pub total: Duration,
}

impl PhaseTimes {
    /// Mutable slot for one step's accumulated duration.
    pub fn slot_mut(&mut self, step: Step) -> &mut Duration {
        match step {
            Step::SpanningTree => &mut self.spanning_tree,
            Step::EulerTour => &mut self.euler_tour,
            Step::RootTree => &mut self.root_tree,
            Step::LowHigh => &mut self.low_high,
            Step::LabelEdge => &mut self.label_edge,
            Step::ConnectedComponents => &mut self.connected_components,
            Step::Filtering => &mut self.filtering,
        }
    }

    /// Sum of the individual steps (excludes `total`).
    pub fn step_sum(&self) -> Duration {
        self.spanning_tree
            + self.euler_tour
            + self.root_tree
            + self.low_high
            + self.label_edge
            + self.connected_components
            + self.filtering
    }

    /// `(name, duration)` pairs in the paper's Fig. 4 order.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("Spanning-tree", self.spanning_tree),
            ("Euler-tour", self.euler_tour),
            ("Root", self.root_tree),
            ("Low-high", self.low_high),
            ("Label-edge", self.label_edge),
            ("Connected-comp", self.connected_components),
            ("Filtering", self.filtering),
        ]
    }
}

/// Measures one phase: `stopwatch(&mut times.low_high, || ...)`.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Machine-independent work counters, filled by every pipeline run.
///
/// Wall-clock on a given host mixes algorithm work with hardware
/// effects; these counters capture the *work* side of the paper's
/// analysis (e.g. TV-filter's `edges_after_filter <= 2(n-1)`) so the
/// reproduction claims can be checked on any machine.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Edges of the input graph.
    pub input_edges: usize,
    /// Edges actually fed to steps 4–6 (reduced set for TV-filter,
    /// `input_edges` otherwise).
    pub effective_edges: usize,
    /// Edges removed by filtering (TV-filter only).
    pub filtered_edges: usize,
    /// Vertices of the auxiliary graph: n, one per tree edge (the
    /// root's slot stays isolated). Nontree edges get no vertex of their
    /// own; condition 1 places each with its larger-preorder endpoint.
    pub aux_vertices: u32,
    /// Edges of the auxiliary graph (|R'_c| — the paper's Fig. 1
    /// quantity).
    pub aux_edges: usize,
    /// Graft rounds of the spanning-tree SV run: TV-SMP's step 1, or
    /// TV-filter's forest-of-`G − T` run (0 when a traversal-based tree
    /// was used).
    pub sv_rounds_spanning: u32,
    /// Graft rounds of the step-6 SV run.
    pub sv_rounds_cc: u32,
    /// BFS levels (TV-filter only; the `O(d)` term of Alg. 2).
    pub bfs_levels: u32,
    /// Vertices discovered per BFS level (TV-filter only; empty
    /// otherwise). Feeds effective-diameter estimates in the benchmarks.
    pub bfs_frontier_sizes: Vec<u32>,
    /// BFS levels the direction-optimizing heuristic ran bottom-up
    /// (0 under the pure top-down strategy).
    pub bfs_bottom_up_levels: u32,
    /// Chosen direction per BFS level, compactly: `T` = top-down,
    /// `B` = bottom-up (e.g. `"TTBBT"`; empty when no BFS ran).
    pub bfs_directions: String,
}

/// One step of a [`PhaseReport`]: duration plus the telemetry split for
/// exactly this step's pool activity.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Which step.
    pub step: Step,
    /// Accumulated wall-clock time of the step.
    pub duration: Duration,
    /// Total barrier-wait time across all threads during the step
    /// (zero without a telemetry sink).
    pub barrier_wait: Duration,
    /// Load-imbalance ratio (max busy / mean busy) of the step's pool
    /// phases; `1.0` without a telemetry sink or pool work.
    pub imbalance: f64,
    /// Per-thread busy time during the step (empty without telemetry).
    pub busy: Vec<Duration>,
    /// Bytes freshly heap-allocated through the run's [`BccWorkspace`]
    /// during the step (arena misses; 0 without a workspace-aware
    /// recorder, and 0 in the steady state when every take hits).
    pub alloc_bytes: u64,
}

impl StepReport {
    /// Display name of the step.
    pub fn name(&self) -> &'static str {
        self.step.name()
    }
}

/// Structured record of one pipeline run: sizes, per-step breakdown,
/// and synchronization/imbalance statistics.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Algorithm display name (matching the paper's figures).
    pub algorithm: &'static str,
    /// SPMD thread count of the pool that ran the pipeline.
    pub threads: usize,
    /// Input vertices.
    pub n: u32,
    /// Input edges.
    pub m: usize,
    /// Edges fed to steps 4–6 (reduced set for TV-filter).
    pub effective_edges: usize,
    /// Edges removed by filtering (TV-filter only).
    pub filtered_edges: usize,
    /// Per-step reports in execution order (only steps that ran).
    pub steps: Vec<StepReport>,
    /// End-to-end wall-clock time (≥ step sum; includes glue).
    pub total: Duration,
    /// `Pool::run` phases issued during the run (0 without telemetry).
    pub phase_runs: u64,
    /// Barrier episodes completed during the run (0 without telemetry).
    pub barrier_episodes: u64,
    /// Total barrier-wait time across threads (zero without telemetry).
    pub barrier_wait: Duration,
    /// Whole-run load-imbalance ratio (`1.0` without telemetry).
    pub imbalance: f64,
    /// Bytes freshly heap-allocated through the run's [`BccWorkspace`]
    /// (arena misses; 0 without a workspace-aware recorder).
    pub alloc_bytes: u64,
    /// Fraction of workspace takes served from the arena shelf
    /// (`1.0` when every take hit, or when no workspace was observed).
    pub arena_hit_rate: f64,
    /// Snapshot-lag observations recorded through the telemetry sink
    /// during the run (0 without telemetry, or when nothing was
    /// answered from an epoch snapshot — classic batch pipelines).
    pub snapshot_lag_samples: u64,
    /// Mean observed snapshot lag, in commits behind the latest epoch.
    pub snapshot_lag_commits_mean: f64,
    /// Worst observed snapshot lag, in commits (high-water mark of the
    /// sink — see `TelemetrySnapshot::delta_since`).
    pub snapshot_lag_commits_max: u64,
    /// Mean observed snapshot age (wall time since publication).
    pub snapshot_lag_wall_mean: Duration,
    /// Worst observed snapshot age (high-water mark of the sink).
    pub snapshot_lag_wall_max: Duration,
    /// Operations shed by admission control during the run (0 without
    /// telemetry, or when no serving layer was involved).
    pub shed_count: u64,
    /// The run's machine-independent work counters.
    pub stats: PipelineStats,
}

impl PhaseReport {
    /// Sum of the per-step durations (excludes glue; `<= total`).
    pub fn step_sum(&self) -> Duration {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// The report for `step`, if that step ran.
    pub fn step(&self, step: Step) -> Option<&StepReport> {
        self.steps.iter().find(|s| s.step == step)
    }
}

/// Accumulates per-step durations and telemetry deltas while a pipeline
/// runs; [`finish`](PhaseRecorder::finish)ing it yields the
/// [`PhaseReport`]. Repeated steps (TV-filter's two filtering
/// sub-phases, per-component reruns) merge into one entry.
pub struct PhaseRecorder<'a> {
    phases: PhaseTimes,
    order: Vec<Step>,
    accum: [Option<StepAccum>; 7],
    telem: Option<&'a Telemetry>,
    first: Option<TelemetrySnapshot>,
    prev: Option<TelemetrySnapshot>,
    ws: Option<Arc<BccWorkspace>>,
    ws_first: WorkspaceStats,
    ws_prev: WorkspaceStats,
}

struct StepAccum {
    duration: Duration,
    barrier_wait: Duration,
    busy: Vec<Duration>,
    alloc_bytes: u64,
}

fn step_index(step: Step) -> usize {
    Step::ALL.iter().position(|&s| s == step).unwrap()
}

impl<'a> PhaseRecorder<'a> {
    /// A recorder reading telemetry deltas from `telem` (pass the
    /// pool's sink, or `None` for timing-only reports).
    pub fn new(telem: Option<&'a Telemetry>) -> Self {
        Self::with_workspace(telem, None)
    }

    /// Like [`new`](PhaseRecorder::new), additionally observing `ws`:
    /// each step's arena-miss bytes land in
    /// [`StepReport::alloc_bytes`], and the whole-run delta fills
    /// [`PhaseReport::alloc_bytes`] / [`PhaseReport::arena_hit_rate`].
    pub fn with_workspace(telem: Option<&'a Telemetry>, ws: Option<Arc<BccWorkspace>>) -> Self {
        let first = telem.map(|t| t.snapshot());
        let ws_first = ws.as_ref().map(|w| w.stats()).unwrap_or_default();
        PhaseRecorder {
            phases: PhaseTimes::default(),
            order: Vec::new(),
            accum: Default::default(),
            telem,
            first: first.clone(),
            prev: first,
            ws,
            ws_first,
            ws_prev: ws_first,
        }
    }

    /// The flat times accumulated so far.
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }

    /// Times `f` as one execution of `step`, attributing the pool's
    /// telemetry movement during `f` to that step.
    pub fn step<T>(&mut self, step: Step, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        *self.phases.slot_mut(step) += duration;

        let (barrier_wait, busy) = match self.telem {
            None => (Duration::ZERO, Vec::new()),
            Some(t) => {
                let now = t.snapshot();
                let delta = now.delta_since(self.prev.as_ref().unwrap());
                self.prev = Some(now);
                (delta.total_barrier_wait(), delta.busy)
            }
        };

        let alloc_bytes = match &self.ws {
            None => 0,
            Some(w) => {
                let now = w.stats();
                let delta = now.delta_since(&self.ws_prev);
                self.ws_prev = now;
                delta.bytes_allocated
            }
        };

        let slot = &mut self.accum[step_index(step)];
        match slot {
            None => {
                self.order.push(step);
                *slot = Some(StepAccum {
                    duration,
                    barrier_wait,
                    busy,
                    alloc_bytes,
                });
            }
            Some(acc) => {
                acc.duration += duration;
                acc.barrier_wait += barrier_wait;
                acc.alloc_bytes += alloc_bytes;
                if acc.busy.len() < busy.len() {
                    acc.busy.resize(busy.len(), Duration::ZERO);
                }
                for (a, b) in acc.busy.iter_mut().zip(busy) {
                    *a += b;
                }
            }
        }
        out
    }

    /// Builds the report. `total` should be the pipeline's end-to-end
    /// time; sizes and `stats` come from the finished run.
    pub fn finish(
        mut self,
        algorithm: &'static str,
        threads: usize,
        n: u32,
        m: usize,
        stats: PipelineStats,
        total: Duration,
    ) -> PhaseReport {
        let steps = self
            .order
            .iter()
            .map(|&step| {
                let acc = self.accum[step_index(step)].take().unwrap();
                StepReport {
                    step,
                    duration: acc.duration,
                    barrier_wait: acc.barrier_wait,
                    imbalance: imbalance_of(&acc.busy),
                    busy: acc.busy,
                    alloc_bytes: acc.alloc_bytes,
                }
            })
            .collect();

        let whole_run = self
            .telem
            .map(|t| t.snapshot().delta_since(self.first.as_ref().unwrap()));
        let (phase_runs, barrier_episodes, barrier_wait, imbalance) = match &whole_run {
            None => (0, 0, Duration::ZERO, 1.0),
            Some(delta) => (
                delta.phase_runs,
                delta.barrier_episodes,
                delta.total_barrier_wait(),
                delta.imbalance(),
            ),
        };
        let (lag_samples, lag_commits_mean, lag_commits_max, lag_wall_mean, lag_wall_max) =
            match &whole_run {
                None => (0, 0.0, 0, Duration::ZERO, Duration::ZERO),
                Some(delta) => (
                    delta.snapshot_lag_samples,
                    delta.snapshot_lag_mean_commits(),
                    delta.snapshot_lag_commits_max,
                    delta.snapshot_lag_mean_wall(),
                    delta.snapshot_lag_wall_max,
                ),
            };

        let (alloc_bytes, arena_hit_rate) = match &self.ws {
            None => (0, 1.0),
            Some(w) => {
                let delta = w.stats().delta_since(&self.ws_first);
                (delta.bytes_allocated, delta.hit_rate())
            }
        };

        PhaseReport {
            algorithm,
            threads,
            n,
            m,
            effective_edges: stats.effective_edges,
            filtered_edges: stats.filtered_edges,
            steps,
            total,
            phase_runs,
            barrier_episodes,
            barrier_wait,
            imbalance,
            alloc_bytes,
            arena_hit_rate,
            snapshot_lag_samples: lag_samples,
            snapshot_lag_commits_mean: lag_commits_mean,
            snapshot_lag_commits_max: lag_commits_max,
            snapshot_lag_wall_mean: lag_wall_mean,
            snapshot_lag_wall_max: lag_wall_max,
            shed_count: whole_run.as_ref().map_or(0, |d| d.sheds),
            stats,
        }
    }
}

fn imbalance_of(busy: &[Duration]) -> f64 {
    let max = busy.iter().max().copied().unwrap_or_default();
    let sum: Duration = busy.iter().sum();
    if sum.is_zero() {
        return 1.0;
    }
    max.as_secs_f64() / (sum.as_secs_f64() / busy.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_accumulates() {
        let mut d = Duration::ZERO;
        let x = timed(&mut d, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(x, 42);
        assert!(d >= Duration::from_millis(5));
        timed(&mut d, || ());
        assert!(d >= Duration::from_millis(5));
    }

    #[test]
    fn recorder_merges_repeated_steps_in_first_seen_order() {
        let mut rec = PhaseRecorder::new(None);
        rec.step(Step::Filtering, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        rec.step(Step::SpanningTree, || ());
        rec.step(Step::Filtering, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let report = rec.finish(
            "TV-filter",
            2,
            10,
            20,
            PipelineStats::default(),
            Duration::from_secs(1),
        );
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.steps[0].step, Step::Filtering);
        assert_eq!(report.steps[1].step, Step::SpanningTree);
        assert!(report.steps[0].duration >= Duration::from_millis(4));
        assert!(report.step(Step::LowHigh).is_none());
        assert!(report.step(Step::Filtering).is_some());
    }

    #[test]
    fn recorder_attributes_telemetry_deltas_per_step() {
        use bcc_smp::Pool;
        use std::sync::Arc;
        let sink = Arc::new(Telemetry::new(2));
        let pool = Pool::builder()
            .threads(2)
            .telemetry(Arc::clone(&sink))
            .build();
        let mut rec = PhaseRecorder::new(Some(&sink));
        rec.step(Step::SpanningTree, || {
            pool.run(|ctx| {
                if ctx.tid() == 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        });
        rec.step(Step::EulerTour, || {
            // No pool work: deltas must be zero for this step.
        });
        let report = rec.finish(
            "TV-opt",
            2,
            5,
            5,
            PipelineStats::default(),
            Duration::from_millis(20),
        );
        let st = report.step(Step::SpanningTree).unwrap();
        assert!(st.busy[0] >= Duration::from_millis(5), "{:?}", st.busy);
        assert!(st.imbalance > 1.0);
        let et = report.step(Step::EulerTour).unwrap();
        assert_eq!(et.busy.iter().sum::<Duration>(), Duration::ZERO);
        assert_eq!(et.imbalance, 1.0);
        assert_eq!(report.phase_runs, 1);
        assert_eq!(report.barrier_episodes, 1);
    }

    #[test]
    fn recorder_routes_snapshot_lag_from_the_sink() {
        let sink = Telemetry::new(1);
        let rec = PhaseRecorder::new(Some(&sink));
        // A serving reader elsewhere reports two answers' staleness.
        sink.record_snapshot_lag(2, Duration::from_micros(50));
        sink.record_snapshot_lag(4, Duration::from_micros(150));
        sink.record_shed(3);
        let report = rec.finish(
            "TV-filter",
            1,
            1,
            1,
            PipelineStats::default(),
            Duration::ZERO,
        );
        assert_eq!(report.snapshot_lag_samples, 2);
        assert!((report.snapshot_lag_commits_mean - 3.0).abs() < 1e-9);
        assert_eq!(report.snapshot_lag_commits_max, 4);
        assert_eq!(report.snapshot_lag_wall_mean, Duration::from_micros(100));
        assert_eq!(report.snapshot_lag_wall_max, Duration::from_micros(150));
        assert_eq!(report.shed_count, 3);

        // Without a sink the fields are inert zeros.
        let report = PhaseRecorder::new(None).finish(
            "TV-opt",
            1,
            1,
            1,
            PipelineStats::default(),
            Duration::ZERO,
        );
        assert_eq!(report.snapshot_lag_samples, 0);
        assert_eq!(report.snapshot_lag_wall_max, Duration::ZERO);
    }

    #[test]
    fn step_names_match_phase_times_named() {
        let times = PhaseTimes::default();
        for (step, (name, _)) in Step::ALL.iter().zip(times.named()) {
            assert_eq!(step.name(), name);
        }
    }

    #[test]
    fn step_sum_and_named_agree() {
        let t = PhaseTimes {
            spanning_tree: Duration::from_millis(1),
            filtering: Duration::from_millis(2),
            ..PhaseTimes::default()
        };
        assert_eq!(t.step_sum(), Duration::from_millis(3));
        let total: Duration = t.named().iter().map(|&(_, d)| d).sum();
        assert_eq!(total, t.step_sum());
    }
}
