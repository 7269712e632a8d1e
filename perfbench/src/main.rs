//! `perfbench` — one command for the end-to-end and per-layer metrics
//! listed in `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <sparse-heap|serve-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--inject wrong-label|wrong-answer]
//! ```
//!
//! Each workload measures its static graph in the seven (algorithm, p)
//! cells from a loaded `Graph` to edge labels, and then the serving
//! daemon over a 16-part `component_grid` under an open-loop
//! `churn-heavy` stream. The static cells get 60% of `--seconds` and
//! the serving window the rest; serving spans in which the hypervisor
//! stole much of the machine are left out of the tails while enough
//! others remain (see `stats::windowed_quantile`). Every output
//! is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). The
//! traced run also writes its spans as Chrome trace-event JSON under
//! `.perfbench/`. The exit code is non-zero when any output was wrong.
//! See `perfbench/README.md` for why each workload exists.

mod cells;
mod serve;
mod stats;
mod trace;

use std::time::Duration;
use trace::Tracer;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    SparseHeap,
    ServeChurn,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseHeap => "sparse-heap",
            Workload::ServeChurn => "serve-churn",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Workload::SparseHeap, Workload::ServeChurn]
            .into_iter()
            .find(|w| w.name() == s)
    }
}

/// Input sizes: the measured sizes, or tiny ones for the smoke tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Extra arguments that reproduce this scale in a child process.
    pub fn flag(self) -> &'static [&'static str] {
        match self {
            Scale::Full => &[],
            Scale::Smoke => &["--smoke"],
        }
    }

    /// `sparse-heap`'s `random_connected(n, m)`: m = 4n.
    pub fn sparse(self) -> (u32, usize) {
        match self {
            Scale::Full => (500_000, 2_000_000),
            Scale::Smoke => (5_000, 20_000),
        }
    }

    /// Size of `serve-churn`'s static graph, one `component_grid` part.
    pub fn churn_static_n(self) -> u32 {
        match self {
            Scale::Full => 1_000_000,
            Scale::Smoke => 4_096,
        }
    }

    /// Vertices per served part.
    pub fn part_n(self) -> u32 {
        match self {
            Scale::Full => 6_250,
            Scale::Smoke => 256,
        }
    }

    /// Completed visibility probes a serving window needs. The window
    /// runs on for a while until it has them; fewer still count as a
    /// failed op, since `visible_p95_ms` would rest on too few.
    pub fn min_probes(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Smoke => 20,
        }
    }

    /// Open-loop offered rate, requests per second.
    pub fn rate(self) -> f64 {
        match self {
            Scale::Full => 5_000.0,
            Scale::Smoke => 2_000.0,
        }
    }
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    inject: Option<String>,
    rss_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut scale, mut inject, mut rss_child) = (Scale::Full, None, false);
    while let Some(a) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => scale = Scale::Smoke,
            "--inject" => {
                let v = value()?;
                if v != "wrong-label" && v != "wrong-answer" {
                    return Err(format!("unknown fault {v}"));
                }
                inject = Some(v);
            }
            "--rss-child" => rss_child = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        scale,
        inject,
        rss_child,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.rss_child {
        println!("{}", cells::rss_child(args.workload, args.seed, args.scale));
        return;
    }
    let w = args.workload;
    let tracer = Tracer::new(args.trace);
    // The static cells drift with the host over seconds and need many
    // rounds; the serving tails are steady over fewer 2-s spans.
    let static_budget = Duration::from_secs_f64(args.seconds * 0.6);
    let serve_budget = Duration::from_secs_f64(args.seconds) - static_budget;
    let inject = args.inject.as_deref();
    // Several set-ups per run, reported as their median.
    let (static_setups, serve_setups) = match w {
        Workload::ServeChurn => (1, 15),
        Workload::SparseHeap => (21, 1),
    };

    let (st, sv) = tracer.span(&format!("perfbench {}", w.name()), None, |root| {
        let st = tracer.span("static cells", root, |parent| {
            cells::run_static(
                w,
                args.seed,
                args.scale,
                static_budget,
                static_setups,
                &tracer,
                parent,
                inject == Some("wrong-label"),
            )
        });
        let sv = tracer.span("serving", root, |parent| {
            serve::run_serve(
                w,
                args.seed,
                args.scale,
                serve_budget,
                serve_setups,
                &tracer,
                parent,
                inject == Some("wrong-answer"),
            )
        });
        (st, sv)
    });

    let setup = match w {
        Workload::ServeChurn => &sv.setup,
        _ => &st.setup,
    };
    let mut metrics = Metrics::new();
    if !args.trace {
        metrics.push("setup_s", stats::median(setup), "s");
    }
    metrics.extend(st.metrics);
    metrics.extend(sv.metrics);
    // Time the hypervisor took from this machine during both windows:
    // context for a slow run, not something the code controls.
    let steal_pct = 100.0 * st.window.plus(sv.window).steal_share();
    eprintln!("perfbench: host steal {steal_pct:.2}% over the timed windows");
    if args.trace {
        metrics.push("proc.cpu_s", st.cpu_s + sv.cpu_s, "s");
        metrics.push("host.steal_pct", steal_pct, "%");
        let dir = cells::work_dir();
        let path = dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let attempted = st.attempted + sv.attempted;
    let failed = st.failed + sv.failed;
    // Refusals count as failed ops; only a wrong output fails the command.
    let correct = st.failed == 0 && sv.wrong == 0;
    for (name, value, unit) in &metrics.0 {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
