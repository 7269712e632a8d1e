//! Order statistics and process counters shared by both phases.

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs` (`0 < q <= 1`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A stretch of time is quiet when the hypervisor stole at most this
/// share of the machine's time during it.
const QUIET_STEAL: f64 = 0.03;
/// With fewer quiet samples than this, a statistic uses every sample.
pub const MIN_QUIET: usize = 3;

/// The values taken in quiet time (`(value, quiet)` pairs), or every
/// value when fewer than `MIN_QUIET` of them were.
fn quiet_values(xs: &[(f64, bool)]) -> Vec<f64> {
    let quiet: Vec<f64> = xs.iter().filter(|x| x.1).map(|x| x.0).collect();
    if quiet.len() >= MIN_QUIET {
        quiet
    } else {
        xs.iter().map(|x| x.0).collect()
    }
}

/// Median over consecutive spans of `span` of each span's nearest-rank
/// `q`-quantile, over the quiet spans (see `quiet_values`). Samples
/// are `(time since the start, value)`; span `i` is quiet when
/// `quiet[i]` is true. 0 when empty.
pub fn windowed_quantile(
    samples: &[(Duration, f64)],
    span: Duration,
    q: f64,
    quiet: &[bool],
) -> f64 {
    let mut by_span: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let i = (t.as_secs_f64() / span.as_secs_f64()) as usize;
        if by_span.len() <= i {
            by_span.resize(i + 1, Vec::new());
        }
        by_span[i].push(v);
    }
    let tails: Vec<(f64, bool)> = by_span
        .iter()
        .enumerate()
        .filter(|(_, vs)| !vs.is_empty())
        .map(|(i, vs)| (quantile(vs, q), quiet.get(i).copied().unwrap_or(false)))
        .collect();
    median(&quiet_values(&tails))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system CPU time of this process (all threads), from
/// `/proc/self/stat`; `None` off Linux. Linux reports these fields in
/// USER_HZ ticks, which the kernel fixes at 100 per second.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, i.e. 11
    // and 12 after the state field that opens `rest`.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Cumulative CPU ticks of the whole machine, from the `cpu` line of
/// `/proc/stat`: ticks the hypervisor stole from this VM, and all ticks.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ticks {
    pub steal: u64,
    pub total: u64,
}

/// Current machine-wide ticks; zeros where `/proc/stat` is unavailable.
pub fn ticks() -> Ticks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Ticks::default();
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return Ticks::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user time.
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return Ticks::default();
    }
    Ticks {
        steal: v[7],
        total: v.iter().sum(),
    }
}

impl Ticks {
    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// Ticks of two disjoint spans together.
    pub fn plus(self, other: Ticks) -> Ticks {
        Ticks {
            steal: self.steal + other.steal,
            total: self.total + other.total,
        }
    }

    /// Whether at most `QUIET_STEAL` of these ticks were stolen.
    pub fn quiet(self) -> bool {
        self.steal_share() <= QUIET_STEAL
    }

    /// Stolen share of these ticks (0 when none elapsed).
    pub fn steal_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}

/// A splitmix/LCG stream for the benchmark's own seeded choices (the
/// operation mix), so inputs depend on `--seed` only.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_statistics_skip_loud_samples() {
        let xs = [(1.0, true), (9.0, false), (2.0, true), (3.0, true)];
        assert_eq!(quiet_values(&xs), [1.0, 2.0, 3.0]);
        // Too few quiet samples: every sample counts.
        assert_eq!(quiet_values(&xs[..2]), [1.0, 9.0]);

        let at = |ms: u64| Duration::from_millis(ms);
        let span = Duration::from_secs(1);
        // Four spans with maxima 1, 9, 2 and 1.5; the second is loud.
        let xs = [
            (at(100), 1.0),
            (at(900), 0.5),
            (at(1500), 9.0),
            (at(2100), 2.0),
            (at(3500), 1.5),
        ];
        let quiet = [true, false, true, true];
        assert_eq!(windowed_quantile(&xs, span, 1.0, &quiet), 1.5);
        assert_eq!(windowed_quantile(&xs, span, 1.0, &[true; 4]), 1.75);
        assert_eq!(windowed_quantile(&[], span, 0.99, &quiet), 0.0);
    }

    #[test]
    fn machine_ticks_are_readable() {
        let t = ticks();
        assert!(t.total > 0 && t.steal <= t.total);
        assert!(ticks().since(t).steal_share() <= 1.0);
    }

    #[test]
    fn cpu_time_is_readable_and_monotone() {
        let a = cpu_seconds().expect("/proc/self/stat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() >= a);
    }
}
