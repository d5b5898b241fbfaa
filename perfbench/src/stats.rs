//! The benchmark's own arithmetic: medians, tail percentiles, failure
//! ratios and the layer-sum residual. Kept free of I/O so the rules are
//! unit-tested on their own.

/// Percentile ladder a tail is chosen from, highest first.
const TAIL_LADDER: &[f64] = &[0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One reported percentile of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (0.99 for p99).
    pub p: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples in the whole set.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// `p99`, `p99.9`, `p50`, ... for printing.
    pub fn label(&self) -> String {
        let pct = self.p * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round())
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Nearest-rank index of percentile `p` in `n` sorted samples (0-based).
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The value at percentile `p` of `sorted` (nearest rank), with its count
/// of samples beyond. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), p);
    Some(Tail {
        p,
        value: sorted[i],
        samples: sorted.len(),
        beyond: sorted.len() - 1 - i,
    })
}

/// The highest percentile at or below `target` that still has at least
/// [`MIN_BEYOND`] samples beyond it. Falls back to the median when even
/// that is too thin, so a tail is never reported from fewer samples than
/// it claims to summarise; `None` only for an empty sample.
pub fn tail(sorted: &[f64], target: f64) -> Option<Tail> {
    let candidates = TAIL_LADDER.iter().filter(|&&p| p <= target + 1e-12);
    for &p in candidates {
        let t = percentile(sorted, p)?;
        if t.beyond >= MIN_BEYOND {
            return Some(t);
        }
    }
    percentile(sorted, 0.5)
}

/// Sorts a latency sample in place and returns it (NaN-total order).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Work and cost of each timed window of a run. The run's rates are
/// totals — points over wall seconds, CPU seconds over points — over the
/// windows it keeps, so every cost the program pays in any window (a
/// durable snapshot, a merge burst, a stall) lands in the figure.
///
/// Windows in which the hypervisor stole more CPU than in the run's median
/// window are left out: steal is time the host took from this machine,
/// not time the program spent, and it comes and goes with other tenants
/// of the host. A window is only ever left out for its steal, never for
/// its own length.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    points: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    steal: Vec<u64>,
}

impl Windows {
    /// Records one window: its points, wall and CPU seconds, and the host
    /// steal (jiffies) it saw.
    pub fn push(&mut self, points: u64, wall_s: f64, cpu_s: f64, steal: u64) {
        self.points.push(points as f64);
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
        self.steal.push(steal);
    }

    /// Windows recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Indices of the windows the rates use: those with no more steal
    /// than the median window (all of them when nothing was stolen).
    pub fn used(&self) -> Vec<usize> {
        let mut s = self.steal.clone();
        s.sort_unstable();
        let Some(&cut) = s.get(s.len().saturating_sub(1) / 2) else {
            return Vec::new();
        };
        (0..self.len()).filter(|&i| self.steal[i] <= cut).collect()
    }

    fn used_sum(&self, of: &[f64]) -> f64 {
        self.used().into_iter().map(|i| of[i]).sum()
    }

    /// Points per second over the used windows: their points over their
    /// wall time.
    pub fn throughput(&self) -> f64 {
        self.used_sum(&self.points) / self.used_sum(&self.wall_s)
    }

    /// CPU microseconds per point over the used windows: their CPU time
    /// over their points.
    pub fn cpu_us_per_pt(&self) -> f64 {
        self.used_sum(&self.cpu_s) * 1e6 / self.used_sum(&self.points)
    }

    /// Median over the used windows of each window's own points per
    /// second; printed only, as a check on how evenly the run went.
    pub fn median_throughput(&self) -> f64 {
        let v: Vec<f64> = self
            .used()
            .into_iter()
            .map(|i| self.points[i] / self.wall_s[i])
            .collect();
        median(&v).unwrap_or(0.0)
    }

    /// Points over all windows.
    pub fn points(&self) -> u64 {
        self.points.iter().sum::<f64>() as u64
    }

    /// Wall time over all windows, s.
    pub fn wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// CPU time over all windows, s.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_s.iter().sum()
    }

    /// Steal over all windows, jiffies.
    pub fn steal(&self) -> u64 {
        self.steal.iter().sum()
    }

    /// One line for the report: totals, which windows the rates use, and
    /// the median window for comparison.
    pub fn describe(&self) -> String {
        format!(
            "{} windows ({} used, steal {} jiffies), {:.3} s wall, {:.3} s CPU; all windows {:.0} pts/s, {:.3} us CPU/pt; median window {:.0} pts/s",
            self.len(),
            self.used().len(),
            self.steal(),
            self.wall_s(),
            self.cpu_s(),
            self.points() as f64 / self.wall_s(),
            self.cpu_s() * 1e6 / self.points() as f64,
            self.median_throughput()
        )
    }
}

/// Operations that did not complete as asked, over operations attempted.
/// Every kind of failure counts: refused, shed, unanswered, and failed
/// correctness gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations the benchmark issued (requests, pushes, commits, gates).
    pub attempted: u64,
    /// `Overloaded` / shed responses.
    pub refused: u64,
    /// Horizon windows the store could not answer.
    pub unavailable: u64,
    /// Syncs whose retries were exhausted, or requests with no answer.
    pub unanswered: u64,
    /// Correctness gates that failed.
    pub gates_failed: u64,
}

impl Outcomes {
    /// Every failed operation, whatever its kind.
    pub fn failed(&self) -> u64 {
        self.refused + self.unavailable + self.unanswered + self.gates_failed
    }

    /// `failed / attempted`; 0 when nothing was attempted (and nothing failed).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return if self.failed() == 0 { 0.0 } else { 1.0 };
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// How far a set of layer times falls short of (or overshoots) the
/// end-to-end time it should account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accounting {
    /// The end-to-end figure being explained.
    pub total: f64,
    /// Sum of the layer figures.
    pub layers: f64,
    /// `total − layers`. Negative when the layers overshoot: reported as
    /// is, never clamped to zero, so a mis-attributed layer shows.
    pub residual: f64,
}

impl Accounting {
    /// Accounts `total` against `layers`.
    pub fn new(total: f64, layers: &[f64]) -> Self {
        let sum: f64 = layers.iter().sum();
        Self {
            total,
            layers: sum,
            residual: total - sum,
        }
    }

    /// Share of `total` the layers explain (1.0 = fully accounted).
    pub fn covered(&self) -> f64 {
        if self.total.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            self.layers / self.total
        }
    }
}

/// `(traced − untraced) / untraced` for a cost-like figure (time per
/// point): the share the trace itself added.
pub fn overhead(untraced: f64, traced: f64) -> f64 {
    if untraced.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        (traced - untraced) / untraced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_beyond_count() {
        let v = ramp(100);
        let t = percentile(&v, 0.99).unwrap();
        assert_eq!(t.value, 99.0);
        assert_eq!(t.beyond, 1);
        assert_eq!(t.samples, 100);
        let t = percentile(&v, 0.5).unwrap();
        assert_eq!(t.value, 50.0);
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn tail_keeps_target_when_ten_samples_lie_beyond() {
        // 2000 samples: p99 has 20 beyond it, p99.9 only 2.
        let v = ramp(2000);
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.p, 0.99);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
        let t = tail(&v, 0.999).unwrap();
        assert_eq!(t.p, 0.99, "p99.9 has 2 beyond, so it steps down");
    }

    #[test]
    fn tail_steps_down_until_ten_beyond() {
        // 100 samples: p99 has 1 beyond, p95 has 5, p90 has exactly 10.
        let v = ramp(100);
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.p, 0.9);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_never_reports_above_target() {
        let v = ramp(100_000);
        assert_eq!(tail(&v, 0.9).unwrap().p, 0.9);
        assert_eq!(tail(&v, 0.5).unwrap().p, 0.5);
    }

    #[test]
    fn tail_of_thin_sample_falls_back_to_median() {
        let v = ramp(12);
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.p, 0.5);
        assert!(tail(&[], 0.99).is_none());
    }

    #[test]
    fn tail_labels() {
        let v = ramp(100_000);
        assert_eq!(tail(&v, 0.99).unwrap().label(), "p99");
        assert_eq!(tail(&v, 0.999).unwrap().label(), "p99.9");
    }

    #[test]
    fn window_rates_are_totals_over_windows() {
        let mut w = Windows::default();
        w.push(100, 1.0, 2.0, 0); // 100/s
        w.push(100, 0.5, 1.0, 0); // 200/s
        w.push(100, 10.0, 0.5, 0); // 10/s: one stalled window
        assert_eq!(w.len(), 3);
        assert_eq!(w.used(), vec![0, 1, 2]);
        // The stall counts in full: 300 points over 11.5 s.
        assert!((w.throughput() - 300.0 / 11.5).abs() < 1e-9);
        assert!((w.cpu_us_per_pt() - 3.5e6 / 300.0).abs() < 1e-9);
        assert_eq!(w.median_throughput(), 100.0);
        assert_eq!(w.points(), 300);
        assert_eq!(w.wall_s(), 11.5);
        assert_eq!(w.cpu_s(), 3.5);
    }

    #[test]
    fn a_cost_in_a_minority_of_windows_moves_the_rate() {
        // One window in five pays for a snapshot: the median window does
        // not see it, the total does.
        let mut even = Windows::default();
        let mut bursty = Windows::default();
        for i in 0..5 {
            even.push(100, 1.0, 1.0, 0);
            bursty.push(100, if i == 2 { 3.0 } else { 1.0 }, 1.0, 0);
        }
        assert_eq!(even.median_throughput(), bursty.median_throughput());
        assert!(bursty.throughput() < even.throughput() * 0.8);
    }

    #[test]
    fn windows_with_more_than_median_steal_are_left_out() {
        let mut w = Windows::default();
        w.push(100, 1.0, 1.0, 0);
        w.push(100, 4.0, 1.0, 40); // stolen from: left out
        w.push(100, 2.0, 1.0, 3);
        w.push(100, 1.0, 1.0, 3);
        w.push(100, 8.0, 1.0, 90); // stolen from: left out
        assert_eq!(w.used(), vec![0, 2, 3]);
        assert_eq!(w.throughput(), 75.0);
        assert_eq!(w.steal(), 136);
        assert_eq!(w.points(), 500);
    }

    #[test]
    fn failed_ratio_counts_every_kind_of_failure() {
        let o = Outcomes {
            attempted: 200,
            refused: 2,
            unavailable: 1,
            unanswered: 1,
            gates_failed: 1,
        };
        assert_eq!(o.failed(), 5);
        assert!((o.failed_ratio() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn failed_ratio_of_clean_run_is_zero() {
        let o = Outcomes {
            attempted: 10,
            ..Outcomes::default()
        };
        assert_eq!(o.failed_ratio(), 0.0);
        assert_eq!(Outcomes::default().failed_ratio(), 0.0);
    }

    #[test]
    fn failure_with_nothing_attempted_is_total() {
        let o = Outcomes {
            gates_failed: 1,
            ..Outcomes::default()
        };
        assert_eq!(o.failed_ratio(), 1.0);
    }

    #[test]
    fn residual_is_total_minus_layers() {
        let a = Accounting::new(100.0, &[30.0, 50.0]);
        assert_eq!(a.layers, 80.0);
        assert_eq!(a.residual, 20.0);
        assert!((a.covered() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn residual_is_never_clamped() {
        // Layers overshooting the total must show as a negative residual.
        let a = Accounting::new(100.0, &[70.0, 50.0]);
        assert_eq!(a.residual, -20.0);
        assert!((a.covered() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_relative_cost() {
        assert!((overhead(10.0, 10.5) - 0.05).abs() < 1e-12);
        assert!((overhead(10.0, 9.5) + 0.05).abs() < 1e-12);
        assert_eq!(overhead(0.0, 1.0), 0.0);
    }
}
