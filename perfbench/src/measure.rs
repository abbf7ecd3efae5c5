//! Percentile, timing and profit helpers shared by every workload.

use quts_qc::QualityContract;
use std::time::{Duration, Instant};

/// Percentiles tried, highest first, when reporting a tail.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// A tail percentile is reported only if at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon absorbs binary rounding, e.g. 99.9 % of 10,000 = 9,990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` for too few samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency distribution: sorted samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` (NaN-free by construction: they are durations).
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len().max(1) as f64
    }

    /// Nearest-rank percentile; 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }
}

/// A run's time origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// The origin: intended send times are offsets from it.
    pub t0: Instant,
}

impl Clock {
    /// The instant `us` microseconds after the origin.
    pub fn at(&self, us: u64) -> Instant {
        self.t0 + Duration::from_micros(us)
    }
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Client-side Quality-Contract accounting: each attempted query offers
/// its contract's maximum; an answered one earns its contract evaluated
/// on the client-observed latency and the reply's staleness, a failed one
/// earns nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Profit {
    /// Sum of `qosmax + qodmax` over attempted queries.
    pub offered: f64,
    /// QoS profit earned.
    pub qos: f64,
    /// QoD profit earned.
    pub qod: f64,
}

impl Profit {
    /// Adds an answered query.
    pub fn answered(&mut self, qc: &QualityContract, latency_ms: f64, uu: f64) {
        let (qos, qod) = qc.profit_split(latency_ms, uu);
        self.offered += qc.total_max();
        self.qos += qos;
        self.qod += qod;
    }

    /// Adds a failed, refused or lost query.
    pub fn failed(&mut self, qc: &QualityContract) {
        self.offered += qc.total_max();
    }

    /// `part` as a percentage of the profit offered.
    fn pct(&self, part: f64) -> f64 {
        if self.offered > 0.0 {
            100.0 * part / self.offered
        } else {
            0.0
        }
    }

    /// Total profit earned over offered, in percent.
    pub fn total_pct(&self) -> f64 {
        self.pct(self.qos + self.qod)
    }

    /// The QoS part of [`Profit::total_pct`].
    pub fn qos_pct(&self) -> f64 {
        self.pct(self.qos)
    }

    /// The QoD part of [`Profit::total_pct`].
    pub fn qod_pct(&self) -> f64 {
        self.pct(self.qod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.pct(50.0), 50.0);
        assert_eq!(d.pct(99.0), 99.0);
        assert_eq!(d.pct(100.0), 100.0);
        assert_eq!(d.pct(0.1), 1.0);
        assert_eq!(Dist::default().pct(99.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn client_profit_matches_the_contract_on_known_inputs() {
        let qc = QualityContract::step(30.0, 50.0, 20.0, 1);
        let cases = [
            // (latency ms, uu, qos, qod)
            (10.0, 0.0, 30.0, 20.0),
            (49.9, 0.0, 30.0, 20.0),
            (50.0, 0.0, 0.0, 20.0),
            (10.0, 1.0, 30.0, 0.0),
            (80.0, 3.0, 0.0, 0.0),
        ];
        let mut p = Profit::default();
        for (lat, uu, qos, qod) in cases {
            assert_eq!(qc.profit_split(lat, uu), (qos, qod));
            let mut one = Profit::default();
            one.answered(&qc, lat, uu);
            assert_eq!((one.qos, one.qod, one.offered), (qos, qod, 50.0));
            p.answered(&qc, lat, uu);
        }
        p.failed(&qc);
        assert_eq!(p.offered, 300.0);
        assert_eq!(p.qos, 90.0);
        assert_eq!(p.qod, 60.0);
        assert_eq!(p.total_pct(), 50.0);
        assert_eq!(p.qos_pct() + p.qod_pct(), p.total_pct());
    }

    #[test]
    fn linear_contracts_are_evaluated_not_rounded() {
        let qc = QualityContract::linear(40.0, 100.0, 10.0, 2);
        let mut p = Profit::default();
        p.answered(&qc, 25.0, 1.0);
        assert_eq!((p.qos, p.qod), qc.profit_split(25.0, 1.0));
        assert!(p.qos > 0.0 && p.qos < 40.0);
    }
}
