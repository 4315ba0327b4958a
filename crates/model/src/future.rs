//! Characterization of future applications (slide 10).
//!
//! At version `N` of the system the designer does not yet know the next
//! increment, but can characterize the *family* of applications likely to
//! be added:
//!
//! * `Tmin` — the smallest expected period of any future process graph;
//! * `tneed` — the processor time the most demanding future application is
//!   expected to need inside every interval of length `Tmin`;
//! * `bneed` — the bus time it is expected to need inside every `Tmin`;
//! * a histogram of typical process WCETs;
//! * a histogram of typical message sizes.
//!
//! [`FutureProfile`] carries this data; the C1 metric expands the
//! histograms into the *largest expected future application* via
//! [`FutureProfile::expected_process_runs`] (one `(size, count)` run
//! per distinct item size) or [`FutureProfile::expected_process_items`]
//! (the same items, one per process).

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A discrete probability histogram over values of type `V`.
///
/// Weights are relative (they need not sum to 1); they are normalized on
/// use. Used for "typical process WCET" and "typical message size"
/// distributions, mirroring the bar charts on slide 10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram<V> {
    bins: Vec<(V, f64)>,
}

/// Error building a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// No bins were supplied.
    Empty,
    /// A weight was negative, NaN, or all weights were zero.
    BadWeight,
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::Empty => write!(f, "histogram has no bins"),
            HistogramError::BadWeight => {
                write!(f, "histogram weights must be non-negative and not all zero")
            }
        }
    }
}

impl std::error::Error for HistogramError {}

impl<V: Copy> Histogram<V> {
    /// Creates a histogram from `(value, relative weight)` bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError`] if no bins are given, any weight is
    /// negative or NaN, or all weights are zero.
    pub fn new(bins: Vec<(V, f64)>) -> Result<Self, HistogramError> {
        if bins.is_empty() {
            return Err(HistogramError::Empty);
        }
        let mut total = 0.0;
        for &(_, w) in &bins {
            if w.is_nan() || w < 0.0 {
                return Err(HistogramError::BadWeight);
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(HistogramError::BadWeight);
        }
        Ok(Histogram { bins })
    }

    /// A single-bin histogram (the value is certain).
    pub fn point(value: V) -> Self {
        Histogram {
            bins: vec![(value, 1.0)],
        }
    }

    /// The bins as supplied.
    pub fn bins(&self) -> &[(V, f64)] {
        &self.bins
    }

    /// Normalized probability of each bin (sums to 1).
    pub fn probabilities(&self) -> Vec<(V, f64)> {
        let total: f64 = self.bins.iter().map(|&(_, w)| w).sum();
        self.bins.iter().map(|&(v, w)| (v, w / total)).collect()
    }

    /// Picks the bin for a uniform draw `u ∈ [0, 1)`.
    ///
    /// Deterministic given `u`; callers supply randomness. Out-of-range
    /// `u` clamps to the first/last bin.
    pub fn pick(&self, u: f64) -> V {
        let total: f64 = self.bins.iter().map(|&(_, w)| w).sum();
        let mut acc = 0.0;
        let target = u.clamp(0.0, 1.0) * total;
        for &(v, w) in &self.bins {
            acc += w;
            if target < acc {
                return v;
            }
        }
        self.bins.last().expect("histogram is non-empty").0
    }
}

impl Histogram<Time> {
    /// Expected value of a time-valued histogram, in fractional ticks.
    pub fn mean_time(&self) -> f64 {
        self.probabilities()
            .into_iter()
            .map(|(v, p)| v.as_f64() * p)
            .sum()
    }
}

impl Histogram<u32> {
    /// Expected value of a byte-size histogram.
    pub fn mean_value(&self) -> f64 {
        self.probabilities()
            .into_iter()
            .map(|(v, p)| v as f64 * p)
            .sum()
    }
}

/// The family profile of future applications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FutureProfile {
    /// Smallest expected period of a future process graph.
    pub t_min: Time,
    /// Processor time needed inside every `t_min` window.
    pub t_need: Time,
    /// Bus time needed inside every `t_min` window.
    pub b_need: Time,
    /// Typical process WCETs.
    pub wcet_hist: Histogram<Time>,
    /// Typical message sizes in bytes.
    pub msg_hist: Histogram<u32>,
}

impl FutureProfile {
    /// Creates a profile.
    pub fn new(
        t_min: Time,
        t_need: Time,
        b_need: Time,
        wcet_hist: Histogram<Time>,
        msg_hist: Histogram<u32>,
    ) -> Self {
        FutureProfile {
            t_min,
            t_need,
            b_need,
            wcet_hist,
            msg_hist,
        }
    }

    /// A profile matching the slide-10 example: WCETs of 20/50/100/150
    /// ticks with falling probability, message sizes of 2/4/6/8 bytes.
    pub fn slide_example() -> Self {
        FutureProfile {
            t_min: Time::new(120),
            t_need: Time::new(40),
            b_need: Time::new(10),
            wcet_hist: Histogram::new(vec![
                (Time::new(20), 0.40),
                (Time::new(50), 0.30),
                (Time::new(100), 0.20),
                (Time::new(150), 0.10),
            ])
            .expect("static bins are valid"),
            msg_hist: Histogram::new(vec![(2, 0.35), (4, 0.30), (6, 0.20), (8, 0.15)])
                .expect("static bins are valid"),
        }
    }

    /// The process items of the *largest expected future application* that
    /// must fit into a horizon of length `horizon` (usually the
    /// hyperperiod): total execution demand `t_need * (horizon / t_min)`,
    /// split into pieces drawn deterministically from the WCET histogram
    /// in proportion to bin probability (largest first).
    ///
    /// Returned as `(size, count)` runs of strictly decreasing size, the
    /// form the C1 packer takes; [`expected_process_items`] expands the
    /// same runs into one item per process.
    ///
    /// [`expected_process_items`]: FutureProfile::expected_process_items
    pub fn expected_process_runs(&self, horizon: Time) -> Vec<(Time, u64)> {
        let windows = horizon.ticks() / self.t_min.ticks().max(1);
        let total = self.t_need.ticks().saturating_mul(windows.max(1));
        demand_runs(&self.wcet_hist.probabilities(), total)
    }

    /// [`expected_process_runs`](FutureProfile::expected_process_runs),
    /// one item per process: the object list handed to the C1
    /// bin-packer.
    pub fn expected_process_items(&self, horizon: Time) -> Vec<Time> {
        expand_runs(&self.expected_process_runs(horizon))
    }

    /// Message items (as bus-occupancy times) of the largest expected
    /// future application over `horizon`, sized so their *count* matches
    /// the process count roughly 1:1 with the histogram mix, as
    /// `(size, count)` runs of strictly decreasing size.
    ///
    /// `bus_time_of` converts a message size to slot time; the items
    /// total `b_need * (horizon / t_min)`. Sizes whose bus times
    /// coincide share one run.
    pub fn expected_message_runs(
        &self,
        horizon: Time,
        mut bus_time_of: impl FnMut(u32) -> Time,
    ) -> Vec<(Time, u64)> {
        let windows = horizon.ticks() / self.t_min.ticks().max(1);
        let total = self.b_need.ticks().saturating_mul(windows.max(1));
        let time_bins: Vec<(Time, f64)> = self
            .msg_hist
            .probabilities()
            .into_iter()
            .map(|(bytes, p)| (bus_time_of(bytes), p))
            .collect();
        demand_runs(&time_bins, total)
    }

    /// [`expected_message_runs`](FutureProfile::expected_message_runs),
    /// one item per message.
    pub fn expected_message_items(
        &self,
        horizon: Time,
        bus_time_of: impl FnMut(u32) -> Time,
    ) -> Vec<Time> {
        expand_runs(&self.expected_message_runs(horizon, bus_time_of))
    }
}

/// Splits `total` into items drawn from weighted bins, proportionally to
/// bin probability, deterministic, largest items first, as `(size,
/// count)` runs: each bin contributes `share / size` items of its size,
/// where `share` is its rounded part of `total`, and the smallest size
/// tops the sum up to at least `total`. Bins of equal size merge into
/// one run. Returns no runs when `total` is 0.
fn demand_runs(bins: &[(Time, f64)], total: u64) -> Vec<(Time, u64)> {
    if total == 0 {
        return Vec::new();
    }
    // Sort bins by size descending so big items come first
    // (best-fit-decreasing friendly) and drop zero sizes.
    let mut sorted: Vec<(u64, f64)> = bins
        .iter()
        .map(|&(v, p)| (v.ticks(), p))
        .filter(|&(t, p)| t > 0 && p > 0.0)
        .collect();
    sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)));
    let Some(&(smallest, _)) = sorted.last() else {
        return Vec::new();
    };
    let psum: f64 = sorted.iter().map(|&(_, p)| p).sum();
    let mut runs: Vec<(Time, u64)> = Vec::with_capacity(sorted.len());
    let mut push = |size: u64, count: u64| match runs.last_mut() {
        _ if count == 0 => {}
        Some((s, n)) if s.ticks() == size => *n += count,
        _ => runs.push((Time::new(size), count)),
    };
    let mut emitted = 0u64;
    for &(val, p) in &sorted {
        // Time share of this bin.
        let share = (total as f64 * (p / psum)).round() as u64;
        let count = share / val;
        push(val, count);
        emitted = emitted.saturating_add(count * val);
    }
    // Top up with the smallest size until the demand is covered.
    push(smallest, total.saturating_sub(emitted).div_ceil(smallest));
    runs
}

/// One item per unit of every `(size, count)` run, in run order.
fn expand_runs(runs: &[(Time, u64)]) -> Vec<Time> {
    runs.iter()
        .flat_map(|&(size, count)| std::iter::repeat_n(size, count as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{BusConfig, PeId, Round, Slot};
    use proptest::prelude::*;

    /// The per-item expansion the runs replaced, kept as the oracle:
    /// one push per item, each bin's count and the top-up found by
    /// repeated addition.
    fn expand_items_oracle(bins: &[(Time, f64)], total: u64) -> Vec<Time> {
        if total == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<(u64, f64)> = bins
            .iter()
            .map(|&(v, p)| (v.ticks(), p))
            .filter(|&(t, p)| t > 0 && p > 0.0)
            .collect();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)));
        if sorted.is_empty() {
            return Vec::new();
        }
        let psum: f64 = sorted.iter().map(|&(_, p)| p).sum();
        let mut items = Vec::new();
        let mut emitted = 0u64;
        for &(val, p) in &sorted {
            let share = (total as f64 * (p / psum)).round() as u64;
            let count = share / val;
            for _ in 0..count {
                items.push(Time::new(val));
                emitted += val;
            }
        }
        let smallest = sorted.last().expect("nonempty").0;
        while emitted < total {
            items.push(Time::new(smallest));
            emitted += smallest;
        }
        items
    }

    /// The demand `expected_*_items` split over `horizon`.
    fn demand(need: Time, t_min: Time, horizon: Time) -> u64 {
        let windows = horizon.ticks() / t_min.ticks().max(1);
        need.ticks().saturating_mul(windows.max(1))
    }

    /// Runs are well formed: sizes strictly decreasing, no empty run.
    fn assert_canonical(runs: &[(Time, u64)]) {
        assert!(runs.iter().all(|&(_, n)| n > 0), "{runs:?}");
        assert!(runs.windows(2).all(|w| w[0].0 > w[1].0), "{runs:?}");
    }

    fn bus(bytes_per_tick: u32) -> BusConfig {
        BusConfig::new(
            vec![Round::new(vec![Slot::new(PeId(0), Time::new(10))])],
            bytes_per_tick,
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The arithmetic runs expand to exactly the oracle's items, in
        /// the oracle's order, for processes and for messages — whose
        /// byte sizes often share a bus time at higher rates.
        #[test]
        fn runs_expand_to_the_per_item_oracle(
            wcets in proptest::collection::vec((0u64..240, 0.0f64..1.0), 1..6),
            sizes in proptest::collection::vec((0u32..48, 0.0f64..1.0), 1..6),
            t_min in 0u64..400,
            t_need in 0u64..120,
            b_need in 0u64..60,
            horizon in 0u64..2400,
            rate in 1u32..12,
        ) {
            let wcet_bins: Vec<(Time, f64)> =
                wcets.iter().map(|&(v, w)| (Time::new(v), w)).collect();
            let (Ok(wcet_hist), Ok(msg_hist)) =
                (Histogram::new(wcet_bins), Histogram::new(sizes))
            else {
                return Ok(()); // all-zero weights: not a histogram
            };
            let p = FutureProfile::new(
                Time::new(t_min),
                Time::new(t_need),
                Time::new(b_need),
                wcet_hist,
                msg_hist,
            );
            let h = Time::new(horizon);
            let bus = bus(rate);
            let to_bus = |bytes: u32| bus.transmission_time(bytes);

            let runs = p.expected_process_runs(h);
            assert_canonical(&runs);
            let oracle = expand_items_oracle(
                &p.wcet_hist.probabilities(),
                demand(p.t_need, p.t_min, h),
            );
            prop_assert_eq!(expand_runs(&runs), oracle.clone());
            prop_assert_eq!(p.expected_process_items(h), oracle);

            let runs = p.expected_message_runs(h, to_bus);
            assert_canonical(&runs);
            let msg_bins: Vec<(Time, f64)> = p
                .msg_hist
                .probabilities()
                .into_iter()
                .map(|(bytes, w)| (to_bus(bytes), w))
                .collect();
            let oracle = expand_items_oracle(&msg_bins, demand(p.b_need, p.t_min, h));
            prop_assert_eq!(expand_runs(&runs), oracle.clone());
            prop_assert_eq!(p.expected_message_items(h, to_bus), oracle);
        }
    }

    #[test]
    fn colliding_bus_times_share_one_run() {
        let mut p = FutureProfile::slide_example();
        // At 8 bytes per tick every size of 2/4/6/8 bytes takes 1 tick.
        p.b_need = Time::new(7);
        let runs = p.expected_message_runs(Time::new(120), |b| bus(8).transmission_time(b));
        assert_eq!(runs, vec![(Time::new(1), 7)]);
    }

    #[test]
    fn histogram_rejects_bad_input() {
        assert_eq!(
            Histogram::<u32>::new(vec![]).unwrap_err(),
            HistogramError::Empty
        );
        assert_eq!(
            Histogram::new(vec![(1u32, -0.5)]).unwrap_err(),
            HistogramError::BadWeight
        );
        assert_eq!(
            Histogram::new(vec![(1u32, 0.0)]).unwrap_err(),
            HistogramError::BadWeight
        );
        assert_eq!(
            Histogram::new(vec![(1u32, f64::NAN)]).unwrap_err(),
            HistogramError::BadWeight
        );
    }

    #[test]
    fn histogram_probabilities_normalize() {
        let h = Histogram::new(vec![(10u32, 1.0), (20, 3.0)]).unwrap();
        let p = h.probabilities();
        assert!((p[0].1 - 0.25).abs() < 1e-12);
        assert!((p[1].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_pick_boundaries() {
        let h = Histogram::new(vec![(1u32, 1.0), (2, 1.0)]).unwrap();
        assert_eq!(h.pick(0.0), 1);
        assert_eq!(h.pick(0.49), 1);
        assert_eq!(h.pick(0.51), 2);
        assert_eq!(h.pick(0.999), 2);
        // Clamped out-of-range draws.
        assert_eq!(h.pick(-1.0), 1);
        assert_eq!(h.pick(2.0), 2);
    }

    #[test]
    fn histogram_point_and_means() {
        let h = Histogram::point(Time::new(50));
        assert_eq!(h.pick(0.7), Time::new(50));
        assert!((h.mean_time() - 50.0).abs() < 1e-12);
        let m = Histogram::new(vec![(2u32, 1.0), (6, 1.0)]).unwrap();
        assert!((m.mean_value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn expected_items_cover_demand() {
        let p = FutureProfile::slide_example();
        // horizon = 4 windows of t_min=120 → demand 4*40 = 160 ticks.
        let items = p.expected_process_items(Time::new(480));
        let sum: u64 = items.iter().map(|t| t.ticks()).sum();
        assert!(sum >= 160, "items sum {sum} must cover demand 160");
        // No item should exceed the largest histogram bin.
        assert!(items.iter().all(|t| t.ticks() <= 150));
        // Items are emitted largest-first.
        let mut sorted = items.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(items, sorted);
    }

    #[test]
    fn expected_items_zero_horizon_window() {
        let p = FutureProfile::slide_example();
        // horizon < t_min: one window still assumed.
        let items = p.expected_process_items(Time::new(60));
        let sum: u64 = items.iter().map(|t| t.ticks()).sum();
        assert!(sum >= 40);
    }

    #[test]
    fn expected_items_zero_need() {
        let mut p = FutureProfile::slide_example();
        p.t_need = Time::ZERO;
        assert!(p.expected_process_items(Time::new(480)).is_empty());
    }

    #[test]
    fn expected_message_items_use_conversion() {
        let p = FutureProfile::slide_example();
        // 1 window, b_need = 10 ticks; bus time = bytes (1 byte/tick).
        let items = p.expected_message_items(Time::new(120), |bytes| Time::new(bytes as u64));
        let sum: u64 = items.iter().map(|t| t.ticks()).sum();
        assert!(sum >= 10);
        assert!(items.iter().all(|t| t.ticks() <= 8));
    }

    #[test]
    fn serde_round_trip() {
        let p = FutureProfile::slide_example();
        let json = serde_json::to_string(&p).unwrap();
        let back: FutureProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
