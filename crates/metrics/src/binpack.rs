//! Bin packing of future-application items into slack containers.
//!
//! The paper computes the C1 metrics with a "bin-packing algorithm using
//! the best-fit policy: processes as objects to be packed, and the slack
//! as containers". First-fit and worst-fit are provided as ablation
//! baselines.
//!
//! [`pack`] is the indexed reference packer: one item at a time, in
//! decreasing size order, into containers kept in their given order.
//! [`CapacityHistogram::pack_totals`] computes the same totals for
//! best-fit and worst-fit from the container lengths counted in a
//! histogram, moving every container of one length at once, with no
//! sort per call or per item run; the C1 engine
//! ([`crate::C1Cache`]) packs that way.

use incdes_model::Time;
use serde::{Deserialize, Serialize};

/// Which bin an item is placed into among those it fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitPolicy {
    /// The fitting bin with the *least* remaining capacity (paper default).
    BestFit,
    /// The first fitting bin in container order.
    FirstFit,
    /// The fitting bin with the *most* remaining capacity.
    WorstFit,
}

/// Result of a packing run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackOutcome {
    /// For each item (in the order given): the container index it was
    /// packed into, or `None` if it did not fit anywhere.
    pub placement: Vec<Option<usize>>,
    /// Total size of packed items.
    pub packed: Time,
    /// Total size of items that did not fit.
    pub unpacked: Time,
    /// Remaining capacity of every container after packing.
    pub remaining: Vec<Time>,
}

impl PackOutcome {
    /// Fraction (in percent) of total item size left unpacked; 0 if there
    /// were no items.
    pub fn unpacked_percent(&self) -> f64 {
        unpacked_percent(self.packed, self.unpacked)
    }
}

/// Percentage of total item size left unpacked (0 if there were none),
/// shared by [`PackOutcome`] and the C1 cache so that equal integer
/// totals give bit-equal floats.
pub(crate) fn unpacked_percent(packed: Time, unpacked: Time) -> f64 {
    let total = packed + unpacked;
    if total.is_zero() {
        0.0
    } else {
        100.0 * unpacked.as_f64() / total.as_f64()
    }
}

/// Packs `items` into `containers` (given as capacities) with `policy`,
/// considering items in decreasing size order (best-fit-decreasing when
/// combined with [`FitPolicy::BestFit`]).
///
/// Zero-sized items are "packed" trivially (they consume nothing);
/// zero-capacity containers never receive anything.
pub fn pack(items: &[Time], containers: &[Time], policy: FitPolicy) -> PackOutcome {
    let mut remaining: Vec<Time> = containers.to_vec();
    let mut placement: Vec<Option<usize>> = vec![None; items.len()];

    // Indices of items sorted by decreasing size (stable for determinism).
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[b].cmp(&items[a]).then(a.cmp(&b)));

    let mut packed = Time::ZERO;
    let mut unpacked = Time::ZERO;
    for idx in order {
        let size = items[idx];
        if size.is_zero() {
            placement[idx] = Some(usize::MAX); // marker: trivially packed
            continue;
        }
        let candidate = match policy {
            FitPolicy::BestFit => remaining
                .iter()
                .enumerate()
                .filter(|&(_, &cap)| cap >= size)
                .min_by_key(|&(i, &cap)| (cap, i))
                .map(|(i, _)| i),
            FitPolicy::FirstFit => remaining.iter().position(|&cap| cap >= size),
            FitPolicy::WorstFit => remaining
                .iter()
                .enumerate()
                .filter(|&(_, &cap)| cap >= size)
                .max_by(|&(i, &a), &(j, &b)| a.cmp(&b).then(j.cmp(&i)))
                .map(|(i, _)| i),
        };
        match candidate {
            Some(bin) => {
                remaining[bin] -= size;
                placement[idx] = Some(bin);
                packed += size;
            }
            None => {
                unpacked += size;
            }
        }
    }
    // Normalize the zero-size marker to container 0 when possible, else None.
    for p in placement.iter_mut() {
        if *p == Some(usize::MAX) {
            *p = if containers.is_empty() { None } else { Some(0) };
        }
    }
    PackOutcome {
        placement,
        packed,
        unpacked,
        remaining,
    }
}

/// `items` as `(size, count)` runs in decreasing size order: the item
/// form [`CapacityHistogram::pack_totals`] takes. Expected future applications are drawn
/// from a few-point WCET histogram, so thousands of items collapse into
/// a handful of runs (the C1 engine takes those runs straight from
/// `FutureProfile::expected_process_runs`).
pub fn item_runs(items: &[Time]) -> Vec<(Time, u64)> {
    let mut sorted = items.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut runs: Vec<(Time, u64)> = Vec::new();
    for size in sorted {
        match runs.last_mut() {
            Some((s, n)) if *s == size => *n += 1,
            _ => runs.push((size, 1)),
        }
    }
    runs
}

/// Container capacities counted by length: the form [`pack_totals`]
/// packs into.
///
/// `counts[c]` holds the number of containers of exactly `c` ticks, and
/// bit `c` of `bits` is set iff that count is non-zero, so the packer
/// steps from one non-empty length to the next a 64-bit word at a time.
/// Zero-length containers are not recorded: no item of positive size
/// fits one, and zero-size items pack trivially. Both arrays are dense
/// up to the longest length the histogram was [`reset`] for and are
/// kept across resets, so a caller packing many times allocates once,
/// and a reset clears only the lengths that are set.
///
/// [`pack_totals`]: CapacityHistogram::pack_totals
/// [`reset`]: CapacityHistogram::reset
#[derive(Debug, Clone, Default)]
pub struct CapacityHistogram {
    /// Containers per length, indexed by ticks.
    counts: Vec<u32>,
    /// One bit per length: set iff its count is non-zero.
    bits: Vec<u64>,
    /// The longest length the last reset allows.
    max_len: u64,
    /// Words of `bits` covering `0..=max_len`.
    words: usize,
}

impl CapacityHistogram {
    /// The longest container a histogram takes, in ticks; the counts
    /// cost four bytes per tick of the longest length in use.
    /// [`reset`](Self::reset) refuses longer ones, and the caller packs
    /// with [`pack`] instead.
    pub const MAX_LEN: u64 = 1 << 20;

    /// An empty histogram.
    pub fn new() -> Self {
        CapacityHistogram::default()
    }

    /// Empties the histogram and sizes it for containers of up to
    /// `max_len` ticks. Returns `false`, leaving it empty and refusing
    /// every container, when `max_len` exceeds [`Self::MAX_LEN`].
    pub fn reset(&mut self, max_len: Time) -> bool {
        for w in 0..self.words {
            let mut word = std::mem::take(&mut self.bits[w]);
            while word != 0 {
                self.counts[w * 64 + word.trailing_zeros() as usize] = 0;
                word &= word - 1;
            }
        }
        let max_len = max_len.ticks();
        if max_len > Self::MAX_LEN {
            self.max_len = 0;
            self.words = 0;
            return false;
        }
        let len = max_len as usize + 1;
        self.max_len = max_len;
        self.words = len.div_ceil(64);
        if self.counts.len() < len {
            self.counts.resize(len, 0);
        }
        if self.bits.len() < self.words {
            self.bits.resize(self.words, 0);
        }
        true
    }

    /// Adds one container of `len` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the `max_len` of the last
    /// [`reset`](Self::reset).
    pub fn add(&mut self, len: Time) {
        assert!(
            len.ticks() <= self.max_len,
            "container of {len} ticks is longer than the histogram's {}",
            self.max_len
        );
        self.put(len.ticks(), 1);
    }

    /// The capacities held, ascending (zeros are not held).
    #[cfg(test)]
    fn capacities(&self) -> Vec<Time> {
        let mut caps = Vec::new();
        for (w, &bits) in self.bits[..self.words].iter().enumerate() {
            let mut word = bits;
            while word != 0 {
                let c = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let n = self.counts[c] as usize;
                caps.extend(std::iter::repeat_n(Time::new(c as u64), n));
            }
        }
        caps
    }

    /// Adds `n` containers of length `len`; zero lengths are dropped.
    fn put(&mut self, len: u64, n: u64) {
        if len == 0 || n == 0 {
            return;
        }
        let c = len as usize;
        self.counts[c] += n as u32;
        self.bits[c >> 6] |= 1 << (c & 63);
    }

    /// Removes `n` of the containers of length `len`.
    fn take(&mut self, len: u64, n: u64) {
        let c = len as usize;
        self.counts[c] -= n as u32;
        if self.counts[c] == 0 {
            self.bits[c >> 6] &= !(1 << (c & 63));
        }
    }

    /// The largest length held in `bits[..*words]`, lowering `*words`
    /// past empty words on the way.
    fn largest(&self, words: &mut usize) -> Option<u64> {
        while *words > 0 {
            let word = self.bits[*words - 1];
            if word != 0 {
                return Some(((*words as u64 - 1) << 6) | u64::from(63 - word.leading_zeros()));
            }
            *words -= 1;
        }
        None
    }

    /// Packing totals of [`pack`] for items given as [`item_runs`],
    /// packed into the containers held: on return the histogram holds
    /// the remaining capacities.
    ///
    /// Returns `(packed, unpacked)`, exactly the totals [`pack`] reports
    /// for the same items and containers: best-fit picks the smallest
    /// capacity ≥ size and worst-fit the largest, so the multiset of
    /// remaining capacities evolves identically to [`pack`]'s —
    /// index-order tie-breaks select *which* equal-capacity container
    /// receives an item, never the totals. First-fit totals *do* depend
    /// on container order, which a multiset cannot represent: the call
    /// returns `None` and the caller must fall back to [`pack`].
    ///
    /// Both policies move all containers of one length at once, so a
    /// run costs the lengths and bitmap words it passes, whatever its
    /// item count. **Best-fit:** once an item of size `s` lands in the
    /// smallest fitting length `c`, its residual `c − s` is below `c`,
    /// so it is the smallest fitting capacity for the next item
    /// whenever it fits at all. Per-item best-fit therefore fills one
    /// container of length `c` with `q = ⌊c/s⌋` items, then the next:
    /// the `n` containers of that length go to `c − q·s` (below `s`, so
    /// no later item of the run fits there), except a last one that
    /// takes the run's final `r < q` items and goes to `c − r·s`. One
    /// run walks the set lengths from `s` upward. **Worst-fit:** the
    /// `n` containers of the largest length `c` each take one item
    /// (every residual `c − s` is below `c`), so a step moves up to `n`
    /// containers from `c` to `c − s`.
    ///
    /// `runs` must be sorted by decreasing size ([`pack`] considers
    /// items that way); zero-sized items pack trivially and consume
    /// nothing.
    pub fn pack_totals(&mut self, runs: &[(Time, u64)], policy: FitPolicy) -> Option<(Time, Time)> {
        if matches!(policy, FitPolicy::FirstFit) {
            return None;
        }
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 >= w[1].0),
            "runs must be sorted decreasing"
        );
        let mut packed = Time::ZERO;
        let mut unpacked = Time::ZERO;
        let mut top = self.words;
        for &(size, count) in runs {
            if size.is_zero() {
                continue;
            }
            let s = size.ticks();
            let mut left = count;
            match policy {
                FitPolicy::BestFit => {
                    let mut w = (s >> 6) as usize;
                    let mut word = match self.bits[..self.words].get(w) {
                        Some(&bits) => bits & (u64::MAX << (s & 63)),
                        None => 0,
                    };
                    // Every length a step writes is below the one it
                    // reads, so the copy of the current word stays
                    // exact for the lengths still ahead.
                    while left > 0 {
                        if word == 0 {
                            w += 1;
                            if w >= self.words {
                                break;
                            }
                            word = self.bits[w];
                            continue;
                        }
                        let c = ((w as u64) << 6) | u64::from(word.trailing_zeros());
                        word &= word - 1;
                        let n = u64::from(self.counts[c as usize]);
                        let q = c / s;
                        let full = n.min(left / q);
                        left -= full * q;
                        self.take(c, full);
                        self.put(c - q * s, full);
                        if full < n && left > 0 {
                            self.take(c, 1);
                            self.put(c - left * s, 1);
                            left = 0;
                        }
                    }
                }
                FitPolicy::WorstFit => {
                    // Lengths only shrink, so the top word never rises.
                    while left > 0 {
                        let Some(c) = self.largest(&mut top).filter(|&c| c >= s) else {
                            break;
                        };
                        let moved = u64::from(self.counts[c as usize]).min(left);
                        self.take(c, moved);
                        self.put(c - s, moved);
                        left -= moved;
                    }
                }
                FitPolicy::FirstFit => unreachable!("rejected above"),
            }
            packed += size * (count - left);
            unpacked += size * left;
        }
        Some((packed, unpacked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn ts(vs: &[u64]) -> Vec<Time> {
        vs.iter().copied().map(Time::new).collect()
    }

    #[test]
    fn everything_fits_one_big_bin() {
        let out = pack(&ts(&[3, 5, 2]), &ts(&[20]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
        assert_eq!(out.packed, t(10));
        assert_eq!(out.remaining, vec![t(10)]);
        assert_eq!(out.unpacked_percent(), 0.0);
        assert!(out.placement.iter().all(|p| *p == Some(0)));
    }

    #[test]
    fn best_fit_prefers_tight_bin() {
        // Item 5 fits bins of 6 and 10 → best-fit picks 6.
        let out = pack(&ts(&[5]), &ts(&[10, 6]), FitPolicy::BestFit);
        assert_eq!(out.placement, vec![Some(1)]);
        assert_eq!(out.remaining, vec![t(10), t(1)]);
    }

    #[test]
    fn first_fit_takes_first() {
        let out = pack(&ts(&[5]), &ts(&[10, 6]), FitPolicy::FirstFit);
        assert_eq!(out.placement, vec![Some(0)]);
    }

    #[test]
    fn worst_fit_takes_roomiest() {
        let out = pack(&ts(&[5]), &ts(&[6, 10]), FitPolicy::WorstFit);
        assert_eq!(out.placement, vec![Some(1)]);
    }

    #[test]
    fn decreasing_order_packs_better() {
        // Classic case: items 6,5,4,3 into bins 9,9. Decreasing order
        // packs (6,3) and (5,4); increasing/greedy could fail.
        let out = pack(&ts(&[3, 4, 5, 6]), &ts(&[9, 9]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
    }

    #[test]
    fn overflow_reported() {
        let out = pack(&ts(&[8, 8]), &ts(&[10]), FitPolicy::BestFit);
        assert_eq!(out.packed, t(8));
        assert_eq!(out.unpacked, t(8));
        assert!((out.unpacked_percent() - 50.0).abs() < 1e-12);
        assert_eq!(out.placement.iter().filter(|p| p.is_none()).count(), 1);
    }

    #[test]
    fn no_containers() {
        let out = pack(&ts(&[4, 2]), &[], FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(6));
        assert_eq!(out.unpacked_percent(), 100.0);
        assert_eq!(out.placement, vec![None, None]);
    }

    #[test]
    fn no_items() {
        let out = pack(&[], &ts(&[5]), FitPolicy::BestFit);
        assert_eq!(out.unpacked_percent(), 0.0);
        assert_eq!(out.packed, t(0));
    }

    #[test]
    fn zero_sized_items_trivially_packed() {
        let out = pack(&ts(&[0, 3]), &ts(&[3]), FitPolicy::BestFit);
        assert_eq!(out.unpacked, t(0));
        assert_eq!(out.placement[0], Some(0));
        assert_eq!(out.remaining, vec![t(0)]);
    }

    #[test]
    fn best_fit_beats_or_ties_worst_fit_here() {
        // Items (decreasing) 5,3,3 into bins {6,5}: best-fit puts the 5
        // into the 5-bin and both 3s into the 6-bin; worst-fit burns the
        // 6-bin on the 5 and strands the last 3.
        let items = ts(&[5, 3, 3]);
        let bins = ts(&[6, 5]);
        let best = pack(&items, &bins, FitPolicy::BestFit);
        let worst = pack(&items, &bins, FitPolicy::WorstFit);
        assert_eq!(best.unpacked, t(0));
        assert_eq!(worst.unpacked, t(3));
    }

    /// [`CapacityHistogram::pack_totals`] on `items` / `bins` must
    /// report [`pack`]'s totals and leave its non-zero remaining
    /// capacities (as a multiset). `hist` is reused across calls, so a
    /// length a previous call left set would show here.
    fn assert_batched_matches(
        hist: &mut CapacityHistogram,
        items: &[u64],
        bins: &[u64],
        policy: FitPolicy,
    ) {
        let items = ts(items);
        let bins = ts(bins);
        let reference = pack(&items, &bins, policy);
        assert!(hist.reset(bins.iter().copied().max().unwrap_or(Time::ZERO)));
        for &c in &bins {
            hist.add(c);
        }
        let (packed, unpacked) = hist
            .pack_totals(&item_runs(&items), policy)
            .expect("multiset policy");
        assert_eq!((packed, unpacked), (reference.packed, reference.unpacked));
        let mut remaining: Vec<Time> = reference
            .remaining
            .into_iter()
            .filter(|c| !c.is_zero())
            .collect();
        remaining.sort_unstable();
        assert_eq!(
            hist.capacities(),
            remaining,
            "remaining capacities diverged"
        );
    }

    #[test]
    fn batched_edge_cases_match_pack() {
        let cases: [(&[u64], &[u64]); 7] = [
            // Capacities that are exact multiples of the item size.
            (&[4; 9], &[8, 12, 16]),
            // A run longer than all remaining capacity.
            (&[5; 20], &[10, 7, 12]),
            // A run that ends mid-container, then a smaller run that
            // must find the residual before any fresh container.
            (&[6, 6, 6, 2, 2, 2, 2, 2], &[20, 9]),
            (&[7, 7, 3, 3, 3], &[15, 15]),
            // Zero-sized items and zero-capacity containers.
            (&[0, 0, 3, 3, 0], &[0, 3, 0, 4]),
            (&[0, 0], &[0]),
            (&[0, 5], &[]),
        ];
        let mut hist = CapacityHistogram::new();
        for (items, bins) in cases {
            assert_batched_matches(&mut hist, items, bins, FitPolicy::BestFit);
            assert_batched_matches(&mut hist, items, bins, FitPolicy::WorstFit);
        }
    }

    /// Lengths past a 64-bit word boundary, and a reset to a shorter
    /// maximum after a pack that left long residuals set.
    #[test]
    fn histogram_crosses_words_and_resets_shorter() {
        let mut hist = CapacityHistogram::new();
        assert_batched_matches(
            &mut hist,
            &[70, 70, 65, 64, 63, 5, 5, 1],
            &[200, 140, 129, 128, 127, 64, 63],
            FitPolicy::BestFit,
        );
        assert_batched_matches(&mut hist, &[3, 3, 2], &[4, 4, 3], FitPolicy::BestFit);
        assert_batched_matches(
            &mut hist,
            &[70, 70, 65, 64, 63, 5, 5, 1],
            &[200, 140, 129, 128, 127, 64, 63],
            FitPolicy::WorstFit,
        );
        assert_batched_matches(&mut hist, &[3, 3, 2], &[4, 4, 3], FitPolicy::WorstFit);
    }

    /// A maximum above [`CapacityHistogram::MAX_LEN`] is refused (the
    /// caller falls back to [`pack`]) and leaves the histogram empty.
    #[test]
    fn histogram_refuses_overlong_containers() {
        let mut hist = CapacityHistogram::new();
        assert!(hist.reset(t(10)));
        hist.add(t(10));
        assert!(!hist.reset(t(CapacityHistogram::MAX_LEN + 1)));
        assert!(hist.capacities().is_empty());
        assert_eq!(
            hist.pack_totals(&[(t(1), 2)], FitPolicy::BestFit),
            Some((t(0), t(2)))
        );
        assert!(hist.reset(t(CapacityHistogram::MAX_LEN)));
    }

    proptest! {
        /// Conservation: packed + unpacked equals the item total, and
        /// remaining capacities never go negative or exceed originals.
        #[test]
        fn prop_conservation(
            items in proptest::collection::vec(0u64..50, 0..30),
            bins in proptest::collection::vec(0u64..80, 0..15),
            policy in prop_oneof![
                Just(FitPolicy::BestFit),
                Just(FitPolicy::FirstFit),
                Just(FitPolicy::WorstFit)
            ],
        ) {
            let items = ts(&items);
            let bins_t = ts(&bins);
            let out = pack(&items, &bins_t, policy);
            let total: Time = items.iter().copied().sum();
            prop_assert_eq!(out.packed + out.unpacked, total);
            for (i, &rem) in out.remaining.iter().enumerate() {
                prop_assert!(rem <= bins_t[i]);
            }
            // Per-bin usage equals capacity - remaining.
            let mut used = vec![Time::ZERO; bins.len()];
            for (idx, p) in out.placement.iter().enumerate() {
                if let Some(b) = p {
                    if !items[idx].is_zero() {
                        used[*b] += items[idx];
                    }
                }
            }
            for (i, &u) in used.iter().enumerate() {
                prop_assert_eq!(u, bins_t[i] - out.remaining[i]);
            }
        }

        /// The batched totals are *exactly* the indexed packer's totals
        /// for best-fit and worst-fit (the policies whose totals are a
        /// pure function of the capacity multiset), and the consumed
        /// capacities are the packer's remainders — the contract the
        /// C1 cache is built on.
        #[test]
        fn prop_multiset_totals_match_pack(
            items in proptest::collection::vec(0u64..50, 0..30),
            bins in proptest::collection::vec(0u64..80, 0..15),
            best in 0u8..2,
        ) {
            let policy = if best == 0 { FitPolicy::BestFit } else { FitPolicy::WorstFit };
            assert_batched_matches(&mut CapacityHistogram::new(), &items, &bins, policy);
        }

        /// Long runs of equal-sized items (the shape of the expanded
        /// future profiles, where one best-fit step fills a container
        /// with many items) still produce exactly the indexed packer's
        /// totals — also into capacities that are exact multiples of
        /// the run's size, which a batched step fills to exactly zero.
        #[test]
        fn prop_multiset_batching_matches_pack(
            size in 1u64..12,
            run in 1usize..60,
            extra in proptest::collection::vec(0u64..50, 0..8),
            bins in proptest::collection::vec(0u64..80, 0..12),
            multiples in proptest::collection::vec(0u64..6, 0..6),
            best in 0u8..2,
        ) {
            let policy = if best == 0 { FitPolicy::BestFit } else { FitPolicy::WorstFit };
            let mut items: Vec<u64> = vec![size; run];
            items.extend(extra);
            let mut bins = bins;
            bins.extend(multiples.iter().map(|m| m * size));
            assert_batched_matches(&mut CapacityHistogram::new(), &items, &bins, policy);
        }

        /// The histogram packer against [`pack`] on capacities built
        /// to hit its edge cases: duplicates from a small pool,
        /// capacities equal to the run's size, exact multiples of it
        /// and one tick either side, items larger than every container
        /// and zero-size items. One histogram packs twice, so the
        /// second pack also checks that a reset cleared the first.
        #[test]
        fn prop_histogram_matches_pack_on_edge_capacities(
            size in 1u64..12,
            run in 0usize..40,
            kinds in proptest::collection::vec((0u8..5, 0u64..6), 0..24),
            zeros in 0usize..3,
            oversized in 0usize..3,
            second in proptest::collection::vec(0u64..30, 0..10),
            best in 0u8..2,
        ) {
            let policy = if best == 0 { FitPolicy::BestFit } else { FitPolicy::WorstFit };
            let bins: Vec<u64> = kinds
                .iter()
                .map(|&(kind, m)| match kind {
                    0 => size,
                    1 => m * size,
                    2 => m * size + 1,
                    3 => (m * size).saturating_sub(1),
                    _ => 7 + m % 3,
                })
                .collect();
            let top = bins.iter().copied().max().unwrap_or(0);
            let mut items = vec![size; run];
            items.extend(std::iter::repeat_n(top + 1 + size, oversized));
            items.extend(std::iter::repeat_n(0, zeros));
            items.extend(kinds.iter().map(|&(_, m)| m + 1));
            let mut hist = CapacityHistogram::new();
            assert_batched_matches(&mut hist, &items, &bins, policy);
            assert_batched_matches(&mut hist, &[size, size, 1], &second, policy);
        }

        /// First-fit is order-dependent: the multiset path refuses it.
        #[test]
        fn prop_multiset_rejects_first_fit(bins in proptest::collection::vec(1u64..10, 0..5)) {
            let mut hist = CapacityHistogram::new();
            hist.reset(t(10));
            for &c in &bins {
                hist.add(t(c));
            }
            prop_assert!(hist.pack_totals(&[(t(1), 1)], FitPolicy::FirstFit).is_none());
        }

        /// Best-fit-decreasing never leaves an item unpacked if some bin
        /// could still hold it.
        #[test]
        fn prop_no_fitting_item_stranded(
            items in proptest::collection::vec(1u64..50, 1..25),
            bins in proptest::collection::vec(1u64..80, 1..10),
        ) {
            let items = ts(&items);
            let bins_t = ts(&bins);
            let out = pack(&items, &bins_t, FitPolicy::BestFit);
            for (idx, p) in out.placement.iter().enumerate() {
                if p.is_none() {
                    let max_rem = out.remaining.iter().copied().max().unwrap();
                    prop_assert!(items[idx] > max_rem,
                        "item {} of size {} stranded with max remaining {}",
                        idx, items[idx], max_rem);
                }
            }
        }
    }
}
