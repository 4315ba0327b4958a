//! Bin packing of future-application items into slack containers.
//!
//! The paper computes the C1 metrics with a "bin-packing algorithm using
//! the best-fit policy: processes as objects to be packed, and the slack
//! as containers". First-fit and worst-fit are provided as ablation
//! baselines.

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
/// form [`pack_totals`] takes. Expected future applications are drawn
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

/// Packing totals of [`pack`] for items given as [`item_runs`], computed
/// against the capacity *multiset* `caps`. The call sorts `caps` and
/// packs into it destructively: on return it holds the remaining
/// capacities, sorted. `residuals` is scratch space whose contents are
/// overwritten (a caller packing many times keeps one allocation).
///
/// Returns `(packed, unpacked)`, exactly the totals [`pack`] reports
/// for the same items and containers: best-fit picks the smallest
/// capacity ≥ size and worst-fit the largest, so the multiset of
/// remaining capacities evolves identically to [`pack`]'s — index-order
/// tie-breaks select *which* equal-capacity container receives an item,
/// never the totals. First-fit totals *do* depend on container order,
/// which a multiset cannot represent: the call returns `None` and the
/// caller must fall back to [`pack`].
///
/// Best-fit is batched. Once an item of size `s` lands in capacity `c`
/// (the smallest that fits), the residual `c − s` is smaller than `c`,
/// so it is the best fit for the next item of the run whenever it fits
/// at all: per-item best-fit gives `c` exactly `q = min(count, ⌊c/s⌋)`
/// items in a row, then moves on to the next larger capacity, and the
/// residual `c − q·s` fits no further item of the run unless the run
/// ends inside `c`. So one run walks the capacities from the first that
/// fits, once, collecting each residual (no division when `c < 2s`,
/// where `q` is 1). The walked capacities are then replaced by their
/// residuals: the residuals are sorted and merged into the smaller,
/// untouched capacities in one backward pass, which leaves the same
/// sorted array that per-item best-fit would. A run costs
/// `O(containers below the run's size + k log k)` for `k` containers
/// touched, instead of `O(items × log bins)`. Worst-fit stays per item.
///
/// `runs` must be sorted by decreasing size ([`pack`] considers items
/// that way); zero-sized items pack trivially and consume nothing.
pub fn pack_totals(
    runs: &[(Time, u64)],
    caps: &mut [Time],
    residuals: &mut Vec<Time>,
    policy: FitPolicy,
) -> Option<(Time, Time)> {
    if matches!(policy, FitPolicy::FirstFit) {
        return None;
    }
    debug_assert!(
        runs.windows(2).all(|w| w[0].0 >= w[1].0),
        "runs must be sorted decreasing"
    );
    caps.sort_unstable();
    let mut packed = Time::ZERO;
    let mut unpacked = Time::ZERO;
    for &(size, count) in runs {
        if size.is_zero() {
            continue;
        }
        let mut left = count;
        match policy {
            FitPolicy::BestFit => {
                // `caps[..fit]` are smaller than `size`; walk the
                // capacities from `fit` until the run is used up.
                let fit = caps.partition_point(|&c| c < size);
                residuals.clear();
                for &c in &caps[fit..] {
                    if left == 0 {
                        break;
                    }
                    let q = if c - size < size {
                        1
                    } else {
                        left.min(c.ticks() / size.ticks())
                    };
                    left -= q;
                    residuals.push(c - size * q);
                }
                merge_residuals(caps, fit, residuals);
            }
            FitPolicy::WorstFit => {
                // Worst fit = the largest capacity, the last element.
                while left > 0 {
                    let Some((&c, rest)) = caps.split_last() else {
                        break;
                    };
                    if c < size {
                        break;
                    }
                    let rem = c - size;
                    let at = rest.partition_point(|&x| x < rem);
                    caps[at..].rotate_right(1);
                    caps[at] = rem;
                    left -= 1;
                }
            }
            FitPolicy::FirstFit => unreachable!("rejected above"),
        }
        packed += size * (count - left);
        unpacked += size * left;
    }
    Some((packed, unpacked))
}

/// Replaces the capacities `caps[fit..fit + residuals.len()]` that one
/// best-fit run walked by their `residuals`, keeping `caps` sorted:
/// sorts the residuals, then merges them with the untouched sorted
/// prefix `caps[..fit]` from the back, writing into the walked range's
/// end. Every residual is below its capacity, so the capacities after
/// the walked range stay the largest.
fn merge_residuals(caps: &mut [Time], fit: usize, residuals: &mut [Time]) {
    residuals.sort_unstable();
    let (mut i, mut k) = (fit, residuals.len());
    while k > 0 {
        // Writes land at `i + k - 1`, at or after every unread prefix
        // element.
        if i > 0 && caps[i - 1] > residuals[k - 1] {
            caps[i + k - 1] = caps[i - 1];
            i -= 1;
        } else {
            caps[i + k - 1] = residuals[k - 1];
            k -= 1;
        }
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

    /// [`pack_totals`] on `items` / `bins` must report [`pack`]'s
    /// totals and leave its remaining capacities (as a multiset).
    fn assert_batched_matches(items: &[u64], bins: &[u64], policy: FitPolicy) {
        let items = ts(items);
        let mut caps = ts(bins);
        let reference = pack(&items, &caps, policy);
        let (packed, unpacked) =
            pack_totals(&item_runs(&items), &mut caps, &mut Vec::new(), policy)
                .expect("multiset policy");
        assert_eq!((packed, unpacked), (reference.packed, reference.unpacked));
        let mut remaining = reference.remaining;
        remaining.sort_unstable();
        assert_eq!(caps, remaining, "remaining capacities diverged");
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
        for (items, bins) in cases {
            assert_batched_matches(items, bins, FitPolicy::BestFit);
            assert_batched_matches(items, bins, FitPolicy::WorstFit);
        }
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
            assert_batched_matches(&items, &bins, policy);
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
            assert_batched_matches(&items, &bins, policy);
        }

        /// First-fit is order-dependent: the multiset path refuses it.
        #[test]
        fn prop_multiset_rejects_first_fit(bins in proptest::collection::vec(1u64..10, 0..5)) {
            prop_assert!(
                pack_totals(&[(t(1), 1)], &mut ts(&bins), &mut Vec::new(), FitPolicy::FirstFit)
                    .is_none()
            );
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
