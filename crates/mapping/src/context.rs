//! Evaluation context shared by all mapping strategies.
//!
//! [`MappingContext::evaluate`] is the strategies' inner loop, called
//! thousands of times per scenario. It runs on the incremental
//! evaluation engine of `incdes_sched::engine`:
//!
//! * the frozen schedule is replayed and validated **once** into an
//!   `Arc<FrozenBase>` — built lazily on the first evaluation, or
//!   injected pre-built via
//!   [`MappingContext::with_frozen_base`] so the campaign runner's
//!   per-step contexts share one bake per system state;
//! * a persistent [`Scheduler`] reuses its scratch arenas (job records,
//!   ready heap, per-graph priority cache) across evaluations;
//! * **delta scheduling**: the context keeps the solution keys of the
//!   last [`RECORD_CACHE_CAP`] raw schedules next to the scheduler's
//!   fingerprint-keyed record cache. When a candidate differs from
//!   *any* of those recorded solutions by at most
//!   [`DELTA_MAX_CHANGED_VARS`] design variables (the single-move
//!   neighbors MH and SA explore, plus the two-move distance between
//!   consecutive trials proposed from one pivot), the engine splices
//!   from the record with the **smallest diff** — an A→B→A revisit
//!   chain splices B→A from A's own record with a near-zero suffix
//!   instead of undoing everything B touched. Delta only engages after
//!   [`DELTA_MIN_CHAIN`] raw schedules: shorter runs (AH's
//!   two-candidate probes) can never amortize the record bookkeeping.
//!   See the decision rules in `incdes_sched::engine`;
//! * the slack profiles are `Arc`-backed, so untouched resources alias
//!   the frozen base's (or the previous evaluation's) gap lists, and
//!   the per-resource C2 terms ([`incdes_metrics::C2Cache`]) are cached
//!   **by storage identity**: an aliased gap list is never re-measured,
//!   and a gap list that *did* change re-measures only the `t_min`
//!   windows its diff span intersects. C1 ([`incdes_metrics::C1Cache`])
//!   keeps the future items as `(size, count)` runs and batch-packs
//!   them into the containers, gathered afresh on every call;
//! * a solution-fingerprint memo returns previously evaluated design
//!   alternatives without re-scheduling, so SA's revisited states and
//!   MH's widening rounds skip duplicate schedules;
//! * the search is **table-free**: a raw schedule yields the current
//!   application's placements in step order, and the memo, IM, MH and
//!   SA score and compare those. The canonical `ScheduleTable` (one sort
//!   of the placements merged with the frozen base's pre-sorted jobs and
//!   messages) is built only for a design a caller receives — the public
//!   [`MappingContext::evaluate`] and a strategy's final result — and
//!   never by re-scheduling.
//!
//! [`MappingContext::evaluation_count`] keeps its historical meaning —
//! every [`evaluate`](MappingContext::evaluate) call counts, memo hit or
//! not — while [`MappingContext::raw_schedule_count`] reports how many
//! schedules were actually executed and
//! [`MappingContext::delta_schedule_count`] how many of those took the
//! delta path. Two reference pipelines are retained as oracles for
//! differential tests and the `figures bench-eval` measurements:
//! [`MappingContext::with_naive_evaluation`] (one-shot `schedule()` +
//! `SlackProfile::from_table` + `objective::evaluate`, no reuse at all)
//! and [`MappingContext::with_full_evaluation`] (the PR 4 engine: base +
//! scratch reuse + memo, but every raw schedule re-places all jobs).

use crate::solution::Solution;
use incdes_graph::{EdgeId, NodeId};
use incdes_metrics::objective::{self, DesignCost, Weights};
use incdes_metrics::{C1Cache, C2Cache};
use incdes_model::{AppId, Application, Architecture, FutureProfile, PeId, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_sched::engine::{check_horizon, ChangedVar, FrozenBase, Scheduler, RECORD_CACHE_CAP};
use incdes_sched::{
    schedule, AppSpec, PeTimeline, Placements, SchedError, ScheduleTable, SlackProfile,
};
use incdes_tdma::BusTimeline;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// How a mapping strategy parallelizes trial evaluation within one
/// scenario.
///
/// The contract of [`SearchParallelism::Parallel`] is that `threads`
/// only multiplexes *execution*: every search-visible result — the
/// accepted MH move, the solutions and costs, `evaluation_count()`, the
/// iteration counts, every campaign report — is byte-identical for any
/// thread count ≥ 1. Batch evaluation reduces candidates in
/// candidate-index order, SA runs a fixed number of chains (set by
/// `sa_chains`, not by `threads`) with per-chain deterministic RNG
/// streams, and worker engines evaluate against the shared
/// `Arc<FrozenBase>` on the full (splice-free) path so no counter
/// depends on how candidates were partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchParallelism {
    /// The historical single-threaded path: candidates are evaluated one
    /// by one on the context's own engine (memo + delta splicing). The
    /// default; behaves exactly as before this type existed.
    Sequential,
    /// Deterministic parallel in-scenario search.
    Parallel {
        /// Worker threads for MH candidate batches and SA chain
        /// multiplexing. Clamped to ≥ 1; `1` runs the identical batch
        /// semantics inline.
        threads: usize,
        /// Dispatched batches with fewer deduped candidates than this
        /// run on the single inline worker instead of spawning
        /// threads — same batch protocol, same bytes, no per-batch
        /// thread-spawn cost that used to swamp small-system MH
        /// batches. `0` (the serde default, so old specs keep their
        /// key) means [`SearchParallelism::DEFAULT_BATCH_CUTOVER`].
        /// Like `threads`, this multiplexes execution only and is
        /// normalized out of campaign fingerprints.
        #[serde(default)]
        batch_cutover: usize,
        /// Number of concurrent SA chains (per-chain ChaCha8 streams,
        /// periodic best-exchange). Clamped to ≥ 1; `1` keeps the
        /// classic single-chain SA.
        sa_chains: usize,
        /// Proposals each SA chain runs between best-exchange barriers.
        /// Clamped to ≥ 1.
        sa_exchange_period: usize,
    },
}

impl Default for SearchParallelism {
    fn default() -> Self {
        SearchParallelism::Sequential
    }
}

impl SearchParallelism {
    /// Default [`batch_cutover`](SearchParallelism::Parallel::batch_cutover):
    /// below ~16 deduped misses the per-batch `thread::scope` spawn
    /// costs more than the evaluations it parallelizes.
    pub const DEFAULT_BATCH_CUTOVER: usize = 16;

    /// Parallel candidate evaluation over `n` threads with the classic
    /// single-chain SA (the configuration the `INCDES_SEARCH_THREADS`
    /// differential-CI hook uses).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        SearchParallelism::Parallel {
            threads: n.max(1),
            batch_cutover: 0,
            sa_chains: 1,
            sa_exchange_period: 64,
        }
    }

    /// The effective small-batch cutover: the configured value, with
    /// `0` resolved to [`Self::DEFAULT_BATCH_CUTOVER`].
    #[must_use]
    pub fn effective_batch_cutover(&self) -> usize {
        match *self {
            SearchParallelism::Sequential => 0,
            SearchParallelism::Parallel {
                batch_cutover: 0, ..
            } => Self::DEFAULT_BATCH_CUTOVER,
            SearchParallelism::Parallel { batch_cutover, .. } => batch_cutover,
        }
    }
}

/// Deterministic worker count for one dispatched miss batch: one
/// worker per job up to `threads`, capped at the machine's available
/// parallelism (oversubscribing a batch of schedules onto fewer cores
/// only adds context switches), and collapsed to the inline worker for
/// batches below `cutover`. Pure so the rule is unit-testable; only
/// wall-clock depends on it — results and counters are identical for
/// every return value ≥ 1 by the batch-protocol contract.
fn batch_worker_count(threads: usize, jobs: usize, cutover: usize, hw: usize) -> usize {
    if jobs < cutover {
        1
    } else {
        threads.min(jobs).min(hw.max(1)).max(1)
    }
}

/// Process-wide default parallelism, for differential CI runs:
/// `INCDES_SEARCH_THREADS=N` makes every context built without an
/// explicit [`MappingContext::with_parallelism`] evaluate MH batches
/// over `N` threads (SA stays single-chain so strategy results keep
/// their sequential trajectories). Unset or `0` means sequential; an
/// unparsable value warns once on stderr and is ignored.
fn env_parallelism() -> SearchParallelism {
    static CACHE: OnceLock<SearchParallelism> = OnceLock::new();
    *CACHE.get_or_init(|| {
        match incdes_obs::diag::env_usize(
            "INCDES_SEARCH_THREADS",
            "expected a thread count (0 or unset = sequential)",
        ) {
            Some(0) | None => SearchParallelism::Sequential,
            Some(n) => SearchParallelism::threads(n),
        }
    })
}

/// Error from a mapping strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The application has no processes to map.
    EmptyApplication,
    /// No feasible design alternative was found (requirement *a* cannot be
    /// met on this system within the strategy's search budget).
    Infeasible {
        /// The scheduler error of the last attempt.
        last: SchedError,
    },
    /// The inputs are malformed (bad horizon, disallowed PE in a caller-
    /// provided mapping, ...).
    InvalidInput(SchedError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::EmptyApplication => write!(f, "application has no processes"),
            MapError::Infeasible { last } => {
                write!(
                    f,
                    "no feasible mapping found (last scheduler error: {last})"
                )
            }
            MapError::InvalidInput(e) => write!(f, "invalid mapping input: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A fully evaluated design alternative.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The complete schedule (frozen applications + current application).
    pub table: ScheduleTable,
    /// The slack profile of that schedule.
    pub slack: SlackProfile,
    /// The objective-function value.
    pub cost: DesignCost,
}

/// A scored design alternative as the search loops keep it: the cost,
/// the slack profile and the current application's placements — every
/// part of an [`Evaluation`] except the merged table, which
/// [`MappingContext::materialize`] builds for the designs a caller
/// receives. Cloning is a handful of reference-count bumps.
#[derive(Debug, Clone)]
pub(crate) struct Scored {
    /// The objective-function value.
    pub(crate) cost: DesignCost,
    /// The slack profile of the design's schedule.
    pub(crate) slack: SlackProfile,
    /// The current application's jobs (step order) and messages.
    pub(crate) placements: Placements,
}

/// Upper bound on memoized design alternatives. When the memo fills up
/// the stale half is evicted (entries whose last hit is at or below the
/// median stamp): SA and MH revisit *recent* states, so the LRU-ish
/// policy keeps the hit rate high while capping the memory spent on
/// memo entries (cost, slack and placements) — and, unlike a wholesale
/// clear, it keeps the recently raw-scheduled predecessors resident,
/// coherent with the scheduler's record cache.
const MEMO_CAP: usize = 512;

/// Minimum number of raw schedules in a context's lifetime before the
/// delta-splice path engages. A two-evaluation probe (AH scoring each
/// PE once) pays the record bookkeeping on the first run and then never
/// amortizes it; short chains take the plain full-engine path.
pub const DELTA_MIN_CHAIN: usize = 3;

/// Canonical identity of a design alternative: the full mapping plus all
/// non-zero hints, in deterministic order. Two solutions with the same
/// key produce byte-identical schedules, so memo hits are exact (no
/// hashing-collision risk — the key stores the actual design variables,
/// and the hash only routes to a bucket). Doubling as the predecessor
/// snapshot the delta gate diffs against.
///
/// Stored flat: every variable is one `(word, value)` pair, with the
/// three sections (mapping entries, process gap hints, message slot
/// hints) back to back at the `split` boundaries. The word packs
/// `graph << 32 | node-or-edge`, which preserves the per-section
/// `(graph, index)` sort order, so the delta diff is a single-word
/// two-pointer walk and the whole key is one contiguous allocation —
/// one clone per memo miss, one memcmp-shaped compare per probe.
#[derive(Debug, Default, PartialEq, Eq)]
struct MemoKey {
    items: Vec<(u64, u32)>,
    split: [u32; 2],
}

impl Clone for MemoKey {
    fn clone(&self) -> Self {
        MemoKey {
            items: self.items.clone(),
            split: self.split,
        }
    }

    // The predecessor snapshot is refreshed on every raw schedule;
    // reusing its allocation keeps that free.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
        self.split = source.split;
    }
}

/// Packs a per-graph variable index into one order-preserving word.
/// Graph counts are bounded far below `u32::MAX` by memory alone; the
/// assert documents the losslessness the exact-hit contract relies on.
#[inline]
fn pack_var(graph: usize, index: u32) -> u64 {
    debug_assert!(graph <= u32::MAX as usize);
    ((graph as u64) << 32) | index as u64
}

impl MemoKey {
    /// Refills the key in place from `solution`, reusing the one
    /// vector allocation — the key build runs once per evaluation
    /// (hit or miss), so the engine keeps one scratch key alive
    /// instead of allocating here.
    fn assign(&mut self, solution: &Solution) {
        self.items.clear();
        self.items.extend(
            solution
                .mapping
                .iter()
                .map(|(pr, pe)| (pack_var(pr.graph, pr.node.0), pe.0)),
        );
        self.split[0] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .proc_gaps()
                .map(|(pr, gap)| (pack_var(pr.graph, pr.node.0), gap)),
        );
        self.split[1] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .msg_slots()
                .map(|(mr, slot)| (pack_var(mr.graph, mr.edge.0), slot)),
        );
    }

    fn mapping(&self) -> &[(u64, u32)] {
        &self.items[..self.split[0] as usize]
    }

    fn proc_gaps(&self) -> &[(u64, u32)] {
        &self.items[self.split[0] as usize..self.split[1] as usize]
    }

    fn msg_slots(&self) -> &[(u64, u32)] {
        &self.items[self.split[1] as usize..]
    }
}

/// A memoized evaluation with the clock tick of its last hit, for the
/// LRU-ish eviction at [`MEMO_CAP`].
#[derive(Debug)]
struct MemoEntry {
    result: Result<Scored, SchedError>,
    stamp: u64,
}

/// The solution memo, bucketed by the 64-bit solution fingerprint —
/// the same FxHash of the full key that routes the scheduler's record
/// cache. One fingerprint computation per evaluation serves bucket
/// routing, in-batch duplicate detection *and* keyed splicing, where
/// the old `HashMap<MemoKey, _>` re-hashed the full key on every probe
/// and again on insert. Buckets store the exact keys, so a hit still
/// compares the actual design variables: a fingerprint collision only
/// costs a short in-bucket scan, never a wrong answer.
#[derive(Debug, Default)]
struct Memo {
    buckets: HashMap<u64, Vec<(MemoKey, MemoEntry)>, FxBuild>,
    entries: usize,
}

impl Memo {
    fn len(&self) -> usize {
        self.entries
    }

    fn get_mut(&mut self, fp: u64, key: &MemoKey) -> Option<&mut MemoEntry> {
        self.buckets
            .get_mut(&fp)?
            .iter_mut()
            .find_map(|(k, e)| (k == key).then_some(e))
    }

    fn insert(&mut self, fp: u64, key: MemoKey, entry: MemoEntry) {
        self.buckets.entry(fp).or_default().push((key, entry));
        self.entries += 1;
    }

    #[cfg(test)]
    fn contains(&self, fp: u64, key: &MemoKey) -> bool {
        self.buckets
            .get(&fp)
            .is_some_and(|b| b.iter().any(|(k, _)| k == key))
    }

    /// Last-hit stamps of every entry, in arbitrary order (eviction
    /// input).
    fn stamps(&self) -> Vec<u64> {
        self.buckets
            .values()
            .flatten()
            .map(|(_, e)| e.stamp)
            .collect()
    }

    fn retain(&mut self, mut keep: impl FnMut(&MemoKey, &MemoEntry) -> bool) {
        let mut kept = 0;
        self.buckets.retain(|_, bucket| {
            bucket.retain(|(k, e)| keep(k, e));
            kept += bucket.len();
            !bucket.is_empty()
        });
        self.entries = kept;
    }
}

/// The solution fingerprint shared with the scheduler's record cache:
/// the FxHash of the full memo key. Collisions are harmless — the
/// engine recomputes the exact divergence against any record it picks,
/// so a wrong `prefer` only costs a longer splice, never a wrong
/// schedule.
fn fingerprint(key: &MemoKey) -> u64 {
    let mut h = FxHasher::default();
    h.add(((key.split[0] as u64) << 32) | key.split[1] as u64);
    h.add(key.items.len() as u64);
    for &(word, value) in &key.items {
        h.add(word);
        h.add(value as u64);
    }
    h.finish()
}

/// The FxHash mix (Firefox/rustc's default internal hasher): the memo
/// keys are trusted program state, not attacker input, so the DoS
/// resistance of SipHash buys nothing here and its cost is paid on
/// every evaluation.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Largest number of changed design variables (mapping entries + gap
/// hints + slot hints, counted as a symmetric difference) for which the
/// delta-scheduling path is attempted. A remap touches at most two
/// variables (the mapping entry plus its reset gap hint), so 4 covers
/// two design transformations — the distance between consecutive SA/MH
/// trials proposed from one pivot solution (undo the rejected move,
/// apply the next). Larger diffs take the full-engine path.
pub const DELTA_MAX_CHANGED_VARS: usize = 4;

/// Walks the symmetric difference of two sorted key→value slices,
/// invoking `on_diff` for every differing key; gives up (returns
/// `false`) as soon as more than `cap` differences accumulate in
/// `count`. A plain two-pointer walk: the solution-ranking loop calls
/// this up to `3 × RECORD_CACHE_CAP` times per raw schedule, so the
/// per-element cost is on the strategy critical path.
fn sym_diff<K: Ord + Copy, V: PartialEq>(
    a: &[(K, V)],
    b: &[(K, V)],
    cap: usize,
    count: &mut usize,
    mut on_diff: impl FnMut(K),
) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, va) = &a[i];
        let (kb, vb) = &b[j];
        let k = match ka.cmp(kb) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                if va == vb {
                    continue;
                }
                *ka
            }
            std::cmp::Ordering::Less => {
                i += 1;
                *ka
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                *kb
            }
        };
        *count += 1;
        if *count > cap {
            return false;
        }
        on_diff(k);
    }
    for &(k, _) in a[i..].iter().chain(&b[j..]) {
        *count += 1;
        if *count > cap {
            return false;
        }
        on_diff(k);
    }
    true
}

/// Collects the design variables differing between two solution keys
/// into `vars` (sorted, deduplicated, ready for
/// `Scheduler::schedule_delta_hinted_with_slack`). Returns the raw
/// symmetric-difference count — the exact number
/// [`count_key_delta`] would report, *before* deduplication — or
/// `None` (leaving `vars` unspecified) when more than `cap` variables
/// differ; the caller then takes the full-engine path. Returning the
/// count lets the ranking loop seed its branch-and-bound bound from
/// this walk instead of counting the front record a second time. Both
/// keys store their variables sorted, so this is a linear slice walk.
fn collect_key_delta(
    prev: &MemoKey,
    cur: &MemoKey,
    cap: usize,
    vars: &mut Vec<ChangedVar>,
) -> Option<usize> {
    vars.clear();
    let mut count = 0usize;
    let proc_var = |word: u64| ChangedVar::Proc {
        spec: 0,
        graph: (word >> 32) as usize,
        node: NodeId(word as u32),
    };
    if !sym_diff(prev.mapping(), cur.mapping(), cap, &mut count, |k| {
        vars.push(proc_var(k))
    }) {
        return None;
    }
    if !sym_diff(prev.proc_gaps(), cur.proc_gaps(), cap, &mut count, |k| {
        vars.push(proc_var(k))
    }) {
        return None;
    }
    if !sym_diff(
        prev.msg_slots(),
        cur.msg_slots(),
        cap,
        &mut count,
        |word: u64| {
            vars.push(ChangedVar::Msg {
                spec: 0,
                graph: (word >> 32) as usize,
                edge: EdgeId(word as u32),
            })
        },
    ) {
        return None;
    }
    // A remap and its hint reset touch the same process twice; the
    // engine wants each variable once, in expansion order.
    vars.sort_unstable();
    vars.dedup();
    Some(count)
}

/// Count-only twin of [`collect_key_delta`]: the number of differing
/// design variables between two solution keys, or `None` when more than
/// `cap` differ. Used to rank the recorded solutions as splice sources
/// without materializing their variable lists.
fn count_key_delta(prev: &MemoKey, cur: &MemoKey, cap: usize) -> Option<usize> {
    let mut count = 0usize;
    let ok = sym_diff(prev.mapping(), cur.mapping(), cap, &mut count, |_| {})
        && sym_diff(prev.proc_gaps(), cur.proc_gaps(), cap, &mut count, |_| {})
        && sym_diff(prev.msg_slots(), cur.msg_slots(), cap, &mut count, |_| {});
    ok.then_some(count)
}

/// The per-context evaluation engine state: baked frozen base, scheduler
/// scratch, objective-term caches and the solution memo.
#[derive(Debug, Default)]
struct EvalEngine {
    /// Lazily built (or injected) frozen base, shared via `Arc` when the
    /// caller reuses one bake across contexts.
    base: Option<Result<Arc<FrozenBase>, SchedError>>,
    scheduler: Scheduler,
    memo: Memo,
    /// Monotone clock stamping memo hits, for the LRU-ish eviction.
    memo_clock: u64,
    /// Reused key allocation for the per-evaluation memo probe.
    key_scratch: MemoKey,
    /// Keys of the most recent raw schedules, most recent first — the
    /// context-side mirror of the scheduler's record cache. The front
    /// entry is the solution the scheduler's job arena currently
    /// describes (the arena-patch diff target); the best-diff entry
    /// names the splice source via its fingerprint. The two caches may
    /// drift (the scheduler evicts by its own stamps): a `prefer`
    /// fingerprint the scheduler no longer holds silently falls back to
    /// its live record, which is always correct.
    recent: Vec<(u64, MemoKey)>,
    /// Per-resource C2 terms with window-level incremental updates:
    /// aliased gap lists hit by storage identity, changed lists
    /// re-measure only the `t_min` windows their diff span intersects.
    c2: C2Cache,
    /// C1 item runs and container scratch for the batched packer.
    c1: C1Cache,
    /// Scratch for the collected solution diff (no per-eval allocation).
    vars_scratch: Vec<ChangedVar>,
}

/// Records a raw schedule of `key` (fingerprint `fp`) in the recency
/// list: the chosen splice source (if any) is bumped ahead of the LRU
/// tail first — a run of rejected trials must not evict the pivot they
/// all splice from — then the current key takes the front slot,
/// recycling the evicted entry's allocations.
fn note_raw_schedule(
    recent: &mut Vec<(u64, MemoKey)>,
    fp: u64,
    key: &MemoKey,
    chosen: Option<u64>,
) {
    if let Some(pf) = chosen.filter(|&pf| pf != fp) {
        if let Some(i) = recent.iter().position(|&(f, _)| f == pf) {
            if i > 0 {
                let e = recent.remove(i);
                recent.insert(0, e);
            }
        }
    }
    if let Some(i) = recent.iter().position(|&(f, _)| f == fp) {
        let mut e = recent.remove(i);
        e.1.clone_from(key);
        recent.insert(0, e);
    } else if recent.len() >= RECORD_CACHE_CAP {
        let mut e = recent.pop().expect("len checked");
        e.0 = fp;
        e.1.clone_from(key);
        recent.insert(0, e);
    } else {
        recent.insert(0, (fp, key.clone()));
    }
}

impl EvalEngine {
    /// The frozen base, baked on first use unless one was injected.
    fn base(&mut self, scene: &Scene<'_>) -> Result<&Arc<FrozenBase>, SchedError> {
        self.base
            .get_or_insert_with(|| {
                FrozenBase::new(scene.arch, scene.frozen, scene.horizon).map(Arc::new)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// LRU-ish memo eviction at [`MEMO_CAP`]: drop the stale half
    /// (entries whose last hit is at or below the median stamp) —
    /// *except* entries still named by the `recent` record-cache
    /// mirror. Those keys are the predecessor snapshots the delta gate
    /// diffs candidates against and the fingerprints the scheduler can
    /// still splice from; evicting one silently degrades its keyed
    /// splices to the live-record fallback, so every cached-record
    /// fingerprint stays answerable after eviction.
    fn evict_if_full(&mut self) {
        if self.memo.len() < MEMO_CAP {
            return;
        }
        let mut stamps = self.memo.stamps();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        let EvalEngine { memo, recent, .. } = self;
        let before = memo.len();
        memo.retain(|k, e| e.stamp > cutoff || recent.iter().any(|(_, rk)| rk == k));
        counters::add(Counter::MemoEvictions, (before - memo.len()) as u64);
    }
}

/// The immutable, thread-shareable view of one evaluation problem: the
/// architecture, the current application, the frozen schedule and the
/// objective inputs. Everything behind these references is plain data
/// (the workspace forbids interior mutability below `mapping`), so a
/// `Scene` can be handed to scoped worker threads while each worker
/// keeps its own private [`EvalEngine`] scratch.
#[derive(Clone, Copy)]
struct Scene<'a> {
    arch: &'a Architecture,
    app_id: AppId,
    app: &'a Application,
    frozen: Option<&'a ScheduleTable>,
    horizon: Time,
    future: &'a FutureProfile,
    weights: &'a Weights,
}

/// The three evaluation counters, grouped so the engine functions can
/// take one `&mut` and SA chains can merge their tallies back in chain
/// order.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    evaluations: usize,
    raw_schedules: usize,
    memo_hits: usize,
}

/// Scheduler diagnostics absorbed from worker/chain engines (the main
/// context's accessors add these to its own scheduler's counts).
#[derive(Debug, Default, Clone, Copy)]
struct SchedDiag {
    delta_schedules: usize,
    spliced_steps: usize,
    replayed_steps: usize,
}

/// The objective terms of a freshly scheduled slack profile, through the
/// given engine's identity-keyed C2 cache and its C1 item runs. Shared
/// by the main evaluation path and the parallel batch workers — both
/// caches are behavior-transparent, so whichever engine scores a
/// solution produces bit-identical costs.
fn score_slack(
    scene: &Scene<'_>,
    c2: &mut C2Cache,
    c1: &mut C1Cache,
    slack: &SlackProfile,
) -> DesignCost {
    let _objective = phase::scope(Phase::Objective);
    let t_min = scene.future.t_min;
    c2.set_pe_count(slack.pe_count());
    let mut c2p = Time::ZERO;
    for i in 0..slack.pe_count() {
        let shared = slack.gaps_shared(PeId(i as u32));
        c2p += c2.pe_term(i, shared, scene.horizon, t_min);
    }
    let c2m = c2.bus_term(slack.bus_windows_shared(), scene.horizon, t_min);
    objective::evaluate_with_c1_delta(scene.arch, slack, scene.future, scene.weights, c2p, c2m, c1)
}

/// One memoized engine evaluation (the body of
/// [`MappingContext::evaluate`], factored over an explicit engine +
/// counter pair so SA portfolio chains can run it on their private
/// engines).
fn engine_evaluate(
    scene: &Scene<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    full_engine: bool,
    solution: &Solution,
) -> Result<Scored, SchedError> {
    let lookup_scope = phase::scope(Phase::Memo);
    let mut key = std::mem::take(&mut engine.key_scratch);
    key.assign(solution);
    let fp = fingerprint(&key);
    engine.memo_clock += 1;
    let stamp = engine.memo_clock;
    if let Some(hit) = engine.memo.get_mut(fp, &key) {
        hit.stamp = stamp;
        counts.memo_hits += 1;
        counters::bump(Counter::MemoHits);
        let result = hit.result.clone();
        engine.key_scratch = key;
        return result;
    }
    drop(lookup_scope);
    let result = engine_evaluate_raw(scene, engine, counts, full_engine, solution, &key, fp);
    let _store_scope = phase::scope(Phase::Memo);
    engine.evict_if_full();
    engine.memo.insert(
        fp,
        key.clone(),
        MemoEntry {
            result: result.clone(),
            stamp,
        },
    );
    engine.key_scratch = key;
    counters::bump(Counter::MemoInserts);
    result
}

/// One full engine evaluation (memo miss) — the body of the historical
/// `MappingContext::evaluate_raw`.
fn engine_evaluate_raw(
    scene: &Scene<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    full_engine: bool,
    solution: &Solution,
    key: &MemoKey,
    fp: u64,
) -> Result<Scored, SchedError> {
    // Spec assembly and validation are the delta machinery's
    // front-end, like expansion inside the engine: charge them to the
    // splice phase (closed before the engine call so its own splice
    // scope never nests).
    let setup_scope = phase::scope(Phase::Splice);
    let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
    // Validated before the base is consulted so error precedence
    // matches the naive pipeline exactly.
    check_horizon(&[spec], scene.horizon)?;
    drop(setup_scope);
    let EvalEngine {
        base,
        scheduler,
        recent,
        c2,
        c1,
        vars_scratch,
        ..
    } = engine;
    let base = base.get_or_insert_with(|| {
        FrozenBase::new(scene.arch, scene.frozen, scene.horizon).map(Arc::new)
    });
    let base = match base {
        Ok(b) => b,
        Err(e) => return Err(e.clone()),
    };
    counts.raw_schedules += 1;

    // Delta gate: once the chain is long enough to amortize record
    // bookkeeping, rank every recorded solution by its diff against
    // the candidate and splice from the closest one (ties favor the
    // most recent). A revisit chain A→B→A finds A's own record at
    // distance ~0. Everything else (short chains, big jumps,
    // `with_full_evaluation`) resets from the base. Records enter
    // the scheduler's cache by promotion: the first trial that
    // names a solution as its predecessor snapshots the live
    // record before the run replaces it.
    let ranking_scope = phase::scope(Phase::Splice);
    let mut best: Option<(usize, usize)> = None;
    let mut front_delta_ok = false;
    if !full_engine && counts.raw_schedules >= DELTA_MIN_CHAIN {
        // The job arena still describes the *front* (most recent) key,
        // so the patch hint must diff against it no matter which record
        // wins the ranking below. One collecting walk serves both
        // purposes: `collect_key_delta` reports the same raw
        // symmetric-difference count `count_key_delta` would, so
        // seeding the ranking with it leaves the winner unchanged
        // while sparing the front record a second full-length walk.
        if let Some((front_fp, front_key)) = recent.first() {
            if let Some(diff) =
                collect_key_delta(front_key, key, DELTA_MAX_CHANGED_VARS, vars_scratch)
            {
                front_delta_ok = true;
                best = Some((diff, 0));
            }
            if *front_fp == fp {
                // Bit-identical revisit (usually one the memo evicted,
                // or a failed-run retry): distance zero by definition.
                // A fingerprint collision would only pick a farther
                // predecessor — splicing stays correct for any choice.
                best = Some((0, 0));
            }
        }
        if best.is_none_or(|(d, _)| d != 0) {
            for (i, (rec_fp, rec_key)) in recent.iter().enumerate().skip(1) {
                if *rec_fp == fp {
                    // Same zero-distance shortcut as the front above.
                    best = Some((0, i));
                    break;
                }
                // Branch-and-bound: a record can only win with a
                // strictly smaller diff, so once a best is held the
                // counting walk may give up at `best - 1` instead of
                // the full cap — records iterate most-recent-first and
                // ties keep the earlier (more recent) holder, so the
                // winner is unchanged.
                let cap = best.map_or(DELTA_MAX_CHANGED_VARS, |(d, _)| {
                    d.saturating_sub(1).min(DELTA_MAX_CHANGED_VARS)
                });
                if let Some(diff) = count_key_delta(rec_key, key, cap) {
                    if best.is_none_or(|(best_diff, _)| diff < best_diff) {
                        best = Some((diff, i));
                        if diff == 0 {
                            // An exact revisit cannot be beaten.
                            break;
                        }
                    }
                }
            }
        }
    }
    let chosen = best.map(|(_, i)| recent[i].0);
    let patch_hint = chosen.is_some() && front_delta_ok;
    drop(ranking_scope);
    let run = match chosen {
        Some(prefer) => scheduler.schedule_delta_keyed_with_slack(
            scene.arch,
            &[spec],
            base,
            patch_hint.then_some(vars_scratch.as_slice()),
            fp,
            Some(prefer),
        ),
        None => scheduler.schedule_keyed_with_slack(scene.arch, &[spec], base, fp),
    };
    // Successful or not, the engine's live record now describes
    // this solution (failed runs keep their completed prefix as a
    // splice source), so future candidates diff against it. The
    // full-engine tier never consults the list and skips the
    // bookkeeping.
    if !full_engine {
        // Record-list maintenance (clones the key) is splice-plane
        // bookkeeping too.
        let _bookkeeping_scope = phase::scope(Phase::Splice);
        note_raw_schedule(recent, fp, key, chosen);
    }
    let (placements, slack) = run?;
    // C2 terms: gap lists aliased from the frozen base (untouched
    // PEs) or the previous evaluation (PEs unchanged by the delta)
    // hit by storage identity; changed lists re-measure only the
    // windows their diff span intersects.
    let cost = score_slack(scene, c2, c1, &slack);
    Ok(Scored {
        cost,
        slack,
        placements,
    })
}

/// A batch worker's evaluation: the full (splice-free) path against the
/// shared frozen base, no memo, no record bookkeeping. Every call costs
/// exactly one raw schedule and zero delta/spliced/replayed steps, so
/// the batch's counters are a function of the hit/miss pattern alone —
/// independent of how candidates were partitioned over threads.
fn evaluate_shared_full(
    scene: &Scene<'_>,
    base: &Arc<FrozenBase>,
    worker: &mut EvalEngine,
    solution: &Solution,
    fp: u64,
) -> Result<Scored, SchedError> {
    let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
    let (placements, slack) =
        worker
            .scheduler
            .schedule_keyed_with_slack(scene.arch, &[spec], base, fp)?;
    let cost = score_slack(scene, &mut worker.c2, &mut worker.c1, &slack);
    Ok(Scored {
        cost,
        slack,
        placements,
    })
}

/// Everything a strategy needs to evaluate design alternatives for one
/// *current application* on one system state.
#[derive(Debug)]
pub struct MappingContext<'a> {
    /// The hardware platform.
    pub arch: &'a Architecture,
    /// Id the current application's jobs will carry.
    pub app_id: AppId,
    /// The current application.
    pub app: &'a Application,
    /// Frozen schedule of the existing applications, already replicated to
    /// `horizon`. `None` for an empty system.
    pub frozen: Option<&'a ScheduleTable>,
    /// The system hyperperiod (LCM of all periods, old and new).
    pub horizon: Time,
    /// Characterization of the future applications.
    pub future: &'a FutureProfile,
    /// Objective-function weights.
    pub weights: &'a Weights,
    counts: Cell<EngineCounts>,
    /// Scheduler diagnostics merged in from worker/chain engines.
    absorbed: Cell<SchedDiag>,
    naive: bool,
    full_engine: bool,
    parallelism: SearchParallelism,
    engine: RefCell<EvalEngine>,
    /// Idle batch-worker engines, recycled across parallel rounds.
    workers: RefCell<Vec<EvalEngine>>,
}

impl<'a> MappingContext<'a> {
    /// Creates a context.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        arch: &'a Architecture,
        app_id: AppId,
        app: &'a Application,
        frozen: Option<&'a ScheduleTable>,
        horizon: Time,
        future: &'a FutureProfile,
        weights: &'a Weights,
    ) -> Self {
        let ctx = MappingContext {
            arch,
            app_id,
            app,
            frozen,
            horizon,
            future,
            weights,
            counts: Cell::new(EngineCounts::default()),
            absorbed: Cell::new(SchedDiag::default()),
            naive: false,
            full_engine: false,
            parallelism: env_parallelism(),
            engine: RefCell::new(EvalEngine::default()),
            workers: RefCell::new(Vec::new()),
        };
        // Test/CI hook: `INCDES_RECORD_CACHE_CAP` overrides the
        // scheduler's record-cache capacity so the differential suites
        // can force eviction churn (small cap) or disable cached-record
        // splicing entirely (0) without an API change. Accepted values
        // are base-10 integers ≥ 0: `0` disables cached-record splicing
        // entirely, `1..` caps the number of retained run records (the
        // built-in default is `RECORD_CACHE_CAP` = 4; larger values only
        // grow memory, never change results). Anything unparsable is
        // ignored with one warning per process — a silently dropped
        // override would make a differential run test the wrong
        // configuration.
        if let Some(cap) = incdes_obs::diag::env_usize(
            "INCDES_RECORD_CACHE_CAP",
            &format!(
                "expected a non-negative integer (0 disables cached-record splicing; \
                 the built-in cap is {RECORD_CACHE_CAP})"
            ),
        ) {
            ctx.engine
                .borrow_mut()
                .scheduler
                .set_record_cache_capacity(cap);
        }
        ctx
    }

    /// Sets how this context parallelizes strategy trial evaluation.
    /// Overrides the `INCDES_SEARCH_THREADS` process default.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SearchParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The parallelism mode strategies should run under.
    pub fn parallelism(&self) -> SearchParallelism {
        self.parallelism
    }

    /// Switches this context to the naive evaluation pipeline
    /// (`schedule()` + `SlackProfile::from_table` +
    /// `objective::evaluate`, no frozen-base reuse, no memo). The
    /// results are identical to the engine path; this exists as the
    /// reference for differential tests and the `figures bench-eval`
    /// speedup measurement.
    #[must_use]
    pub fn with_naive_evaluation(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Disables the delta-scheduling path: every raw schedule resets the
    /// timelines from the frozen base and places all jobs (the PR 4
    /// engine behavior). Results are identical to the default delta
    /// path; this is the mid-tier oracle for differential tests and the
    /// `figures bench-eval` delta column.
    #[must_use]
    pub fn with_full_evaluation(mut self) -> Self {
        self.full_engine = true;
        self
    }

    /// Seeds this context with a pre-built frozen base, shared across
    /// contexts via `Arc` — the campaign runner bakes the frozen
    /// schedule once per system state instead of once per step. The
    /// base **must** have been built with this context's architecture,
    /// frozen table and horizon; the horizon is checked eagerly, the
    /// rest is the caller's contract (the result would silently describe
    /// the wrong system otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `base` covers a different horizon than this context.
    #[must_use]
    pub fn with_frozen_base(self, base: Arc<FrozenBase>) -> Self {
        assert_eq!(
            base.horizon(),
            self.horizon,
            "shared frozen base horizon mismatch"
        );
        self.engine.borrow_mut().base = Some(Ok(base));
        self
    }

    /// Schedules and scores one design alternative, and builds its
    /// complete schedule table.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SchedError`]; use
    /// [`SchedError::is_infeasible`] to distinguish "does not fit" from
    /// "malformed input".
    pub fn evaluate(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        if self.naive {
            self.count_evaluation();
            return self.evaluate_naive(solution);
        }
        self.score(solution).map(|scored| self.materialize(scored))
    }

    /// [`evaluate`](Self::evaluate) without the table: what the search
    /// loops compare. Counts one evaluation.
    pub(crate) fn score(&self, solution: &Solution) -> Result<Scored, SchedError> {
        self.count_evaluation();
        self.score_inner(solution)
    }

    /// [`score`](Self::score) without touching
    /// [`evaluation_count`](Self::evaluation_count) — bookkeeping
    /// re-derivations (SA rebuilding its best snapshot at the end) must
    /// not perturb the evaluation counts the paper tables report.
    pub(crate) fn score_snapshot(&self, solution: &Solution) -> Result<Scored, SchedError> {
        self.score_inner(solution)
    }

    /// Builds the complete table of a scored design — one sort of its
    /// placements merged with the frozen base's pre-sorted jobs and
    /// messages, no re-scheduling — for a design a caller receives. Not
    /// an evaluation: [`evaluation_count`](Self::evaluation_count) is
    /// untouched.
    pub(crate) fn materialize(&self, scored: Scored) -> Evaluation {
        let table = match &self.engine.borrow().base {
            Some(Ok(base)) => base.materialize(&scored.placements),
            // The naive pipeline keeps no base; its designs merge with
            // the frozen table directly (the base's content).
            _ => match self.frozen {
                Some(frozen) => scored.placements.materialize(frozen),
                None => scored
                    .placements
                    .materialize(&ScheduleTable::empty(self.horizon)),
            },
        };
        Evaluation {
            table,
            slack: scored.slack,
            cost: scored.cost,
        }
    }

    /// The frozen occupancy the initial mapping's probe starts from: the
    /// baked base's timelines, an `Arc` bump per layer. The naive
    /// pipeline keeps no base, so it bakes a transient one.
    pub(crate) fn frozen_occupancy(&self) -> Result<(Vec<PeTimeline>, BusTimeline), SchedError> {
        let base = if self.naive {
            Arc::new(FrozenBase::new(self.arch, self.frozen, self.horizon)?)
        } else {
            Arc::clone(self.engine.borrow_mut().base(&self.scene())?)
        };
        Ok((base.pe_timelines(), base.bus_timeline()))
    }

    fn count_evaluation(&self) {
        let mut counts = self.counts.get();
        counts.evaluations += 1;
        self.counts.set(counts);
    }

    fn score_inner(&self, solution: &Solution) -> Result<Scored, SchedError> {
        if self.naive {
            return self.evaluate_naive(solution).map(|e| Scored {
                placements: Placements::of_app(&e.table, self.app_id),
                slack: e.slack,
                cost: e.cost,
            });
        }
        let mut engine = self.engine.borrow_mut();
        let mut counts = self.counts.get();
        let result = engine_evaluate(
            &self.scene(),
            &mut engine,
            &mut counts,
            self.full_engine,
            solution,
        );
        self.counts.set(counts);
        result
    }

    /// The immutable scene the engine functions (and worker threads)
    /// evaluate against.
    fn scene(&self) -> Scene<'a> {
        Scene {
            arch: self.arch,
            app_id: self.app_id,
            app: self.app,
            frozen: self.frozen,
            horizon: self.horizon,
            future: self.future,
            weights: self.weights,
        }
    }

    /// The reference pipeline (no base, no scratch, no memo).
    fn evaluate_naive(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        let mut counts = self.counts.get();
        counts.raw_schedules += 1;
        self.counts.set(counts);
        let spec = AppSpec::new(self.app_id, self.app, &solution.mapping, &solution.hints);
        let table = schedule(self.arch, &[spec], self.frozen, self.horizon)?;
        let slack = SlackProfile::from_table(self.arch, &table);
        let cost = objective::evaluate(self.arch, &slack, self.future, self.weights);
        Ok(Evaluation { table, slack, cost })
    }

    /// Number of schedule evaluations performed through this context
    /// (every [`evaluate`](Self::evaluate) call, memo hit or not — the
    /// historical semantics the paper tables rely on).
    pub fn evaluation_count(&self) -> usize {
        self.counts.get().evaluations
    }

    /// Number of raw schedules actually executed: evaluations that
    /// missed the memo and ran the scheduler. Always ≤
    /// [`evaluation_count`](Self::evaluation_count) on the engine path.
    pub fn raw_schedule_count(&self) -> usize {
        self.counts.get().raw_schedules
    }

    /// Number of evaluations answered from the solution memo.
    pub fn memo_hit_count(&self) -> usize {
        self.counts.get().memo_hits
    }

    /// Number of raw schedules that took the delta-scheduling path
    /// (spliced the previous run instead of resetting from the base),
    /// including those of absorbed SA portfolio chains. Always ≤
    /// [`raw_schedule_count`](Self::raw_schedule_count); zero on the
    /// naive and full-engine pipelines.
    pub fn delta_schedule_count(&self) -> usize {
        self.engine.borrow().scheduler.delta_schedule_count() + self.absorbed.get().delta_schedules
    }

    /// Total placement steps the delta path spliced verbatim from run
    /// records (diagnostics for benches and tests).
    pub fn spliced_step_count(&self) -> usize {
        self.engine.borrow().scheduler.spliced_step_count() + self.absorbed.get().spliced_steps
    }

    /// Total placement steps replayed from *cached* records: the part
    /// of a splice source's prefix the live record did not share.
    /// Always ≤ [`spliced_step_count`](Self::spliced_step_count); zero
    /// when every delta spliced from the live record.
    pub fn replayed_step_count(&self) -> usize {
        self.engine.borrow().scheduler.replayed_step_count() + self.absorbed.get().replayed_steps
    }

    /// Caps the scheduler's record cache (test hook: a small cap forces
    /// eviction churn; `0` disables cached-record splicing entirely,
    /// falling back to live-record-only deltas).
    pub fn set_record_cache_capacity(&self, cap: usize) {
        self.engine
            .borrow_mut()
            .scheduler
            .set_record_cache_capacity(cap);
    }

    /// Evaluates a whole candidate batch, honoring this context's
    /// [`SearchParallelism`]. Sequential mode (and the naive pipeline)
    /// evaluates in candidate-index order through
    /// [`score`](Self::score), so the results — and every counter
    /// — are exactly what the per-candidate loop produced before this
    /// API existed. Parallel mode runs the deterministic batch protocol
    /// of [`evaluate_batch`](Self::evaluate_batch).
    pub(crate) fn evaluate_all(&self, trials: &[Solution]) -> Vec<Result<Scored, SchedError>> {
        match self.parallelism {
            SearchParallelism::Parallel { threads, .. } if !self.naive && !trials.is_empty() => {
                self.evaluate_batch(
                    trials,
                    threads.max(1),
                    self.parallelism.effective_batch_cutover(),
                )
            }
            _ => trials.iter().map(|t| self.score(t)).collect(),
        }
    }

    /// The deterministic parallel batch protocol. Three ordered passes:
    ///
    /// 1. **Prefilter** (main thread, candidate-index order): each
    ///    candidate ticks the memo clock and counts one evaluation; memo
    ///    hits are re-stamped and answered immediately, misses are
    ///    horizon-checked and queued.
    /// 2. **Dispatch**: queued misses are evaluated on worker engines
    ///    (`std::thread::scope`) against the shared `Arc<FrozenBase>`,
    ///    on the full splice-free path — each miss costs exactly one
    ///    raw schedule and zero delta steps, and its result depends only
    ///    on the shared base, never on which worker ran it or what that
    ///    worker evaluated before.
    /// 3. **Reduce** (main thread, candidate-index order): results are
    ///    inserted into the main memo with the stamps assigned in pass
    ///    1, running the same eviction rule a sequential insertion
    ///    sequence would.
    ///
    /// Every counter is a function of the hit/miss pattern alone, so the
    /// returned results *and* all diagnostics are byte-identical for any
    /// `threads ≥ 1` and any `batch_cutover` — the cutover (and the
    /// available-parallelism cap) only collapse the dispatch onto the
    /// inline single-worker arm, which runs the same protocol.
    fn evaluate_batch(
        &self,
        trials: &[Solution],
        threads: usize,
        batch_cutover: usize,
    ) -> Vec<Result<Scored, SchedError>> {
        struct Miss {
            idx: usize,
            key: MemoKey,
            stamp: u64,
            fp: u64,
            /// `false` when the horizon precheck (or a failed base
            /// bake) already produced this miss's error.
            run: bool,
        }
        enum Plan {
            /// Memo hit — answered in the prefilter.
            Hit,
            /// Slot in the miss queue.
            Miss(usize),
            /// Same key as an earlier in-batch miss: (source candidate
            /// index, this candidate's stamp, the shared fingerprint
            /// and key).
            Dup(usize, u64, u64, MemoKey),
        }
        let scene = self.scene();
        let mut engine = self.engine.borrow_mut();
        let mut counts = self.counts.get();
        let n = trials.len();
        let mut out: Vec<Option<Result<Scored, SchedError>>> = (0..n).map(|_| None).collect();
        let mut plans: Vec<Plan> = Vec::with_capacity(n);
        let mut misses: Vec<Miss> = Vec::new();

        // Pass 1: prefilter.
        let mut scratch = std::mem::take(&mut engine.key_scratch);
        for (i, solution) in trials.iter().enumerate() {
            counts.evaluations += 1;
            engine.memo_clock += 1;
            let stamp = engine.memo_clock;
            scratch.assign(solution);
            let fp = fingerprint(&scratch);
            if let Some(hit) = engine.memo.get_mut(fp, &scratch) {
                hit.stamp = stamp;
                counts.memo_hits += 1;
                counters::bump(Counter::MemoHits);
                out[i] = Some(hit.result.clone());
                plans.push(Plan::Hit);
                continue;
            }
            // MH batches never contain duplicate solutions (distinct
            // moves on one pivot), but the protocol stays correct for
            // any caller: an in-batch duplicate is a memo hit on the
            // earlier miss's (future) entry. Batches are small, so a
            // fingerprint-gated linear scan beats building a side
            // table.
            if let Some(m) = misses.iter().find(|m| m.fp == fp && m.key == scratch) {
                counts.memo_hits += 1;
                counters::bump(Counter::MemoHits);
                plans.push(Plan::Dup(m.idx, stamp, fp, scratch.clone()));
                continue;
            }
            let spec = AppSpec::new(scene.app_id, scene.app, &solution.mapping, &solution.hints);
            let run = match check_horizon(&[spec], scene.horizon) {
                Ok(()) => true,
                Err(e) => {
                    out[i] = Some(Err(e));
                    false
                }
            };
            plans.push(Plan::Miss(misses.len()));
            misses.push(Miss {
                idx: i,
                key: scratch.clone(),
                stamp,
                fp,
                run,
            });
        }
        engine.key_scratch = scratch;

        // Pass 2: dispatch the runnable misses to worker engines.
        if misses.iter().any(|m| m.run) {
            match engine.base(&scene) {
                Err(e) => {
                    // Base errors precede the raw-schedule count, as in
                    // the sequential path.
                    for m in misses.iter_mut().filter(|m| m.run) {
                        out[m.idx] = Some(Err(e.clone()));
                        m.run = false;
                    }
                }
                Ok(base) => {
                    let base = Arc::clone(base);
                    let jobs: Vec<(usize, u64)> = misses
                        .iter()
                        .filter(|m| m.run)
                        .map(|m| (m.idx, m.fp))
                        .collect();
                    counts.raw_schedules += jobs.len();
                    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                    let worker_count = batch_worker_count(threads, jobs.len(), batch_cutover, hw);
                    let mut engines: Vec<EvalEngine> = {
                        let mut pool = self.workers.borrow_mut();
                        (0..worker_count)
                            .map(|_| pool.pop().unwrap_or_default())
                            .collect()
                    };
                    let produced: Vec<(usize, Result<Scored, SchedError>)> = if worker_count == 1 {
                        let eng = &mut engines[0];
                        jobs.iter()
                            .map(|&(idx, fp)| {
                                (
                                    idx,
                                    evaluate_shared_full(&scene, &base, eng, &trials[idx], fp),
                                )
                            })
                            .collect()
                    } else {
                        let jobs = &jobs;
                        let scene = &scene;
                        let base = &base;
                        let finished: Vec<(EvalEngine, Vec<_>, _, _)> = std::thread::scope(|s| {
                            let handles: Vec<_> = engines
                                .drain(..)
                                .enumerate()
                                .map(|(w, mut eng)| {
                                    s.spawn(move || {
                                        let mut produced = Vec::new();
                                        let mut k = w;
                                        while k < jobs.len() {
                                            let (idx, fp) = jobs[k];
                                            produced.push((
                                                idx,
                                                evaluate_shared_full(
                                                    scene,
                                                    base,
                                                    &mut eng,
                                                    &trials[idx],
                                                    fp,
                                                ),
                                            ));
                                            k += worker_count;
                                        }
                                        // A scoped worker is a fresh OS
                                        // thread, so its thread-local
                                        // observability cells started at
                                        // zero: the final snapshot *is*
                                        // the worker's contribution.
                                        (eng, produced, counters::snapshot(), phase::snapshot())
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("search worker panicked"))
                                .collect()
                        });
                        let mut collected = Vec::with_capacity(jobs.len());
                        for (eng, produced, worker_counters, worker_phases) in finished {
                            engines.push(eng);
                            collected.extend(produced);
                            counters::merge_into_current(&worker_counters);
                            phase::merge_into_current(&worker_phases);
                        }
                        collected
                    };
                    self.workers.borrow_mut().append(&mut engines);
                    for (idx, res) in produced {
                        out[idx] = Some(res);
                    }
                }
            }
        }

        // Pass 3: reduce into the memo in candidate-index order, with
        // the prefilter stamps — the exact insertion/eviction sequence
        // a sequential run of these misses would have produced.
        for (i, plan) in plans.iter_mut().enumerate() {
            match plan {
                Plan::Hit => {}
                Plan::Miss(m) => {
                    let miss = &mut misses[*m];
                    let result = out[i].clone().expect("miss evaluated in pass 2");
                    engine.evict_if_full();
                    engine.memo.insert(
                        miss.fp,
                        std::mem::take(&mut miss.key),
                        MemoEntry {
                            result,
                            stamp: miss.stamp,
                        },
                    );
                    counters::bump(Counter::MemoInserts);
                }
                Plan::Dup(of, stamp, fp, key) => {
                    out[i] = out[*of].clone();
                    if let Some(hit) = engine.memo.get_mut(*fp, key) {
                        hit.stamp = *stamp;
                    }
                }
            }
        }
        self.counts.set(counts);
        out.into_iter()
            .map(|r| r.expect("every candidate planned"))
            .collect()
    }

    /// Builds `n` private chain lanes for the SA portfolio, each with
    /// its own [`EvalEngine`] (delta splicing enabled) sharing this
    /// context's `Arc<FrozenBase>`. Returns `None` when no shareable
    /// base exists (naive pipeline, or the bake failed — the classic
    /// path's initial evaluation surfaces the same error).
    pub(crate) fn chain_contexts(&self, n: usize) -> Option<Vec<ChainCtx<'a>>> {
        if self.naive {
            return None;
        }
        let scene = self.scene();
        let base = Arc::clone(self.engine.borrow_mut().base(&scene).ok()?);
        Some(
            (0..n)
                .map(|_| ChainCtx {
                    scene,
                    engine: EvalEngine {
                        base: Some(Ok(Arc::clone(&base))),
                        ..EvalEngine::default()
                    },
                    counts: EngineCounts::default(),
                    full_engine: self.full_engine,
                })
                .collect(),
        )
    }

    /// Merges finished chain lanes back into this context's counters.
    /// Callers pass chains in chain-index order; since addition is
    /// order-independent the totals are identical for any execution
    /// interleaving — the counters a portfolio run reports depend only
    /// on the per-chain trajectories, never on the thread count.
    pub(crate) fn absorb_chains(&self, chains: Vec<ChainCtx<'_>>) {
        let mut counts = self.counts.get();
        let mut diag = self.absorbed.get();
        for c in chains {
            counts.evaluations += c.counts.evaluations;
            counts.raw_schedules += c.counts.raw_schedules;
            counts.memo_hits += c.counts.memo_hits;
            diag.delta_schedules += c.engine.scheduler.delta_schedule_count();
            diag.spliced_steps += c.engine.scheduler.spliced_step_count();
            diag.replayed_steps += c.engine.scheduler.replayed_step_count();
        }
        self.counts.set(counts);
        self.absorbed.set(diag);
    }
}

/// A private evaluation lane for one SA portfolio chain: its own engine
/// (scheduler + record cache + memo + objective caches, delta splicing
/// enabled) sharing the scenario's `Arc<FrozenBase>`, plus its own
/// counters. `ChainCtx` is `Send`, so chain segments execute on scoped
/// worker threads; the owning context absorbs the counters afterwards
/// via [`MappingContext::absorb_chains`].
pub(crate) struct ChainCtx<'a> {
    scene: Scene<'a>,
    engine: EvalEngine,
    counts: EngineCounts,
    full_engine: bool,
}

impl ChainCtx<'_> {
    /// Schedules and scores one design alternative on this chain's
    /// private engine, counting one evaluation.
    pub(crate) fn score(&mut self, solution: &Solution) -> Result<Scored, SchedError> {
        self.counts.evaluations += 1;
        engine_evaluate(
            &self.scene,
            &mut self.engine,
            &mut self.counts,
            self.full_engine,
            solution,
        )
    }

    /// Re-derives a scored design for exchange bookkeeping without
    /// counting a design-space probe (the portfolio analogue of
    /// [`MappingContext::score_snapshot`]).
    pub(crate) fn score_snapshot(&mut self, solution: &Solution) -> Result<Scored, SchedError> {
        engine_evaluate(
            &self.scene,
            &mut self.engine,
            &mut self.counts,
            self.full_engine,
            solution,
        )
    }
}

/// Compile-time pins for the guarantees the scoped-thread code relies
/// on: the scene is shared immutably across workers, engines and
/// results move between threads. (`thread::scope` would reject the code
/// anyway — this states the contract in one place.)
#[allow(dead_code)]
fn parallel_safety_asserts(scene: Scene<'_>, engine: EvalEngine, chain: ChainCtx<'_>) {
    fn assert_send<T: Send>(_: T) {}
    fn assert_sync<T: Sync>(_: T) {}
    assert_sync(scene);
    assert_send(engine);
    assert_send(chain);
    let _ = assert_send::<Result<Scored, SchedError>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::prelude::*;
    use incdes_sched::Mapping;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn one_proc_app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        Application::new("app", vec![g])
    }

    #[test]
    fn evaluate_counts_and_scores() {
        let arch = arch2();
        let app = one_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol = Solution::from_mapping(mapping);
        assert_eq!(ctx.evaluation_count(), 0);
        let eval = ctx.evaluate(&sol).unwrap();
        assert_eq!(ctx.evaluation_count(), 1);
        assert!(eval.cost.is_feasible());
        assert_eq!(eval.table.jobs().len(), 1);
    }

    #[test]
    fn observability_counters_pin_the_memo() {
        // Evaluate A, B, A: exactly one memo hit (the revisit) and two
        // inserts (the distinct solutions), pinned through the
        // deterministic counter registry.
        let arch = arch2();
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(8))
                .wcet(PeId(1), Time::new(6)),
        );
        let app = Application::new("app", vec![g]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut map_a = Mapping::new();
        map_a.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol_a = Solution::from_mapping(map_a);
        let mut map_b = Mapping::new();
        map_b.assign(ProcRef::new(0, NodeId(0)), PeId(1));
        let sol_b = Solution::from_mapping(map_b);

        let before = counters::snapshot();
        ctx.evaluate(&sol_a).unwrap();
        ctx.evaluate(&sol_b).unwrap();
        ctx.evaluate(&sol_a).unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 1, "only the revisit hits");
        assert_eq!(d.get(Counter::MemoInserts), 2, "two distinct solutions");
        assert_eq!(d.get(Counter::MemoEvictions), 0, "far below MEMO_CAP");
        // The registry agrees with the context's own diagnostics.
        assert_eq!(ctx.memo_hit_count() as u64, d.get(Counter::MemoHits));
        assert_eq!(ctx.evaluation_count(), 3);
    }

    #[test]
    fn evaluate_surfaces_infeasibility() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(4));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        let app = Application::new("app", vec![g]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let err = ctx.evaluate(&Solution::from_mapping(mapping)).unwrap_err();
        assert!(err.is_infeasible());
    }

    // `INCDES_RECORD_CACHE_CAP` / `INCDES_SEARCH_THREADS` parsing is
    // covered by the unit tests of `incdes_obs::diag`, which both
    // overrides now share.

    #[test]
    fn batch_worker_count_rule() {
        // Below the cutover: inline, regardless of threads or cores.
        assert_eq!(batch_worker_count(8, 3, 16, 64), 1);
        assert_eq!(batch_worker_count(8, 15, 16, 64), 1);
        // At or above the cutover: one worker per job up to threads...
        assert_eq!(batch_worker_count(8, 16, 16, 64), 8);
        assert_eq!(batch_worker_count(8, 100, 16, 64), 8);
        assert_eq!(batch_worker_count(8, 20, 16, 64), 8);
        assert_eq!(batch_worker_count(32, 20, 16, 64), 20);
        // ...capped at the machine's parallelism.
        assert_eq!(batch_worker_count(8, 100, 16, 2), 2);
        assert_eq!(batch_worker_count(8, 100, 16, 1), 1);
        // Degenerate inputs stay sane.
        assert_eq!(batch_worker_count(8, 100, 16, 0), 1);
        assert_eq!(batch_worker_count(0, 100, 0, 4), 1);
        // Cutover 0 never collapses (`effective_batch_cutover` resolves
        // the spec-level 0 to the default before this rule runs).
        assert_eq!(batch_worker_count(4, 1, 0, 4), 1); // min(jobs)
        assert_eq!(batch_worker_count(4, 2, 0, 4), 2);
    }

    #[test]
    fn effective_batch_cutover_resolves_default() {
        assert_eq!(SearchParallelism::Sequential.effective_batch_cutover(), 0);
        assert_eq!(
            SearchParallelism::threads(4).effective_batch_cutover(),
            SearchParallelism::DEFAULT_BATCH_CUTOVER
        );
        let explicit = SearchParallelism::Parallel {
            threads: 4,
            batch_cutover: 7,
            sa_chains: 1,
            sa_exchange_period: 64,
        };
        assert_eq!(explicit.effective_batch_cutover(), 7);
    }

    #[test]
    fn memo_eviction_retains_recent_record_keys() {
        let arch = arch2();
        let app = one_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let pr = ProcRef::new(0, NodeId(0));
        let mut mapping = Mapping::new();
        mapping.assign(pr, PeId(0));
        let base = Solution::from_mapping(mapping);
        let sol =
            |gap: u32| base.with_move(&crate::solution::Move::ProcSlack { proc_ref: pr, gap });
        // Fill the memo exactly to capacity with distinct solutions
        // (stamps 1..=MEMO_CAP); the record cache ends up naming the
        // last RECORD_CACHE_CAP of them.
        for gap in 0..MEMO_CAP as u32 {
            let _ = ctx.evaluate(&sol(gap));
        }
        // Freshen an old prefix so the "stale half" cutoff lands above
        // the stamps of the solutions the record cache still names.
        for gap in 0..300u32 {
            let _ = ctx.evaluate(&sol(gap));
        }
        // One more distinct solution triggers eviction on its miss.
        let _ = ctx.evaluate(&sol(MEMO_CAP as u32));
        let engine = ctx.engine.borrow();
        assert!(!engine.recent.is_empty());
        for (fp, key) in &engine.recent {
            assert!(
                engine.memo.contains(*fp, key),
                "record-cache fingerprint {fp:#x} names an evicted memo key"
            );
        }
    }
}
