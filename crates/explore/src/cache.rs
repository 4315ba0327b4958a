//! The store-backed campaign runner: content-addressed caching,
//! cross-process sharding and shard-report merging.
//!
//! # Keying
//!
//! Every scenario is fingerprinted by the canonical JSON of everything
//! that determines its [`crate::report::ScenarioReport`]: the resolved
//! generator configuration, the future profile inputs, the full
//! lifecycle script, the invariant-checking flag and the grid point
//! (size, strategy *configuration*, seed, weight setting) — plus
//! [`CODE_EPOCH`] and the store's own format epoch. Two things are
//! deliberately **excluded**:
//!
//! * the campaign *name* — renaming a campaign must not invalidate it;
//! * the scenario *index* — it is positional, so a spec edit that
//!   reshapes the grid (say, dropping a size) still reuses every blob
//!   of the surviving grid points; the index is patched on load.
//!
//! An edited spec therefore re-runs only its delta, which is the
//! paper's incremental-design argument applied to the evaluation
//! pipeline itself.
//!
//! # Sharding
//!
//! [`Shard`] partitions scenarios deterministically by store key
//! (`key.shard_of(count)`), so the partition is stable under grid
//! reshapes and independent of scenario order. Shard reports are merged
//! with [`merge_reports`], which is order-independent and verifies the
//! union is exactly one contiguous campaign — the merged report is
//! byte-identical to an unsharded run's.

use crate::report::{CampaignReport, CampaignTotals, ScenarioReport};
use crate::runner::{prepare_env, run_scenarios, ScenarioFailure, ScenarioOutcome};
use crate::spec::{CampaignSpec, ScenarioKey, ScriptStep, SpecError, WeightSetting};
use incdes_mapping::Strategy;
use incdes_obs::counters::{self, Counter};
use incdes_store::{FaultKind, Lookup, Store, StoreKey};
use incdes_synth::SynthConfig;
use serde::Serialize;
use std::fmt;
use std::time::Duration;

/// Version of the scenario *semantics* baked into every store key.
///
/// Bump this whenever executing the same spec may legitimately produce
/// different bytes — a schedule-table fix, a generator change, a new
/// report field — so stale blobs become unreachable instead of being
/// served as fresh results. (The store's own `FORMAT_EPOCH` covers the
/// blob layout; this covers the meaning of the payload.)
/// History: 2 — MH dedupes duplicate moves across widening rounds, so
/// `StepReport::evaluations` dropped for MH scenarios. 3 — the engine
/// no longer splices recorded runs, so `StepReport` lost
/// `delta_schedules`/`spliced_steps` and `CampaignTotals` lost
/// `spliced_steps`.
pub const CODE_EPOCH: u32 = 3;

/// The canonical, serializable identity of one scenario. Field order is
/// fixed by this struct, so the fingerprint JSON is stable.
#[derive(Serialize)]
struct Fingerprint {
    code_epoch: u32,
    config: SynthConfig,
    future_processes: usize,
    demand_factor: f64,
    check_invariants: bool,
    script: Vec<ScriptStep>,
    size: usize,
    strategy: Strategy,
    seed: u64,
    weights: WeightSetting,
}

/// Derives the store key of one scenario of a spec (resolves the base
/// configuration itself; the runner uses the already-resolved variant).
///
/// # Errors
///
/// [`SpecError`] when the base configuration does not resolve.
pub fn scenario_store_key(
    spec: &CampaignSpec,
    scenario: &ScenarioKey,
) -> Result<StoreKey, SpecError> {
    let cfg = spec.resolve_config()?;
    Ok(store_key_with(&cfg, spec, scenario))
}

/// [`scenario_store_key`] with the base configuration pre-resolved.
fn store_key_with(cfg: &SynthConfig, spec: &CampaignSpec, scenario: &ScenarioKey) -> StoreKey {
    let fingerprint = Fingerprint {
        code_epoch: CODE_EPOCH,
        config: cfg.clone(),
        future_processes: spec.future_processes,
        demand_factor: spec.demand_factor,
        check_invariants: spec.check_invariants,
        script: spec.script.clone(),
        size: scenario.size,
        strategy: scenario.strategy,
        seed: scenario.seed,
        weights: scenario.weights.clone(),
    };
    let canonical =
        serde_json::to_string(&fingerprint).expect("campaign fingerprints always serialize");
    StoreKey::of(canonical.as_bytes())
}

/// One shard of a cross-process campaign: `index` (1-based) of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Builds a shard selector; `index` is 1-based and must be within
    /// `1..=count`.
    ///
    /// # Errors
    ///
    /// A human-readable message for out-of-range values.
    pub fn new(index: usize, count: usize) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index == 0 || index > count {
            return Err(format!("shard index {index} out of range 1..={count}"));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI spelling `I/N` (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed input.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected I/N (e.g. 2/4), got `{s}`"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index `{i}`"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count `{n}`"))?;
        Shard::new(index, count)
    }

    /// 1-based shard index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shard count.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns the scenario with store key `key`.
    #[must_use]
    pub fn contains(&self, key: &StoreKey) -> bool {
        key.shard_of(self.count) == self.index - 1
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Cache accounting of one store-backed campaign run. Lives *next to*
/// the report, never inside it: a warm rerun must produce byte-identical
/// report JSON, so hit counts are surfaced on stderr / in-memory only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Scenarios in the full campaign grid.
    pub scenarios: usize,
    /// Scenarios selected after shard filtering.
    pub selected: usize,
    /// Selected scenarios served from the store.
    pub hits: usize,
    /// Selected scenarios executed (cache miss or no store).
    pub executed: usize,
    /// Blobs found corrupt (truncated/hand-edited) and re-run.
    pub corrupt: usize,
    /// Store writes that failed even after retries (the campaign still
    /// completes — results are computed through, just not persisted).
    pub store_errors: usize,
    /// Transient store-write errors that were retried.
    pub store_retries: usize,
    /// Scenarios quarantined after panicking through their retry
    /// budget (absent from the report; see [`StoredCampaign::failures`]).
    pub failed: usize,
    /// Whether the run degraded to compute-through: at least one result
    /// could not be persisted, so a future rerun will re-execute it.
    /// Report bytes are unaffected.
    pub degraded: bool,
}

/// How a store-backed campaign should run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions<'a> {
    /// Worker threads for executing cache misses (0 ⇒ 1).
    pub workers: usize,
    /// The persistent store to consult and fill; `None` disables
    /// caching entirely (every selected scenario executes, nothing is
    /// written) — the `--no-cache` behaviour.
    pub store: Option<&'a Store>,
    /// Run only the scenarios owned by this shard.
    pub shard: Option<Shard>,
}

/// A store-backed campaign run: the deterministic report plus the cache
/// accounting of how it was produced.
#[derive(Debug)]
pub struct StoredCampaign {
    /// The canonical report (or the shard's slice of it).
    pub report: CampaignReport,
    /// Cache accounting (in-memory only; see [`CacheStats`]).
    pub stats: CacheStats,
    /// Per-scenario observability profiles for the scenarios that
    /// *executed* this run (cache hits carry none — their work happened
    /// in some earlier process). Sorted by scenario index. Like
    /// [`CacheStats`], this lives beside the report, never inside it.
    pub profiles: Vec<ScenarioProfile>,
    /// Quarantined scenarios, sorted by index; empty means the report
    /// covers the whole selection.
    pub failures: Vec<ScenarioFailure>,
}

/// The observability slice of one executed scenario: deterministic
/// counters, (when enabled) per-phase wall-clock aggregates, and the
/// wall-clock time of each script step.
#[derive(Debug, Clone)]
pub struct ScenarioProfile {
    /// Scenario index in the campaign grid.
    pub index: usize,
    /// Deterministic counter deltas for the scenario's work.
    pub counters: incdes_obs::counters::CounterSnapshot,
    /// Per-phase wall-clock aggregates (all zero unless phase timing
    /// was enabled).
    pub phases: incdes_obs::phase::PhaseSnapshot,
    /// Wall-clock time of each script step, in script order (always
    /// measured; see [`crate::runner::StepOutcome::elapsed`]).
    pub steps: Vec<Duration>,
}

/// Attempts after the first a failing put gets when its error is
/// transient ([`FaultKind::is_transient`]).
const PUT_RETRIES: usize = 3;

/// Writes one scenario blob with bounded retry: transient errors
/// (`WouldBlock`/`Interrupted`/`TimedOut`) back off deterministically
/// (1 ms doubling per attempt) and try again; persistent errors and an
/// exhausted budget give up — the campaign computes through. Returns
/// whether the blob was persisted.
fn put_with_retry(store: &Store, key: &StoreKey, payload: &str, stats: &mut CacheStats) -> bool {
    let mut delay = Duration::from_millis(1);
    for attempt in 0..=PUT_RETRIES {
        match store.put(key, payload) {
            Ok(()) => return true,
            Err(e) if attempt < PUT_RETRIES && FaultKind::is_transient(e.kind()) => {
                counters::bump(Counter::StoreRetries);
                stats.store_retries += 1;
                std::thread::sleep(delay);
                delay *= 2;
            }
            Err(_) => break,
        }
    }
    counters::bump(Counter::StorePutFailures);
    false
}

/// Runs `spec` against a persistent store: scenarios whose blob is
/// present and intact are served from cache (byte-identically — their
/// reports round-trip through the blob), the rest execute over
/// `opts.workers` threads and are written back. With `opts.shard` set,
/// only that shard's scenarios appear in the report.
///
/// # Errors
///
/// [`SpecError`] when the spec is invalid. Store *read* problems are
/// never errors (corrupt blobs re-run, see [`CacheStats::corrupt`]);
/// store *write* failures retry transient errors with deterministic
/// backoff ([`CacheStats::store_retries`]) and then degrade to
/// compute-through ([`CacheStats::store_errors`],
/// [`CacheStats::degraded`]) without failing the campaign or changing
/// report bytes. Panicking scenarios are quarantined into
/// [`StoredCampaign::failures`], never aborts.
pub fn run_campaign_store(
    spec: &CampaignSpec,
    opts: &StoreOptions<'_>,
) -> Result<StoredCampaign, SpecError> {
    spec.validate()?;
    let env = prepare_env(spec)?;
    let keys = spec.scenarios();
    let mut stats = CacheStats {
        scenarios: keys.len(),
        ..CacheStats::default()
    };

    let mut cached: Vec<ScenarioReport> = Vec::new();
    let mut pending: Vec<(ScenarioKey, StoreKey)> = Vec::new();
    for key in keys {
        let store_key = store_key_with(&env.cfg, spec, &key);
        if let Some(shard) = &opts.shard {
            if !shard.contains(&store_key) {
                continue;
            }
        }
        stats.selected += 1;
        if let Some(store) = opts.store {
            match store.lookup(&store_key) {
                Lookup::Hit(payload) => {
                    match serde_json::from_str::<ScenarioReport>(&payload) {
                        Ok(mut report) => {
                            // The index is positional, not part of the
                            // fingerprint — patch it to this grid's.
                            report.index = key.index;
                            stats.hits += 1;
                            cached.push(report);
                            continue;
                        }
                        // Parses as text but not as a report: treat as
                        // corrupt (hand-edited), re-run and overwrite.
                        Err(_) => stats.corrupt += 1,
                    }
                }
                Lookup::Corrupt => stats.corrupt += 1,
                Lookup::Miss => {}
            }
        }
        pending.push((key, store_key));
    }

    stats.executed = pending.len();
    let scenario_keys: Vec<ScenarioKey> = pending.iter().map(|(k, _)| k.clone()).collect();
    let outcomes = run_scenarios(spec, &env, &scenario_keys, opts.workers.max(1));

    // Outcomes come back in arbitrary (worker) order; scenario indices
    // are unique, so a map recovers each one's store key in O(1).
    let store_keys: std::collections::HashMap<usize, StoreKey> =
        pending.iter().map(|(k, sk)| (k.index, *sk)).collect();
    let mut scenarios = cached;
    let mut profiles = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for outcome in &outcomes {
        let done = match outcome {
            ScenarioOutcome::Completed(done) => done,
            // Quarantined: nothing trustworthy to report or persist.
            ScenarioOutcome::Failed {
                key,
                panic_message,
                attempts,
            } => {
                stats.failed += 1;
                failures.push(ScenarioFailure {
                    index: key.index,
                    panic_message: panic_message.clone(),
                    attempts: *attempts,
                });
                continue;
            }
        };
        let report = done.report();
        if let Some(store) = opts.store {
            let store_key = store_keys[&done.key.index];
            let payload =
                serde_json::to_string(&report).expect("scenario reports always serialize");
            if !put_with_retry(store, &store_key, &payload, &mut stats) {
                stats.store_errors += 1;
                if !stats.degraded {
                    stats.degraded = true;
                    counters::bump(Counter::DegradedMode);
                }
            }
        }
        profiles.push(ScenarioProfile {
            index: done.key.index,
            counters: done.counters,
            phases: done.phases,
            steps: done.steps.iter().map(|s| s.elapsed).collect(),
        });
        scenarios.push(report);
    }
    scenarios.sort_by_key(|s| s.index);
    profiles.sort_by_key(|p| p.index);
    failures.sort_by_key(|f| f.index);
    let totals = CampaignTotals::from_scenarios(&scenarios);
    Ok(StoredCampaign {
        report: CampaignReport {
            campaign: spec.name.clone(),
            scenarios,
            totals,
        },
        stats,
        profiles,
        failures,
    })
}

/// The store keys of *every* scenario of `spec` — the live set for
/// [`incdes_store::Store::gc`] after a campaign.
///
/// # Errors
///
/// [`SpecError`] when the base configuration does not resolve.
pub fn live_keys(spec: &CampaignSpec) -> Result<std::collections::BTreeSet<StoreKey>, SpecError> {
    let cfg = spec.resolve_config()?;
    Ok(spec
        .scenarios()
        .iter()
        .map(|k| store_key_with(&cfg, spec, k))
        .collect())
}

/// Why shard reports refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No reports given.
    Empty,
    /// Two parts name different campaigns.
    NameMismatch(String, String),
    /// Two parts carry the same scenario index.
    DuplicateIndex(usize),
    /// The union is not the contiguous range `0..n` — a shard is
    /// missing.
    MissingIndex(usize),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::NameMismatch(a, b) => {
                write!(f, "shard reports name different campaigns: `{a}` vs `{b}`")
            }
            MergeError::DuplicateIndex(i) => {
                write!(
                    f,
                    "scenario index {i} appears in more than one shard report"
                )
            }
            MergeError::MissingIndex(i) => write!(
                f,
                "scenario index {i} is missing — not all shards were merged"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Joins shard reports into the one canonical [`CampaignReport`]:
/// order-independent (scenarios are re-sorted by index), totals are
/// recomputed, and the union must be exactly the contiguous campaign —
/// duplicates and gaps are errors. The result is byte-identical to the
/// report of an unsharded run of the same spec.
///
/// # Errors
///
/// [`MergeError`] on empty input, campaign-name mismatches, duplicate
/// scenario indices or missing shards.
pub fn merge_reports(parts: Vec<CampaignReport>) -> Result<CampaignReport, MergeError> {
    let mut parts = parts.into_iter();
    let first = parts.next().ok_or(MergeError::Empty)?;
    let campaign = first.campaign.clone();
    let mut scenarios = first.scenarios;
    for part in parts {
        if part.campaign != campaign {
            return Err(MergeError::NameMismatch(campaign, part.campaign));
        }
        scenarios.extend(part.scenarios);
    }
    scenarios.sort_by_key(|s| s.index);
    for (position, scenario) in scenarios.iter().enumerate() {
        if scenario.index < position {
            return Err(MergeError::DuplicateIndex(scenario.index));
        }
        if scenario.index > position {
            return Err(MergeError::MissingIndex(position));
        }
    }
    let totals = CampaignTotals::from_scenarios(&scenarios);
    Ok(CampaignReport {
        campaign,
        scenarios,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::small_demo();
        spec.sizes = vec![5];
        spec.seeds = vec![3];
        spec.strategies = vec![Strategy::AdHoc];
        spec
    }

    #[test]
    fn fingerprints_ignore_name_and_index_but_track_inputs() {
        let spec = CampaignSpec::small_demo();
        let keys = spec.scenarios();
        let a = scenario_store_key(&spec, &keys[0]).unwrap();

        // Renaming the campaign keeps every key.
        let mut renamed = spec.clone();
        renamed.name = "renamed".to_string();
        assert_eq!(
            a,
            scenario_store_key(&renamed, &renamed.scenarios()[0]).unwrap()
        );

        // A different index at the same grid point keeps the key.
        let mut moved = keys[0].clone();
        moved.index = 99;
        assert_eq!(a, scenario_store_key(&spec, &moved).unwrap());

        // Changing the seed, the script or the config changes the key.
        let mut reseeded = keys[0].clone();
        reseeded.seed ^= 1;
        assert_ne!(a, scenario_store_key(&spec, &reseeded).unwrap());
        let mut edited = spec.clone();
        edited.script.pop();
        assert_ne!(a, scenario_store_key(&edited, &keys[0]).unwrap());
        let mut demanding = spec.clone();
        demanding.demand_factor += 0.5;
        assert_ne!(a, scenario_store_key(&demanding, &keys[0]).unwrap());
    }

    #[test]
    fn shard_parse_and_partition() {
        assert_eq!(Shard::parse("2/4"), Ok(Shard::new(2, 4).unwrap()));
        assert!(Shard::parse("0/4").is_err());
        assert!(Shard::parse("5/4").is_err());
        assert!(Shard::parse("x/4").is_err());
        assert!(Shard::parse("14").is_err());

        // Every scenario belongs to exactly one shard.
        let spec = CampaignSpec::small_demo();
        for key in spec.scenarios() {
            let sk = scenario_store_key(&spec, &key).unwrap();
            let owners = (1..=4)
                .filter(|&i| Shard::new(i, 4).unwrap().contains(&sk))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn storeless_run_matches_plain_runner() {
        let spec = tiny_spec();
        let stored = run_campaign_store(&spec, &StoreOptions::default()).unwrap();
        let plain = crate::runner::run_campaign(&spec, 1).unwrap().report();
        assert_eq!(stored.report, plain);
        assert_eq!(stored.stats.hits, 0);
        assert_eq!(stored.stats.executed, 1);
        assert_eq!(stored.stats.selected, 1);
    }

    #[test]
    fn merge_rejects_duplicates_gaps_and_mismatches() {
        let spec = tiny_spec();
        let report = crate::runner::run_campaign(&spec, 1).unwrap().report();
        assert_eq!(merge_reports(vec![]).unwrap_err(), MergeError::Empty);
        assert_eq!(
            merge_reports(vec![report.clone(), report.clone()]).unwrap_err(),
            MergeError::DuplicateIndex(0)
        );
        let mut renamed = report.clone();
        renamed.campaign = "other".to_string();
        assert!(matches!(
            merge_reports(vec![report.clone(), renamed]).unwrap_err(),
            MergeError::NameMismatch(_, _)
        ));
        let mut gapped = report.clone();
        gapped.scenarios[0].index = 1;
        assert_eq!(
            merge_reports(vec![gapped]).unwrap_err(),
            MergeError::MissingIndex(0)
        );
        // The identity merge reproduces the report exactly.
        assert_eq!(merge_reports(vec![report.clone()]).unwrap(), report);
    }
}
