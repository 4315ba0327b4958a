//! `incdes_obs` — the out-of-band observability layer.
//!
//! Every instrumented crate (`incdes_sched`, `incdes_metrics`,
//! `incdes_mapping`, `incdes_explore`) reports into two planes that are
//! invisible to the byte-stable artifacts (campaign reports, tables):
//!
//! * **[`counters`]** — deterministic monotonic event counters (memo
//!   hits, arena patches and expansions, C1 repacks, heap traffic). They are pure functions of
//!   the work performed, so tests can assert exact values and two runs
//!   of the same workload always agree — including across thread
//!   counts, because worker tallies are merged with an associative
//!   element-wise sum. Always compiled; the storage is plain
//!   thread-local `Cell`s, no atomics on the hot path.
//! * **[`phase`]** — wall-clock RAII scopes around the engine phases
//!   (expand/re-place/slack/objective plus bake and priority refresh),
//!   aggregated into per-phase log₂-nanosecond
//!   histograms. The timers are compiled only under the `obs-wallclock` cargo
//!   feature and armed only after [`phase::set_enabled`]`(true)`, so a
//!   default build pays nothing and a feature build pays one relaxed
//!   atomic load per scope while disabled.
//!
//! Nothing in this crate writes to stdout: all output goes to stderr or
//! to side files chosen by the caller, which is what keeps the
//! byte-identical report guarantee intact under profiling.

pub mod counters;
pub mod phase;
