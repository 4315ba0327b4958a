//! The traced run: outside-in timings of the benchmark's own calls into
//! each module's public functions, plus counter deltas around each
//! request.
//!
//! For every request the tracer re-issues it once more with the
//! deterministic counters (`incdes_obs::counters`) snapshotted around the
//! call, then times the calls a mapping step is made of — replicate,
//! bake, initial mapping, a cold evaluation, one full list schedule,
//! slack derivation, C1, C2 and the objective — on the request's real
//! instance and final design. Nothing inside the program is armed, so
//! the traced request costs what the untraced one does; the difference
//! between the two is reported as the tracing overhead.

use crate::scenario::Env;
use crate::{Executed, Request};
use incdes_core::System;
use incdes_mapping::{
    initial_mapping, run_strategy, MappingContext, RunStats, SearchParallelism, Solution,
};
use incdes_metrics::{c1_messages, c1_processes, c2_messages, c2_processes};
use incdes_model::time::hyperperiod;
use incdes_model::AppId;
use incdes_obs::counters::{self, Counter, CounterSnapshot};
use incdes_sched::{schedule, AppSpec, FrozenBase, SlackProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of every per-call measurement; the request's value is
/// their median.
const REPS: usize = 5;

/// Per-layer measurements of a traced run.
pub struct Tracer {
    /// Per-request medians of each per-call layer, in µs.
    calls: BTreeMap<&'static str, Vec<f64>>,
    /// Counter deltas around every traced request.
    counters: CounterSnapshot,
    /// Counter deltas around the requests that produced a design (and so
    /// report strategy statistics): the population of per-evaluation and
    /// per-schedule ratios.
    design_counters: CounterSnapshot,
    stats: Vec<RunStats>,
    requests: usize,
    untraced: Duration,
    traced: Duration,
    /// Per-request modelled share of strategy time the outside per-call
    /// costs explain.
    cover: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            calls: BTreeMap::new(),
            counters: CounterSnapshot::default(),
            design_counters: CounterSnapshot::default(),
            stats: Vec::new(),
            requests: 0,
            untraced: Duration::ZERO,
            traced: Duration::ZERO,
            cover: Vec::new(),
        }
    }

    /// [`Tracer::measure_with`] for calls that need no fresh input.
    fn measure<T>(&mut self, layer: &'static str, mut call: impl FnMut() -> T) -> T {
        self.measure_with(layer, || (), |()| call())
    }

    /// Times `call` [`REPS`] times on fresh inputs from `input` (made
    /// outside the timed window), records the median under `layer`, and
    /// returns the last result.
    fn measure_with<I, T>(
        &mut self,
        layer: &'static str,
        mut input: impl FnMut() -> I,
        mut call: impl FnMut(I) -> T,
    ) -> T {
        let mut micros = Vec::with_capacity(REPS);
        let mut last = None;
        for _ in 0..REPS {
            let arg = input();
            let start = Instant::now();
            let out = black_box(call(black_box(arg)));
            micros.push(start.elapsed().as_secs_f64() * 1e6);
            last = Some(out);
        }
        self.calls
            .entry(layer)
            .or_default()
            .push(crate::median(&mut micros));
        last.expect("REPS > 0")
    }

    /// Traces a request: re-issues it through `issue` with counter
    /// snapshots around the call (`untraced` is the same request's time
    /// without them), then times the per-call layers on its instance.
    pub fn request(
        &mut self,
        env: &Env,
        system: &System,
        req: &Request,
        untraced: Duration,
        issue: impl FnOnce(&System) -> Executed,
    ) {
        let before = counters::snapshot();
        let done = issue(system);
        let delta = counters::snapshot().delta_since(&before);
        if done.reply.is_err() {
            return;
        }
        self.requests += 1;
        self.untraced += untraced;
        self.traced += done.elapsed;
        self.counters = self.counters.merge(&delta);
        if let Some(stats) = done.stats {
            self.stats.push(stats);
            self.design_counters = self.design_counters.merge(&delta);
        }

        let app = &req.app;
        let horizon = hyperperiod(
            std::iter::once(system.horizon()).chain(app.graphs.iter().map(|g| g.period)),
        )
        .expect("an answered request has a hyperperiod");
        let id = AppId(system.app_count() as u32);
        let arch = &env.arch;
        let frozen = self.measure("sched.replicate_us", || {
            system.table().replicate_to(arch, horizon)
        });
        let frozen = frozen.expect("an answered request replicates");
        let base = self.measure("sched.bake_us", || {
            FrozenBase::new(arch, Some(&frozen), horizon)
        });
        let base = Arc::new(base.expect("an answered request bakes"));
        let fresh = || {
            MappingContext::new(
                arch,
                id,
                app,
                Some(&frozen),
                horizon,
                &env.future,
                &env.weights,
            )
            .with_frozen_base(Arc::clone(&base))
            .with_parallelism(SearchParallelism::Sequential)
        };
        self.measure_with("mapping.im_us", fresh, |ctx| initial_mapping(&ctx).is_ok());
        let solution: Option<Solution> = match &done.after {
            Some(after) => after.committed().last().map(|c| c.solution.clone()),
            None => run_strategy(&fresh(), &req.strategy)
                .ok()
                .map(|o| o.solution),
        };
        let Some(solution) = solution else {
            return;
        };
        self.measure_with("mapping.eval_cold_us", fresh, |ctx| {
            ctx.evaluate(&solution).is_ok()
        });
        let spec = [AppSpec::new(id, app, &solution.mapping, &solution.hints)];
        let table = self.measure("sched.list_us", || {
            schedule(arch, &spec, Some(&frozen), horizon)
        });
        let table = table.expect("the final design schedules");
        let slack = self.measure("sched.slack_us", || SlackProfile::from_table(arch, &table));
        let policy = env.weights.fit_policy;
        self.measure("metrics.c1_us", || {
            c1_processes(&slack, &env.future, policy)
                + c1_messages(arch, &slack, &env.future, policy)
        });
        self.measure("metrics.c2_us", || {
            c2_processes(&slack, env.future.t_min) + c2_messages(&slack, env.future.t_min)
        });
        self.measure("metrics.objective_us", || {
            incdes_metrics::evaluate(arch, &slack, &env.future, &env.weights)
        });
        if let Some(stats) = done.stats.filter(|s| !s.elapsed.is_zero()) {
            let last = |layer: &str| self.calls[layer].last().copied().unwrap_or(0.0);
            let per_schedule =
                last("sched.list_us") + last("sched.slack_us") + last("metrics.objective_us");
            self.cover.push(
                stats.raw_schedules as f64 * per_schedule / (stats.elapsed.as_secs_f64() * 1e6),
            );
        }
    }

    /// Every per-layer metric as `(name, value, unit)`. `pe_count` sizes
    /// the C2 term count (one per PE plus the bus) per scored schedule;
    /// `generate` and `commit` are each scenario's set-up layer times.
    pub fn metrics(
        &self,
        pe_count: usize,
        generate: &[Duration],
        commit: &[Duration],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let median_ms = |d: &[Duration]| {
            let mut ms: Vec<f64> = d.iter().map(|d| d.as_secs_f64() * 1e3).collect();
            crate::median(&mut ms)
        };
        let n = self.requests.max(1) as f64;
        let per_request = |counter: Counter| self.counters.get(counter) as f64 / n;
        let c = |counter: Counter| self.design_counters.get(counter) as f64;
        let evals: f64 = self.stats.iter().map(|s| s.evaluations as f64).sum();
        let raw: f64 = self.stats.iter().map(|s| s.raw_schedules as f64).sum();
        let strategy_us: f64 = self
            .stats
            .iter()
            .map(|s| s.elapsed.as_secs_f64() * 1e6)
            .sum();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        let call = |layer: &str| self.calls.get(layer).map_or(0.0, |v| mean(v));
        let stats_n = self.stats.len().max(1) as f64;
        let aliased = c(Counter::SlackGapsAliased);
        let materialized = c(Counter::SlackGapsMaterialized);
        vec![
            ("synth.generate_ms", median_ms(generate), "ms"),
            ("core.base_commit_ms", median_ms(commit), "ms"),
            ("sched.replicate_us", call("sched.replicate_us"), "us"),
            ("sched.bake_us", call("sched.bake_us"), "us"),
            ("sched.list_us", call("sched.list_us"), "us"),
            ("sched.slack_us", call("sched.slack_us"), "us"),
            ("sched.raw_schedules", raw / stats_n, "count"),
            (
                "sched.delta_schedules",
                self.stats
                    .iter()
                    .map(|s| s.delta_schedules as f64)
                    .sum::<f64>()
                    / stats_n,
                "count",
            ),
            (
                "sched.delta_rebases",
                per_request(Counter::DeltaRebases),
                "count",
            ),
            (
                "sched.spliced_steps",
                per_request(Counter::SpliceStepsSpliced),
                "count",
            ),
            (
                "sched.record_cache_hits",
                per_request(Counter::RecordCacheHits),
                "count",
            ),
            (
                "sched.heap_pops_per_eval",
                ratio(c(Counter::HeapPops), evals),
                "count/eval",
            ),
            (
                "sched.gaps_materialized_per_eval",
                ratio(materialized, evals),
                "count/eval",
            ),
            (
                "sched.gaps_alias_ratio",
                ratio(aliased, aliased + materialized),
                "ratio",
            ),
            (
                "sched.arena_patched",
                per_request(Counter::ArenaPatched),
                "count",
            ),
            (
                "sched.arena_expansions",
                per_request(Counter::ArenaExpansions),
                "count",
            ),
            ("sched.base_bakes", per_request(Counter::BaseBakes), "count"),
            ("mapping.strategy_ms", strategy_us / stats_n / 1e3, "ms"),
            ("mapping.evals", evals / stats_n, "count"),
            ("mapping.eval_us", ratio(strategy_us, evals), "us"),
            (
                "mapping.memo_hit_ratio",
                ratio(c(Counter::MemoHits), evals),
                "ratio",
            ),
            ("mapping.im_us", call("mapping.im_us"), "us"),
            ("mapping.eval_cold_us", call("mapping.eval_cold_us"), "us"),
            ("mapping.outside_cover", mean(&self.cover), "ratio"),
            ("metrics.c1_us", call("metrics.c1_us"), "us"),
            ("metrics.c2_us", call("metrics.c2_us"), "us"),
            ("metrics.objective_us", call("metrics.objective_us"), "us"),
            (
                "metrics.c1_patched",
                ratio(c(Counter::C1Patched), raw),
                "count/sched",
            ),
            (
                "metrics.c1_repacked",
                ratio(c(Counter::C1Repacked), raw),
                "count/sched",
            ),
            (
                "metrics.c2_identity_ratio",
                ratio(c(Counter::C2IdentityHits), raw * (pe_count + 1) as f64),
                "ratio",
            ),
            (
                "metrics.c2_windows_recomputed",
                ratio(c(Counter::C2WindowsRecomputed), raw),
                "count/sched",
            ),
            (
                "trace.overhead_pct",
                100.0 * (ratio(self.traced.as_secs_f64(), self.untraced.as_secs_f64()) - 1.0),
                "%",
            ),
        ]
    }
}
