//! The random system generator.

use incdes_model::{
    Application, Architecture, BusConfig, FutureProfile, Histogram, Message, PeId, Process,
    ProcessGraph, Time,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Distribution parameters of the generator.
///
/// The defaults describe the scale used throughout the repository's
/// experiments: a 10-node TTP architecture and harmonic periods, sized so
/// that an "existing 400 processes + current up to 320" system lands at a
/// realistic utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SynthConfig {
    /// Number of processing elements.
    pub pe_count: u32,
    /// TDMA slot length (one slot per PE per round).
    pub slot_length: Time,
    /// Rounds per bus cycle.
    pub rounds: usize,
    /// Bus rate in bytes per tick.
    pub bytes_per_tick: u32,
    /// Harmonic period set; every period must be a multiple of the bus
    /// cycle (`pe_count · slot_length · rounds`).
    pub periods: Vec<Time>,
    /// Inclusive range of processes per process graph.
    pub graph_size: (usize, usize),
    /// Inclusive range of graph depth (number of layers).
    pub depth: (usize, usize),
    /// Inclusive range of the base WCET of a process.
    pub wcet: (u64, u64),
    /// Probability that a given PE is allowed for a process (at least one
    /// is always allowed).
    pub pe_allow_prob: f64,
    /// Heterogeneity: per-PE WCET factor drawn from `[1−s, 1+s]`.
    pub wcet_spread: f64,
    /// Inclusive range of message payload sizes in bytes. The maximum must
    /// fit a slot at the configured rate.
    pub msg_bytes: (u32, u32),
    /// Probability of an extra cross-layer edge per node.
    pub edge_extra_prob: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            pe_count: 10,
            slot_length: Time::new(8),
            rounds: 1,
            bytes_per_tick: 8,
            periods: vec![Time::new(480), Time::new(960)],
            graph_size: (10, 25),
            depth: (2, 4),
            wcet: (2, 9),
            pe_allow_prob: 0.5,
            wcet_spread: 0.3,
            msg_bytes: (2, 8),
            edge_extra_prob: 0.15,
        }
    }
}

/// Error from the generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// A configuration field is degenerate (empty range, zero count, ...).
    BadConfig(&'static str),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::BadConfig(what) => write!(f, "bad generator configuration: {what}"),
        }
    }
}

impl std::error::Error for SynthError {}

impl SynthConfig {
    /// The bus cycle length implied by the configuration.
    pub fn cycle_length(&self) -> Time {
        Time::new(self.pe_count as u64 * self.slot_length.ticks() * self.rounds as u64)
    }

    fn check(&self) -> Result<(), SynthError> {
        if self.pe_count == 0 {
            return Err(SynthError::BadConfig("pe_count is zero"));
        }
        if self.slot_length.is_zero() || self.rounds == 0 {
            return Err(SynthError::BadConfig("empty bus cycle"));
        }
        if self.bytes_per_tick == 0 {
            return Err(SynthError::BadConfig("bytes_per_tick is zero"));
        }
        if self.periods.is_empty() {
            return Err(SynthError::BadConfig("no periods"));
        }
        let cycle = self.cycle_length();
        for p in &self.periods {
            if p.is_zero() || !(*p % cycle).is_zero() {
                return Err(SynthError::BadConfig(
                    "period not a multiple of the bus cycle",
                ));
            }
        }
        if self.graph_size.0 == 0 || self.graph_size.0 > self.graph_size.1 {
            return Err(SynthError::BadConfig("bad graph size range"));
        }
        if self.depth.0 == 0 || self.depth.0 > self.depth.1 {
            return Err(SynthError::BadConfig("bad depth range"));
        }
        if self.wcet.0 == 0 || self.wcet.0 > self.wcet.1 {
            return Err(SynthError::BadConfig("bad WCET range"));
        }
        if !(0.0..=1.0).contains(&self.pe_allow_prob) || !(0.0..1.0).contains(&self.wcet_spread) {
            return Err(SynthError::BadConfig("bad probability"));
        }
        if self.msg_bytes.0 > self.msg_bytes.1 {
            return Err(SynthError::BadConfig("bad message size range"));
        }
        let max_tx = (self.msg_bytes.1 as u64).div_ceil(self.bytes_per_tick as u64);
        if max_tx > self.slot_length.ticks() {
            return Err(SynthError::BadConfig("largest message exceeds the slot"));
        }
        Ok(())
    }
}

/// Builds the architecture described by `cfg`.
///
/// # Errors
///
/// [`SynthError::BadConfig`] if the configuration is degenerate.
pub fn generate_architecture(cfg: &SynthConfig) -> Result<Architecture, SynthError> {
    cfg.check()?;
    let mut b = Architecture::builder();
    for i in 0..cfg.pe_count {
        b = b.pe(format!("N{i}"));
    }
    let bus = BusConfig::uniform_round(cfg.pe_count, cfg.slot_length, cfg.rounds)
        .map_err(|_| SynthError::BadConfig("bus rejected"))?;
    let bus = BusConfig::new(bus.rounds, cfg.bytes_per_tick)
        .map_err(|_| SynthError::BadConfig("bus rejected"))?;
    b.bus(bus)
        .build()
        .map_err(|_| SynthError::BadConfig("architecture rejected"))
}

/// Generates one process graph of exactly `size` processes.
///
/// The graph is layered: each non-root node receives one parent from the
/// previous layer (guaranteeing a DAG with bounded depth) plus extra
/// cross-layer edges with probability [`SynthConfig::edge_extra_prob`].
///
/// # Errors
///
/// [`SynthError::BadConfig`] if the configuration is degenerate.
pub fn generate_graph<R: Rng>(
    cfg: &SynthConfig,
    name: &str,
    size: usize,
    rng: &mut R,
) -> Result<ProcessGraph, SynthError> {
    cfg.check()?;
    if size == 0 {
        return Err(SynthError::BadConfig("graph size is zero"));
    }
    let period = cfg.periods[rng.gen_range(0..cfg.periods.len())];
    let mut g = ProcessGraph::new(name, period, period);

    // Layer assignment: layer 0 gets the first node; the rest are spread
    // uniformly over `depth` layers.
    let depth = rng.gen_range(cfg.depth.0..=cfg.depth.1).min(size);
    let mut layer_of = Vec::with_capacity(size);
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); depth];
    for i in 0..size {
        let l = if i < depth {
            i
        } else {
            rng.gen_range(0..depth)
        };
        layer_of.push(l);
        layers[l].push(i);
    }

    // Processes with heterogeneous WCETs.
    let mut nodes = Vec::with_capacity(size);
    for i in 0..size {
        let base = rng.gen_range(cfg.wcet.0..=cfg.wcet.1);
        let mut p = Process::new(format!("{name}.p{i}"));
        let mut any = false;
        for pe in 0..cfg.pe_count {
            if rng.gen_bool(cfg.pe_allow_prob) {
                let factor = 1.0 + rng.gen_range(-cfg.wcet_spread..=cfg.wcet_spread);
                let w = ((base as f64 * factor).round() as u64).max(1);
                p = p.wcet(PeId(pe), Time::new(w));
                any = true;
            }
        }
        if !any {
            let pe = rng.gen_range(0..cfg.pe_count);
            p = p.wcet(PeId(pe), Time::new(base));
        }
        nodes.push(g.add_process(p));
    }

    // Structural edges: one parent from the previous layer per node.
    let mut edge_no = 0usize;
    for l in 1..depth {
        for &i in &layers[l] {
            let parents = &layers[l - 1];
            let parent = parents[rng.gen_range(0..parents.len())];
            let bytes = rng.gen_range(cfg.msg_bytes.0..=cfg.msg_bytes.1);
            g.add_message(
                nodes[parent],
                nodes[i],
                Message::new(format!("m{edge_no}"), bytes),
            )
            .expect("node ids are valid");
            edge_no += 1;
        }
    }
    // Extra forward edges.
    for i in 0..size {
        if layer_of[i] == 0 || !rng.gen_bool(cfg.edge_extra_prob) {
            continue;
        }
        let earlier: Vec<usize> = (0..size).filter(|&j| layer_of[j] < layer_of[i]).collect();
        if let Some(&src) = earlier.get(rng.gen_range(0..earlier.len())) {
            let bytes = rng.gen_range(cfg.msg_bytes.0..=cfg.msg_bytes.1);
            g.add_message(
                nodes[src],
                nodes[i],
                Message::new(format!("m{edge_no}"), bytes),
            )
            .expect("node ids are valid");
            edge_no += 1;
        }
    }
    Ok(g)
}

/// Generates an application of exactly `process_count` processes, split
/// into graphs whose sizes are drawn from [`SynthConfig::graph_size`].
///
/// # Errors
///
/// [`SynthError::BadConfig`] if the configuration is degenerate or
/// `process_count` is zero.
pub fn generate_application<R: Rng>(
    cfg: &SynthConfig,
    name: &str,
    process_count: usize,
    rng: &mut R,
) -> Result<Application, SynthError> {
    cfg.check()?;
    if process_count == 0 {
        return Err(SynthError::BadConfig("process count is zero"));
    }
    let mut graphs = Vec::new();
    let mut remaining = process_count;
    let mut gi = 0usize;
    while remaining > 0 {
        let lo = cfg.graph_size.0.min(remaining);
        let hi = cfg.graph_size.1.min(remaining);
        let mut size = rng.gen_range(lo..=hi);
        // Avoid leaving a tail smaller than the minimum graph size.
        if remaining - size != 0 && remaining - size < cfg.graph_size.0 {
            size = remaining;
        }
        graphs.push(generate_graph(cfg, &format!("{name}.g{gi}"), size, rng)?);
        remaining -= size;
        gi += 1;
    }
    Ok(Application::new(name, graphs))
}

/// Multiplier between the largest current-application WCET and the
/// largest expected future WCET. Slide 10 characterizes future
/// applications by WCETs substantially larger than a typical current
/// process (20–150 units) — large future processes are what make the
/// slack-*clustering* criterion C1 bite.
pub const FUTURE_WCET_FACTOR: u64 = 3;

/// The range of *future* process WCETs implied by a generator
/// configuration: from the small end of the current range up to
/// [`FUTURE_WCET_FACTOR`] times its large end.
pub fn future_wcet_range(cfg: &SynthConfig) -> (u64, u64) {
    (cfg.wcet.0, cfg.wcet.1 * FUTURE_WCET_FACTOR)
}

/// The future-application family profile consistent with `cfg`, for a
/// most-demanding future application of `process_count` processes.
///
/// * `t_min` — the smallest period of the generator;
/// * `t_need` — `process_count ·` mean histogram WCET (the whole future
///   application re-arrives every `t_min`);
/// * `b_need` — expected bus demand: roughly one message per non-root
///   process, of mean histogram size, of which about half cross PEs;
/// * histograms — four values with falling probabilities (slide 10's
///   shape); process WCETs span [`future_wcet_range`], reaching well above
///   the current applications' sizes so the C1 clustering metric is
///   meaningful.
pub fn future_profile_for(cfg: &SynthConfig, process_count: usize) -> FutureProfile {
    let t_min = cfg.periods.iter().copied().min().unwrap_or(Time::new(1));
    let (w_lo, w_hi) = future_wcet_range(cfg);
    let wcet_hist = spread_histogram_u64(w_lo, w_hi);
    let msg_hist = spread_histogram_u32(cfg.msg_bytes.0, cfg.msg_bytes.1);
    let mean_wcet: f64 = wcet_hist
        .probabilities()
        .into_iter()
        .map(|(v, p)| v.as_f64() * p)
        .sum();
    let mean_msg: f64 = msg_hist
        .probabilities()
        .into_iter()
        .map(|(v, p)| v as f64 * p)
        .sum();
    let t_need = Time::new((process_count as f64 * mean_wcet).round() as u64);
    let tx_per_byte = 1.0 / cfg.bytes_per_tick as f64;
    let b_need = Time::new((process_count as f64 * mean_msg * tx_per_byte * 0.5).round() as u64);
    FutureProfile::new(t_min, t_need, b_need, wcet_hist, msg_hist)
}

fn spread_histogram_u64(lo: u64, hi: u64) -> Histogram<Time> {
    let vals = four_points(lo, hi);
    Histogram::new(vec![
        (Time::new(vals[0]), 0.40),
        (Time::new(vals[1]), 0.30),
        (Time::new(vals[2]), 0.20),
        (Time::new(vals[3]), 0.10),
    ])
    .expect("static weights are valid")
}

fn spread_histogram_u32(lo: u32, hi: u32) -> Histogram<u32> {
    let vals = four_points(lo as u64, hi as u64);
    Histogram::new(vec![
        (vals[0] as u32, 0.35),
        (vals[1] as u32, 0.30),
        (vals[2] as u32, 0.20),
        (vals[3] as u32, 0.15),
    ])
    .expect("static weights are valid")
}

fn four_points(lo: u64, hi: u64) -> [u64; 4] {
    let span = hi.saturating_sub(lo);
    [lo, lo + span / 3, lo + span * 2 / 3, hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::validate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_config_is_valid() {
        assert!(SynthConfig::default().check().is_ok());
        assert_eq!(SynthConfig::default().cycle_length(), Time::new(80));
    }

    #[test]
    fn bad_configs_rejected() {
        let c = SynthConfig {
            pe_count: 0,
            ..SynthConfig::default()
        };
        assert!(matches!(
            generate_architecture(&c),
            Err(SynthError::BadConfig(_))
        ));

        // Not a multiple of the 80-tick cycle.
        let c = SynthConfig {
            periods: vec![Time::new(100)],
            ..SynthConfig::default()
        };
        assert!(c.check().is_err());

        // Bigger than the slot.
        let c = SynthConfig {
            msg_bytes: (2, 100),
            ..SynthConfig::default()
        };
        assert!(c.check().is_err());

        let c = SynthConfig {
            wcet: (0, 5),
            ..SynthConfig::default()
        };
        assert!(c.check().is_err());
    }

    #[test]
    fn architecture_matches_config() {
        let cfg = SynthConfig::default();
        let arch = generate_architecture(&cfg).unwrap();
        assert_eq!(arch.pe_count(), 10);
        assert_eq!(arch.bus().cycle_length(), Time::new(80));
        assert_eq!(arch.bus().bytes_per_tick, 8);
    }

    #[test]
    fn graph_is_valid_and_sized() {
        let cfg = SynthConfig::default();
        let arch = generate_architecture(&cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for size in [1usize, 2, 5, 20] {
            let g = generate_graph(&cfg, "t", size, &mut rng).unwrap();
            assert_eq!(g.process_count(), size);
            assert!(g.is_acyclic());
            let app = Application::new("t", vec![g]);
            validate::check_application(&app, &arch).unwrap();
        }
    }

    #[test]
    fn application_exact_process_count() {
        let cfg = SynthConfig::default();
        let arch = generate_architecture(&cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in [1usize, 7, 40, 163, 400] {
            let app = generate_application(&cfg, "a", n, &mut rng).unwrap();
            assert_eq!(app.process_count(), n, "requested {n}");
            validate::check_application(&app, &arch).unwrap();
            // No graph smaller than the configured minimum unless the app
            // itself is smaller.
            for g in &app.graphs {
                assert!(g.process_count() >= cfg.graph_size.0.min(n));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::default();
        let a = generate_application(&cfg, "a", 60, &mut ChaCha8Rng::seed_from_u64(42)).unwrap();
        let b = generate_application(&cfg, "a", 60, &mut ChaCha8Rng::seed_from_u64(42)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = generate_application(&cfg, "a", 60, &mut ChaCha8Rng::seed_from_u64(43)).unwrap();
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn future_profile_shape() {
        let cfg = SynthConfig::default();
        let p = future_profile_for(&cfg, 80);
        assert_eq!(p.t_min, Time::new(480));
        // Future WCET range (2, 9*3=27): values 2,10,18,27, weights
        // .4/.3/.2/.1 → mean 10.1 → t_need = 80 * 10.1 = 808.
        assert_eq!(p.t_need, Time::new(808));
        assert_eq!(p.wcet_hist.bins()[3].0, Time::new(27));
        assert!(p.b_need.ticks() > 0);
        assert_eq!(p.wcet_hist.bins().len(), 4);
    }

    #[test]
    fn periods_drawn_from_config() {
        let cfg = SynthConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let app = generate_application(&cfg, "a", 200, &mut rng).unwrap();
        for g in &app.graphs {
            assert!(cfg.periods.contains(&g.period));
            assert_eq!(g.deadline, g.period);
        }
    }
}
