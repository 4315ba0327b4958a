//! Design criteria and metrics for incremental design (Pop et al., DAC 2001).
//!
//! Requirement (b) of the paper — *new future applications can be mapped
//! on the resulting system* — is quantified by two criteria:
//!
//! 1. **Slack clustering** ([`criteria::c1_processes`],
//!    [`criteria::c1_messages`]): how much of the *largest expected future
//!    application* cannot be packed into the current slack. Computed by
//!    bin packing ([`binpack`]) with the best-fit policy: future processes
//!    are the objects, slack gaps are the containers. Reported in percent
//!    (0 % = the whole future application fits, best).
//! 2. **Slack distribution** ([`criteria::c2_processes`],
//!    [`criteria::c2_messages`]): whether every period of length `Tmin`
//!    contains enough slack for the most demanding future application.
//!    `C2P` is the sum over processors of the minimum per-window slack;
//!    the objective penalizes `max(0, tneed − C2P)` (and the same for the
//!    bus with `bneed`/`C2m`).
//!
//! The combined [`objective::DesignCost`] is
//!
//! ```text
//! C = w1P·C1P + w1m·C1m + w2P·max(0, tneed − C2P) + w2m·max(0, bneed − C2m)
//! ```
//!
//! # Example
//!
//! ```
//! use incdes_model::{Architecture, BusConfig, FutureProfile, Time};
//! use incdes_sched::{ScheduleTable, SlackProfile};
//! use incdes_metrics::objective::{evaluate, Weights};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::builder()
//!     .pe("N1")
//!     .pe("N2")
//!     .bus(BusConfig::uniform_round(2, Time::new(10), 1)?)
//!     .build()?;
//! // An empty system: all slack free, so the future application fits.
//! let table = ScheduleTable::empty(Time::new(480));
//! let slack = SlackProfile::from_table(&arch, &table);
//! let cost = evaluate(&arch, &slack, &FutureProfile::slide_example(), &Weights::default());
//! assert_eq!(cost.c1_processes, 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binpack;
pub mod c1cache;
pub mod criteria;
pub mod objective;

pub use binpack::{item_runs, pack, CapacityHistogram, FitPolicy, PackOutcome};
pub use c1cache::C1Cache;
pub use criteria::{
    c1_messages, c1_processes, c2_intervals, c2_messages, c2_processes, c2_processes_of,
};
pub use objective::{evaluate, evaluate_gaps, evaluate_with_c1_delta, DesignCost, Weights};
