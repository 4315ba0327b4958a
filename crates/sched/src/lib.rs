//! Static cyclic scheduling for distributed embedded systems.
//!
//! This crate implements the scheduling substrate of Pop et al. (DAC
//! 2001): given an architecture, a set of applications with a fixed
//! *mapping* (process → processing element) and optional *placement
//! hints*, it builds one static cyclic schedule over the hyperperiod that
//! covers every instance of every process graph, placing processes into
//! processor gaps and messages into TDMA slots.
//!
//! * [`mapping`] — the [`Mapping`] (process → PE) and [`Hints`] (the "use
//!   the n-th slack" placement hints that the paper's design
//!   transformations manipulate).
//! * [`pe_timeline`] — per-processor busy/gap interval bookkeeping.
//! * [`job`] — hyperperiod expansion: each process graph with period `T`
//!   contributes `H/T` job instances.
//! * [`priority`] — partial-critical-path priorities for list scheduling.
//! * [`list`] — the one-shot list-scheduler entry point ([`schedule`]).
//! * [`engine`] — the incremental evaluation engine behind it:
//!   [`FrozenBase`] bakes the frozen schedule once, and a [`Scheduler`]
//!   bound to the current applications finds what changed in each run's
//!   design, patches its job arena in place, resets the timelines from
//!   the base and re-places the current application (see the [`engine`]
//!   module docs).
//! * [`table`] — the resulting [`ScheduleTable`] plus exhaustive validity
//!   checking and replication of frozen schedules to longer horizons.
//! * [`slack`] — extraction of the slack profile consumed by the design
//!   metrics (C1/C2) of `incdes-metrics`.
//! * [`analysis`] — response-time/laxity/utilization reports on finished
//!   schedules ([`ScheduleReport`]).
//!
//! # Example
//!
//! ```
//! use incdes_model::prelude::*;
//! use incdes_sched::{schedule, AppSpec, Hints, Mapping};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = Architecture::builder()
//!     .pe("N1")
//!     .pe("N2")
//!     .bus(BusConfig::uniform_round(2, Time::new(10), 1)?)
//!     .build()?;
//!
//! let mut g = ProcessGraph::new("g", Time::new(100), Time::new(100));
//! let a = g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
//! let b = g.add_process(Process::new("b").wcet(PeId(1), Time::new(6)));
//! g.add_message(a, b, Message::new("m", 4))?;
//! let app = Application::new("demo", vec![g]);
//!
//! let mut mapping = Mapping::new();
//! mapping.assign(ProcRef::new(0, a), PeId(0));
//! mapping.assign(ProcRef::new(0, b), PeId(1));
//!
//! let hints = Hints::empty();
//! let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
//! let table = schedule(&arch, &[spec], None, Time::new(100))?;
//! assert!(table.is_deadline_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod job;
pub mod list;
pub mod mapping;
pub mod pe_timeline;
pub mod priority;
pub mod slack;
pub mod table;

pub use analysis::{InstanceResponse, PeLoad, ScheduleReport};
pub use engine::{FrozenBase, Placements, Run, Scheduler};
pub use job::JobId;
pub use list::{schedule, AppSpec, SchedError};
pub use mapping::{Hints, Mapping, MsgRef};
pub use pe_timeline::PeTimeline;
pub use slack::SlackProfile;
pub use table::{
    job_sort_key, message_sort_key, ScheduleTable, ScheduledJob, ScheduledMessage, TableError,
};
