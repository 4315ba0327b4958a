//! `incdes` — incremental mapping and static cyclic scheduling for
//! distributed embedded systems.
//!
//! This is the facade crate of the workspace; it re-exports the full public
//! API. See [`incdes_core`] for the incremental design session,
//! [`incdes_mapping`] for the mapping strategies (IM/AH/MH/SA),
//! [`incdes_metrics`] for the C1/C2 design metrics,
//! [`incdes_synth`] for the synthetic benchmark generator,
//! and [`incdes_explore`] for deterministic scenario campaigns over all
//! of the above.

pub use incdes_core as core;
pub use incdes_explore as explore;
pub use incdes_graph as graph;
pub use incdes_mapping as mapping;
pub use incdes_metrics as metrics;
pub use incdes_model as model;
pub use incdes_obs as obs;
pub use incdes_sched as sched;
pub use incdes_synth as synth;
pub use incdes_tdma as tdma;

pub use incdes_core::prelude;
