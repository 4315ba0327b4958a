//! Session persistence: save and restore an incremental design session.
//!
//! An incremental design process spans months — version `N` is shipped,
//! and version `N+1` starts from its frozen state. [`SystemSnapshot`] is
//! the serializable form of a [`System`]; round-tripping through it (or
//! through JSON with the `serde` machinery) reproduces the session
//! bit-for-bit, including the committed schedule table.

use crate::system::{CommittedApp, System};
use incdes_mapping::Solution;
use incdes_model::{AppId, Application, Architecture};
use incdes_sched::{Mapping, ScheduleTable, TableError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serializable snapshot of a [`System`]. Unknown fields are errors, so
/// a misspelt key is reported instead of silently dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SystemSnapshot {
    /// The architecture.
    pub arch: Architecture,
    /// Committed applications with their design alternatives and
    /// modification costs, in commit order.
    pub apps: Vec<SnapshotApp>,
    /// The committed schedule table.
    pub table: ScheduleTable,
}

/// One committed application inside a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SnapshotApp {
    /// The application.
    pub app: Application,
    /// Its committed design alternative.
    pub solution: Solution,
    /// Its modification cost.
    pub modification_cost: f64,
    /// Whether it has been decommissioned.
    #[serde(default)]
    pub retired: bool,
}

/// Error restoring a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The stored table does not validate against the stored applications
    /// and mappings (corrupted or hand-edited snapshot).
    Corrupted(TableError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Corrupted(e) => write!(f, "snapshot does not validate: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl SystemSnapshot {
    /// Captures the current state of a session.
    pub fn capture(system: &System) -> Self {
        SystemSnapshot {
            arch: system.arch().clone(),
            apps: system
                .committed()
                .iter()
                .map(|c| SnapshotApp {
                    app: c.app.clone(),
                    solution: c.solution.clone(),
                    modification_cost: c.modification_cost,
                    retired: c.retired,
                })
                .collect(),
            table: system.table().clone(),
        }
    }

    /// Restores a session, re-validating the stored schedule against the
    /// stored applications.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Corrupted`] if the table fails exhaustive
    /// validation — a snapshot is never trusted blindly.
    pub fn restore(self) -> Result<System, RestoreError> {
        {
            let pairs: Vec<(AppId, &Application, &Mapping)> = self
                .apps
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.retired)
                .map(|(i, a)| (AppId(i as u32), &a.app, &a.solution.mapping))
                .collect();
            self.table
                .validate(&self.arch, &pairs)
                .map_err(RestoreError::Corrupted)?;
        }
        let committed = self
            .apps
            .into_iter()
            .enumerate()
            .map(|(i, a)| CommittedApp {
                id: AppId(i as u32),
                app: a.app,
                solution: a.solution,
                modification_cost: a.modification_cost,
                retired: a.retired,
            })
            .collect();
        Ok(System::from_parts(self.arch, committed, self.table))
    }

    /// Serializes to a JSON string.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (effectively unreachable for this
    /// data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from a JSON string (restore with
    /// [`restore`](Self::restore) afterwards).
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` parse error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_mapping::Strategy;
    use incdes_metrics::Weights;
    use incdes_model::prelude::*;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn sample_system() -> System {
        let mut sys = System::new(arch2());
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        let a = g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        let b = g.add_process(Process::new("b").wcet(PeId(1), Time::new(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        sys.add_application(
            Application::new("v1", vec![g]),
            &FutureProfile::slide_example(),
            &Weights::default(),
            &Strategy::AdHoc,
        )
        .unwrap();
        sys
    }

    #[test]
    fn capture_restore_round_trip() {
        let sys = sample_system();
        let snap = SystemSnapshot::capture(&sys);
        let restored = snap.restore().unwrap();
        assert_eq!(restored.app_count(), 1);
        assert_eq!(restored.horizon(), sys.horizon());
        assert_eq!(restored.table(), sys.table());
    }

    #[test]
    fn json_round_trip() {
        let sys = sample_system();
        let json = SystemSnapshot::capture(&sys).to_json().unwrap();
        let restored = SystemSnapshot::from_json(&json).unwrap().restore().unwrap();
        assert_eq!(restored.table(), sys.table());
        // The restored session keeps working: commit another app.
        let mut restored = restored;
        let mut g = ProcessGraph::new("g2", Time::new(120), Time::new(120));
        g.add_process(Process::new("c").wcet(PeId(0), Time::new(5)));
        restored
            .add_application(
                Application::new("v2", vec![g]),
                &FutureProfile::slide_example(),
                &Weights::default(),
                &Strategy::AdHoc,
            )
            .unwrap();
        assert_eq!(restored.app_count(), 2);
    }

    #[test]
    fn misspelt_snapshot_fields_rejected() {
        let json = SystemSnapshot::capture(&sample_system()).to_json().unwrap();
        assert!(json.contains(r#""retired":false"#));
        // A typo in an app's field would otherwise leave it active.
        let typo = json.replacen(r#""retired":false"#, r#""retierd":true"#, 1);
        let err = SystemSnapshot::from_json(&typo).unwrap_err().to_string();
        assert!(err.contains("retierd"), "{err}");
        // So would an unknown top-level key.
        let extra = json.replacen('{', r#"{"tabel":null,"#, 1);
        let err = SystemSnapshot::from_json(&extra).unwrap_err().to_string();
        assert!(err.contains("tabel"), "{err}");
        assert!(SystemSnapshot::from_json(&json).is_ok());
    }

    #[test]
    fn corrupted_snapshot_rejected() {
        let sys = sample_system();
        let mut snap = SystemSnapshot::capture(&sys);
        // Tamper: move a job's mapping to a different PE in the stored
        // solution so the table no longer matches.
        let pr = incdes_model::ProcRef::new(0, incdes_graph::NodeId(0));
        snap.apps[0].solution.mapping.assign(pr, PeId(1));
        assert!(matches!(snap.restore(), Err(RestoreError::Corrupted(_))));
    }
}
