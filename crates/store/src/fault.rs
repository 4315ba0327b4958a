//! Deterministic fault injection for the store backend.
//!
//! A [`FaultyBackend`] wraps any [`Backend`] and injects I/O errors
//! according to a serde-typed [`FaultPlan`], driven by a seeded ChaCha8
//! stream: the same plan, seed and operation sequence always produce
//! the same fault sequence. This is the soak harness behind
//! `figures campaign --inject-faults PLAN.json --fault-seed S` and
//! `tests/fault_injection.rs`: because the campaign pipeline treats
//! every store failure as a cache miss at worst, the final
//! `CampaignReport` must stay byte-identical to a fault-free run under
//! *any* plan.
//!
//! The plan distinguishes three fault mechanisms per operation class:
//!
//! * **`error_prob`** — each operation independently fails with this
//!   probability, drawing its error kind from `kinds`.
//! * **`fail_first`** — the first N operations of the class fail
//!   unconditionally, then stop (a bounded "outage at startup"
//!   schedule; ideal for crash-resume tests that kill the first N
//!   puts).
//! * **`torn_write_prob`** (plan-level) — a write "succeeds" but
//!   persists only a truncated prefix, modelling a crash between write
//!   and fsync. The store's checksum layer later reports the blob as
//!   `Corrupt`.
//!
//! `create_dir_all` is never faulted: directory creation failing at
//! `Store::open` would abort before the fault-tolerant paths exist, and
//! real ENOSPC-style failures surface through `write` anyway.

use crate::backend::{Backend, DirEntryInfo};
use incdes_obs::counters::{self, Counter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// The palette of injectable error kinds.
///
/// `WouldBlock`, `Interrupted` and `TimedOut` are *transient* — the
/// store-backed campaign cache retries them with deterministic backoff.
/// The rest are *persistent* — retrying is pointless, so the cache
/// degrades to compute-through instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// `io::ErrorKind::WouldBlock` (transient).
    WouldBlock,
    /// `io::ErrorKind::Interrupted` (transient).
    Interrupted,
    /// `io::ErrorKind::TimedOut` (transient).
    TimedOut,
    /// `io::ErrorKind::StorageFull` — the ENOSPC class (persistent).
    StorageFull,
    /// `io::ErrorKind::PermissionDenied` (persistent).
    PermissionDenied,
    /// `io::ErrorKind::Other` (persistent).
    Other,
}

impl FaultKind {
    /// The `io::ErrorKind` this fault surfaces as.
    #[must_use]
    pub fn io_kind(self) -> io::ErrorKind {
        match self {
            FaultKind::WouldBlock => io::ErrorKind::WouldBlock,
            FaultKind::Interrupted => io::ErrorKind::Interrupted,
            FaultKind::TimedOut => io::ErrorKind::TimedOut,
            FaultKind::StorageFull => io::ErrorKind::StorageFull,
            FaultKind::PermissionDenied => io::ErrorKind::PermissionDenied,
            FaultKind::Other => io::ErrorKind::Other,
        }
    }

    /// Whether a caller should retry an operation failing with this
    /// kind (see [`FaultKind`] docs for the taxonomy).
    #[must_use]
    pub fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
        )
    }
}

/// The operation classes a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Blob reads (`read_to_string`, `modified`).
    Read,
    /// Blob/temp-file writes.
    Write,
    /// Atomic renames (blob installs, stale-lock steals).
    Rename,
    /// File removals (GC, temp cleanup, lock release).
    Remove,
    /// Directory listings (key enumeration, GC sweeps).
    List,
    /// Lock-file creation.
    Lock,
}

const FAULT_OPS: usize = 6;

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
            FaultOp::Rename => 2,
            FaultOp::Remove => 3,
            FaultOp::List => 4,
            FaultOp::Lock => 5,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Rename => "rename",
            FaultOp::Remove => "remove",
            FaultOp::List => "list",
            FaultOp::Lock => "lock",
        }
    }
}

/// Fault configuration for one operation class.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OpFaults {
    /// Probability in `[0, 1]` that each operation fails (clamped).
    #[serde(default)]
    pub error_prob: f64,
    /// Fail the first N operations of this class unconditionally, then
    /// stop injecting from this schedule.
    #[serde(default)]
    pub fail_first: usize,
    /// Error kinds to draw from (uniformly); empty means
    /// [`FaultKind::Interrupted`].
    #[serde(default)]
    pub kinds: Vec<FaultKind>,
}

impl OpFaults {
    fn is_active(&self) -> bool {
        self.error_prob > 0.0 || self.fail_first > 0
    }
}

/// A serde-typed, seed-reproducible fault schedule.
///
/// Missing fields default to "no faults", so a plan JSON only names the
/// operation classes it targets:
///
/// ```json
/// {
///   "read":  { "error_prob": 0.2, "kinds": ["Interrupted"] },
///   "write": { "error_prob": 0.2, "fail_first": 3,
///              "kinds": ["WouldBlock", "StorageFull"] },
///   "torn_write_prob": 0.1
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Faults for blob reads.
    #[serde(default)]
    pub read: OpFaults,
    /// Faults for writes.
    #[serde(default)]
    pub write: OpFaults,
    /// Faults for renames.
    #[serde(default)]
    pub rename: OpFaults,
    /// Faults for removals.
    #[serde(default)]
    pub remove: OpFaults,
    /// Faults for directory listings.
    #[serde(default)]
    pub list: OpFaults,
    /// Faults for lock-file creation.
    #[serde(default)]
    pub lock: OpFaults,
    /// Probability in `[0, 1]` that a *successful* write persists only
    /// a truncated prefix (torn write; clamped).
    #[serde(default)]
    pub torn_write_prob: f64,
}

impl FaultPlan {
    /// Parses a plan from its JSON representation.
    ///
    /// # Errors
    ///
    /// A human-readable message when the JSON does not describe a plan.
    pub fn from_json(json: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid fault plan: {e}"))
    }

    fn op(&self, op: FaultOp) -> &OpFaults {
        match op {
            FaultOp::Read => &self.read,
            FaultOp::Write => &self.write,
            FaultOp::Rename => &self.rename,
            FaultOp::Remove => &self.remove,
            FaultOp::List => &self.list,
            FaultOp::Lock => &self.lock,
        }
    }
}

/// Mutable injection state: one RNG stream plus per-class `fail_first`
/// progress, behind one mutex so concurrent store users observe a
/// single global fault sequence.
#[derive(Debug)]
struct FaultState {
    rng: ChaCha8Rng,
    fired_first: [usize; FAULT_OPS],
}

/// A [`Backend`] decorator that injects faults per a [`FaultPlan`].
///
/// All successful operations are delegated to the wrapped backend;
/// injected failures never touch it (except torn writes, which persist
/// their truncated prefix through it). Every injection bumps
/// [`Counter::FaultInjected`].
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Arc<dyn Backend>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyBackend {
    /// Wraps `inner` with `plan`, seeding the fault stream from `seed`.
    #[must_use]
    pub fn new(inner: Arc<dyn Backend>, plan: FaultPlan, seed: u64) -> FaultyBackend {
        FaultyBackend {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng: ChaCha8Rng::seed_from_u64(seed),
                fired_first: [0; FAULT_OPS],
            }),
        }
    }

    /// Decides whether this operation faults; `Some` is the injected
    /// error.
    fn inject(&self, op: FaultOp) -> Option<io::Error> {
        let faults = self.plan.op(op);
        if !faults.is_active() {
            return None;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let fired = &mut state.fired_first[op.index()];
        let forced = *fired < faults.fail_first;
        if forced {
            *fired += 1;
        } else {
            let p = faults.error_prob.clamp(0.0, 1.0);
            if p <= 0.0 || !state.rng.gen_bool(p) {
                return None;
            }
        }
        let kind = if faults.kinds.is_empty() {
            FaultKind::Interrupted
        } else {
            faults.kinds[state.rng.gen_range(0..faults.kinds.len())]
        };
        counters::bump(Counter::FaultInjected);
        Some(io::Error::new(
            kind.io_kind(),
            format!("injected {} fault ({kind:?})", op.name()),
        ))
    }

    /// Decides whether a successful write is torn (persist a prefix).
    fn torn(&self) -> bool {
        let p = self.plan.torn_write_prob.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.rng.gen_bool(p)
    }
}

impl Backend for FaultyBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Never faulted: see module docs.
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if let Some(e) = self.inject(FaultOp::Write) {
            return Err(e);
        }
        if self.torn() {
            counters::bump(Counter::FaultInjected);
            // The torn write *reports* success: the caller proceeds to
            // install a blob whose checksum cannot verify, exactly like
            // a crash after rename but before the data hit the platter.
            return self.inner.write(path, &data[..data.len() / 2]);
        }
        self.inner.write(path, data)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if let Some(e) = self.inject(FaultOp::Read) {
            return Err(e);
        }
        self.inner.read_to_string(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(e) = self.inject(FaultOp::Rename) {
            return Err(e);
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if let Some(e) = self.inject(FaultOp::Remove) {
            return Err(e);
        }
        self.inner.remove_file(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        if let Some(e) = self.inject(FaultOp::List) {
            return Err(e);
        }
        self.inner.list_dir(path)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        if let Some(e) = self.inject(FaultOp::Read) {
            return Err(e);
        }
        self.inner.modified(path)
    }

    fn create_lock_file(&self, path: &Path) -> io::Result<()> {
        if let Some(e) = self.inject(FaultOp::Lock) {
            return Err(e);
        }
        self.inner.create_lock_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FsBackend;

    fn plan_with_write_faults() -> FaultPlan {
        FaultPlan {
            write: OpFaults {
                error_prob: 0.5,
                fail_first: 2,
                kinds: vec![FaultKind::Interrupted, FaultKind::StorageFull],
            },
            ..FaultPlan::default()
        }
    }

    #[test]
    fn fault_sequence_is_reproducible_from_seed() {
        let mk = |seed| FaultyBackend::new(Arc::new(FsBackend), plan_with_write_faults(), seed);
        let observe = |backend: &FaultyBackend| -> Vec<Option<io::ErrorKind>> {
            (0..64)
                .map(|_| backend.inject(FaultOp::Write).map(|e| e.kind()))
                .collect()
        };
        let a = observe(&mk(7));
        let b = observe(&mk(7));
        let c = observe(&mk(8));
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_ne!(a, c, "different seed, different sequence");
        // fail_first: the first two injections are unconditional.
        assert!(a[0].is_some() && a[1].is_some());
    }

    #[test]
    fn inactive_ops_never_fault_and_consume_no_randomness() {
        let backend = FaultyBackend::new(Arc::new(FsBackend), plan_with_write_faults(), 1);
        let before: Vec<_> = (0..8)
            .map(|_| backend.inject(FaultOp::Write).map(|e| e.kind()))
            .collect();
        let backend = FaultyBackend::new(Arc::new(FsBackend), plan_with_write_faults(), 1);
        for _ in 0..100 {
            assert!(backend.inject(FaultOp::Read).is_none());
            assert!(backend.inject(FaultOp::Lock).is_none());
        }
        let after: Vec<_> = (0..8)
            .map(|_| backend.inject(FaultOp::Write).map(|e| e.kind()))
            .collect();
        assert_eq!(before, after, "inactive ops must not perturb the stream");
    }

    #[test]
    fn torn_write_persists_truncated_prefix() {
        let plan = FaultPlan {
            torn_write_prob: 1.0,
            ..FaultPlan::default()
        };
        let backend = FaultyBackend::new(Arc::new(FsBackend), plan, 42);
        let path = std::env::temp_dir().join(format!("incdes-fault-torn-{}", std::process::id()));
        backend
            .write(&path, b"0123456789")
            .expect("torn write reports success");
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, b"01234", "only the prefix persisted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_json_roundtrip_with_defaults() {
        let json = r#"{
            "write": { "error_prob": 0.25, "kinds": ["WouldBlock"] },
            "torn_write_prob": 0.1
        }"#;
        let plan = FaultPlan::from_json(json).expect("plan parses");
        assert_eq!(plan.write.error_prob, 0.25);
        assert_eq!(plan.write.kinds, vec![FaultKind::WouldBlock]);
        assert_eq!(plan.read, OpFaults::default(), "missing ops default off");
        assert_eq!(plan.torn_write_prob, 0.1);
        assert!(FaultPlan::from_json("[1,2]").is_err());
    }

    #[test]
    fn committed_soak_plan_round_trips_and_typos_are_rejected() {
        let plan = FaultPlan::from_json(include_str!("../../../ci/fault-soak.json"))
            .expect("the committed soak plan parses");
        assert!(plan.torn_write_prob > 0.0);
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
        let err = FaultPlan::from_json(r#"{ "torn_writes_prob": 0.1 }"#).unwrap_err();
        assert!(
            err.contains("torn_writes_prob") && err.contains("FaultPlan"),
            "{err}"
        );
        // A misspelled per-operation field must not parse as a plan that
        // injects nothing.
        let err = FaultPlan::from_json(r#"{ "read": { "error_porb": 0.5 } }"#).unwrap_err();
        assert!(
            err.contains("error_porb") && err.contains("OpFaults"),
            "{err}"
        );
    }

    #[test]
    fn transient_taxonomy_matches_kinds() {
        for kind in [
            FaultKind::WouldBlock,
            FaultKind::Interrupted,
            FaultKind::TimedOut,
        ] {
            assert!(FaultKind::is_transient(kind.io_kind()), "{kind:?}");
        }
        for kind in [
            FaultKind::StorageFull,
            FaultKind::PermissionDenied,
            FaultKind::Other,
        ] {
            assert!(!FaultKind::is_transient(kind.io_kind()), "{kind:?}");
        }
    }
}
