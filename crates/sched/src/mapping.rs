//! Mapping and placement hints — the design variables of the paper.
//!
//! A design alternative in Pop et al. is fully described by
//!
//! 1. a [`Mapping`]: which PE each process runs on, and
//! 2. [`Hints`]: *which slack* each process (and each message) is placed
//!    into, counted as "skip the first `n` feasible gaps/slots".
//!
//! The list scheduler derives the concrete start times deterministically
//! from these two, so the design transformations of the mapping heuristic
//! ("move process to another slack on the same/different processor",
//! "move message to another slack on the bus") are plain edits of these
//! structures followed by a re-schedule.

use incdes_graph::EdgeId;
use incdes_model::{PeId, ProcRef};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Reference to a message (edge) within one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgRef {
    /// Index of the process graph inside the application.
    pub graph: usize,
    /// Edge inside that graph.
    pub edge: EdgeId,
}

impl MsgRef {
    /// Creates a message reference.
    pub fn new(graph: usize, edge: EdgeId) -> Self {
        MsgRef { graph, edge }
    }
}

impl fmt::Display for MsgRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}/{}", self.graph, self.edge)
    }
}

/// (De)serializes a `BTreeMap` with a struct key as a sequence of pairs,
/// keeping snapshots valid JSON (JSON object keys must be strings).
mod pairs {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize<K, V, S>(map: &BTreeMap<K, V>, ser: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize,
        V: Serialize,
        S: Serializer,
    {
        ser.collect_seq(map.iter())
    }

    pub fn deserialize<'de, K, V, D>(de: D) -> Result<BTreeMap<K, V>, D::Error>
    where
        K: Deserialize<'de> + Ord,
        V: Deserialize<'de>,
        D: Deserializer<'de>,
    {
        Ok(Vec::<(K, V)>::deserialize(de)?.into_iter().collect())
    }
}

/// Assignment of processes to processing elements for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    #[serde(with = "pairs")]
    assign: BTreeMap<ProcRef, PeId>,
}

impl Mapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Assigns (or re-assigns) a process to a PE; returns the previous PE.
    pub fn assign(&mut self, p: ProcRef, pe: PeId) -> Option<PeId> {
        self.assign.insert(p, pe)
    }

    /// Removes the assignment of process `p`; returns its PE.
    pub fn unassign(&mut self, p: ProcRef) -> Option<PeId> {
        self.assign.remove(&p)
    }

    /// The PE of process `p`, if assigned.
    pub fn pe_of(&self, p: ProcRef) -> Option<PeId> {
        self.assign.get(&p).copied()
    }

    /// Number of assigned processes.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Iterator over `(process, pe)` pairs in process order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcRef, PeId)> + '_ {
        self.assign.iter().map(|(&p, &pe)| (p, pe))
    }

    /// Processes mapped to `pe`.
    pub fn on_pe(&self, pe: PeId) -> impl Iterator<Item = ProcRef> + '_ {
        self.assign
            .iter()
            .filter(move |&(_, &q)| q == pe)
            .map(|(&p, _)| p)
    }
}

impl FromIterator<(ProcRef, PeId)> for Mapping {
    fn from_iter<I: IntoIterator<Item = (ProcRef, PeId)>>(iter: I) -> Self {
        Mapping {
            assign: iter.into_iter().collect(),
        }
    }
}

/// Placement hints: for a process, skip the first `n` feasible processor
/// gaps; for a message, skip the first `n` feasible slot occurrences.
/// Anything not mentioned defaults to 0 (earliest feasible placement).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hints {
    #[serde(with = "pairs")]
    proc_gap: BTreeMap<ProcRef, u32>,
    #[serde(with = "pairs")]
    msg_slot: BTreeMap<MsgRef, u32>,
}

impl Hints {
    /// No hints: every placement is earliest-feasible.
    pub fn empty() -> Self {
        Hints::default()
    }

    /// Sets the gap hint of a process. A hint of 0 removes the entry.
    pub fn set_proc_gap(&mut self, p: ProcRef, skip: u32) {
        if skip == 0 {
            self.proc_gap.remove(&p);
        } else {
            self.proc_gap.insert(p, skip);
        }
    }

    /// Sets the slot hint of a message. A hint of 0 removes the entry.
    pub fn set_msg_slot(&mut self, m: MsgRef, skip: u32) {
        if skip == 0 {
            self.msg_slot.remove(&m);
        } else {
            self.msg_slot.insert(m, skip);
        }
    }

    /// The gap hint of process `p` (0 if unset).
    pub fn proc_gap(&self, p: ProcRef) -> u32 {
        self.proc_gap.get(&p).copied().unwrap_or(0)
    }

    /// The slot hint of message `m` (0 if unset).
    pub fn msg_slot(&self, m: MsgRef) -> u32 {
        self.msg_slot.get(&m).copied().unwrap_or(0)
    }

    /// Iterator over the non-zero process gap hints, in process order.
    pub fn proc_gaps(&self) -> impl Iterator<Item = (ProcRef, u32)> + '_ {
        self.proc_gap.iter().map(|(&p, &s)| (p, s))
    }

    /// Iterator over the non-zero message slot hints, in message order.
    pub fn msg_slots(&self) -> impl Iterator<Item = (MsgRef, u32)> + '_ {
        self.msg_slot.iter().map(|(&m, &s)| (m, s))
    }

    /// True if no hints are set.
    pub fn is_empty(&self) -> bool {
        self.proc_gap.is_empty() && self.msg_slot.is_empty()
    }

    /// Number of non-zero hints.
    pub fn len(&self) -> usize {
        self.proc_gap.len() + self.msg_slot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::NodeId;

    #[test]
    fn mapping_assign_and_query() {
        let mut m = Mapping::new();
        assert!(m.is_empty());
        let p = ProcRef::new(0, NodeId(1));
        assert_eq!(m.assign(p, PeId(2)), None);
        assert_eq!(m.assign(p, PeId(3)), Some(PeId(2)));
        assert_eq!(m.pe_of(p), Some(PeId(3)));
        assert_eq!(m.pe_of(ProcRef::new(0, NodeId(9))), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.unassign(p), Some(PeId(3)));
        assert_eq!(m.unassign(p), None);
        assert_eq!(m, Mapping::new());
    }

    #[test]
    fn mapping_on_pe_filters() {
        let m: Mapping = [
            (ProcRef::new(0, NodeId(0)), PeId(0)),
            (ProcRef::new(0, NodeId(1)), PeId(1)),
            (ProcRef::new(0, NodeId(2)), PeId(0)),
        ]
        .into_iter()
        .collect();
        let on0: Vec<_> = m.on_pe(PeId(0)).collect();
        assert_eq!(
            on0,
            vec![ProcRef::new(0, NodeId(0)), ProcRef::new(0, NodeId(2))]
        );
        assert_eq!(m.on_pe(PeId(5)).count(), 0);
    }

    #[test]
    fn hints_default_to_zero() {
        let h = Hints::empty();
        assert_eq!(h.proc_gap(ProcRef::new(0, NodeId(0))), 0);
        assert_eq!(h.msg_slot(MsgRef::new(0, EdgeId(0))), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn hints_zero_removes_entry() {
        let mut h = Hints::empty();
        let p = ProcRef::new(0, NodeId(0));
        h.set_proc_gap(p, 3);
        assert_eq!(h.proc_gap(p), 3);
        assert_eq!(h.len(), 1);
        h.set_proc_gap(p, 0);
        assert!(h.is_empty());
        let m = MsgRef::new(1, EdgeId(2));
        h.set_msg_slot(m, 2);
        assert_eq!(h.msg_slot(m), 2);
        h.set_msg_slot(m, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn display_msg_ref() {
        assert_eq!(MsgRef::new(2, EdgeId(5)).to_string(), "g2/e5");
    }
}
