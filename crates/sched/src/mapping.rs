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
use serde::{Deserialize, Deserializer, Serialize, Serializer};
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

/// A key-sorted vector of `(key, value)` pairs with unique keys: the
/// storage of [`Mapping`] and [`Hints`]. A lookup is a binary search, an
/// in-order walk is a slice walk, and the (de)serialized form is the
/// sequence of pairs in key order (JSON object keys must be strings, so a
/// struct key cannot be an object key).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SortedPairs<K, V>(Vec<(K, V)>);

impl<K, V> Default for SortedPairs<K, V> {
    fn default() -> Self {
        SortedPairs(Vec::new())
    }
}

impl<K: Ord + Copy, V: Copy> SortedPairs<K, V> {
    /// The pairs of `iter`, sorted by key; a repeated key keeps its last
    /// value, as inserting them one by one would.
    fn from_pairs(iter: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut pairs: Vec<(K, V)> = iter.into_iter().collect();
        // Reversed, a stable sort puts each key's last value first, and
        // `dedup_by` keeps the first of a run.
        pairs.reverse();
        pairs.sort_by_key(|&(k, _)| k);
        pairs.dedup_by(|a, b| a.0 == b.0);
        SortedPairs(pairs)
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.0.binary_search_by(|&(k, _)| k.cmp(&key))
    }

    fn get(&self, key: K) -> Option<V> {
        self.find(key).ok().map(|i| self.0[i].1)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    fn remove(&mut self, key: K) -> Option<V> {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }
}

impl<K: Serialize, V: Serialize> Serialize for SortedPairs<K, V> {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_seq(self.0.iter())
    }
}

impl<'de, K, V> Deserialize<'de> for SortedPairs<K, V>
where
    K: Deserialize<'de> + Ord + Copy,
    V: Deserialize<'de> + Copy,
{
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        Ok(SortedPairs::from_pairs(Vec::<(K, V)>::deserialize(de)?))
    }
}

/// Assignment of processes to processing elements for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    assign: SortedPairs<ProcRef, PeId>,
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
        self.assign.remove(p)
    }

    /// The PE of process `p`, if assigned.
    pub fn pe_of(&self, p: ProcRef) -> Option<PeId> {
        self.assign.get(p)
    }

    /// Number of assigned processes.
    pub fn len(&self) -> usize {
        self.assign.0.len()
    }

    /// True if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.assign.0.is_empty()
    }

    /// Iterator over `(process, pe)` pairs in process order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcRef, PeId)> + '_ {
        self.assign.0.iter().copied()
    }

    /// Processes mapped to `pe`.
    pub fn on_pe(&self, pe: PeId) -> impl Iterator<Item = ProcRef> + '_ {
        self.iter().filter(move |&(_, q)| q == pe).map(|(p, _)| p)
    }
}

impl FromIterator<(ProcRef, PeId)> for Mapping {
    fn from_iter<I: IntoIterator<Item = (ProcRef, PeId)>>(iter: I) -> Self {
        Mapping {
            assign: SortedPairs::from_pairs(iter),
        }
    }
}

/// Placement hints: for a process, skip the first `n` feasible processor
/// gaps; for a message, skip the first `n` feasible slot occurrences.
/// Anything not mentioned defaults to 0 (earliest feasible placement).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hints {
    proc_gap: SortedPairs<ProcRef, u32>,
    msg_slot: SortedPairs<MsgRef, u32>,
}

impl Hints {
    /// No hints: every placement is earliest-feasible.
    pub fn empty() -> Self {
        Hints::default()
    }

    /// Sets the gap hint of a process. A hint of 0 removes the entry.
    pub fn set_proc_gap(&mut self, p: ProcRef, skip: u32) {
        if skip == 0 {
            self.proc_gap.remove(p);
        } else {
            self.proc_gap.insert(p, skip);
        }
    }

    /// Sets the slot hint of a message. A hint of 0 removes the entry.
    pub fn set_msg_slot(&mut self, m: MsgRef, skip: u32) {
        if skip == 0 {
            self.msg_slot.remove(m);
        } else {
            self.msg_slot.insert(m, skip);
        }
    }

    /// The gap hint of process `p` (0 if unset).
    pub fn proc_gap(&self, p: ProcRef) -> u32 {
        self.proc_gap.get(p).unwrap_or(0)
    }

    /// The slot hint of message `m` (0 if unset).
    pub fn msg_slot(&self, m: MsgRef) -> u32 {
        self.msg_slot.get(m).unwrap_or(0)
    }

    /// Iterator over the non-zero process gap hints, in process order.
    pub fn proc_gaps(&self) -> impl Iterator<Item = (ProcRef, u32)> + Clone + '_ {
        self.proc_gap.0.iter().copied()
    }

    /// Iterator over the non-zero message slot hints, in message order.
    pub fn msg_slots(&self) -> impl Iterator<Item = (MsgRef, u32)> + Clone + '_ {
        self.msg_slot.0.iter().copied()
    }

    /// True if no hints are set.
    pub fn is_empty(&self) -> bool {
        self.proc_gap.0.is_empty() && self.msg_slot.0.is_empty()
    }

    /// Number of non-zero hints.
    pub fn len(&self) -> usize {
        self.proc_gap.0.len() + self.msg_slot.0.len()
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

    /// Collecting, like deserializing, sorts by key and keeps the last
    /// value of a repeated key, as inserting the pairs one by one does.
    #[test]
    fn mapping_collect_sorts_and_keeps_the_last_value() {
        let (p0, p1, p2) = (
            ProcRef::new(0, NodeId(0)),
            ProcRef::new(0, NodeId(1)),
            ProcRef::new(1, NodeId(0)),
        );
        let pairs = [(p2, PeId(0)), (p0, PeId(1)), (p2, PeId(2)), (p1, PeId(0))];
        let collected: Mapping = pairs.into_iter().collect();
        let mut inserted = Mapping::new();
        for (p, pe) in pairs {
            inserted.assign(p, pe);
        }
        assert_eq!(collected, inserted);
        assert_eq!(
            collected.iter().collect::<Vec<_>>(),
            vec![(p0, PeId(1)), (p1, PeId(0)), (p2, PeId(2))]
        );
        let json = serde_json::to_string(&collected).unwrap();
        assert_eq!(serde_json::from_str::<Mapping>(&json).unwrap(), collected);
        let unsorted = r#"{"assign":[[{"graph":1,"node":0},0],[{"graph":0,"node":0},1],[{"graph":1,"node":0},2],[{"graph":0,"node":1},0]]}"#;
        assert_eq!(
            serde_json::from_str::<Mapping>(unsorted).unwrap(),
            collected
        );
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
