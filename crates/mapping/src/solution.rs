//! Design alternatives and design transformations.

use incdes_model::{PeId, ProcRef};
use incdes_sched::{Hints, Mapping, MsgRef};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One design alternative: a mapping plus placement hints.
///
/// Together with the deterministic list scheduler this fully determines
/// the schedule, so comparing two `Solution`s compares two schedules.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Solution {
    /// Process → PE assignment of the current application.
    pub mapping: Mapping,
    /// Slack-placement hints of the current application.
    pub hints: Hints,
}

impl Solution {
    /// An empty solution (nothing mapped yet).
    pub fn new() -> Self {
        Solution::default()
    }

    /// Creates a solution from a mapping with no hints.
    pub fn from_mapping(mapping: Mapping) -> Self {
        Solution {
            mapping,
            hints: Hints::empty(),
        }
    }

    /// Applies a design transformation in place.
    pub fn apply(&mut self, mv: &Move) {
        match *mv {
            Move::Remap { proc_ref, to } => {
                self.mapping.assign(proc_ref, to);
                // A process moved to another PE starts fresh in the
                // earliest slack there.
                self.hints.set_proc_gap(proc_ref, 0);
            }
            Move::ProcSlack { proc_ref, gap } => {
                self.hints.set_proc_gap(proc_ref, gap);
            }
            Move::MsgSlack { msg, slot } => {
                self.hints.set_msg_slot(msg, slot);
            }
        }
    }

    /// Returns a copy with `mv` applied.
    pub fn with_move(&self, mv: &Move) -> Solution {
        let mut s = self.clone();
        s.apply(mv);
        s
    }

    /// Applies `mv` in place, as [`apply`](Self::apply) does, and
    /// returns what it overwrote: [`undo`](Self::undo) restores the
    /// solution exactly. The search loops score a trial this way instead
    /// of cloning the solution.
    pub fn apply_undoable(&mut self, mv: &Move) -> Undo {
        let saved = match *mv {
            Move::Remap { proc_ref, .. } => Saved::Remap {
                proc_ref,
                pe: self.mapping.pe_of(proc_ref),
                gap: self.hints.proc_gap(proc_ref),
            },
            Move::ProcSlack { proc_ref, .. } => Saved::Gap {
                proc_ref,
                gap: self.hints.proc_gap(proc_ref),
            },
            Move::MsgSlack { msg, .. } => Saved::Slot {
                msg,
                slot: self.hints.msg_slot(msg),
            },
        };
        self.apply(mv);
        Undo(saved)
    }

    /// Reverts the move `undo` came from. Moves applied since must be
    /// undone first (last applied, first undone).
    pub fn undo(&mut self, undo: Undo) {
        match undo.0 {
            Saved::Remap { proc_ref, pe, gap } => {
                match pe {
                    Some(pe) => self.mapping.assign(proc_ref, pe),
                    None => self.mapping.unassign(proc_ref),
                };
                self.hints.set_proc_gap(proc_ref, gap);
            }
            Saved::Gap { proc_ref, gap } => self.hints.set_proc_gap(proc_ref, gap),
            Saved::Slot { msg, slot } => self.hints.set_msg_slot(msg, slot),
        }
    }
}

/// The design variables one [`Solution::apply_undoable`] overwrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an applied trial move is reverted with `Solution::undo`"]
pub struct Undo(Saved);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Saved {
    /// A remap: the old PE (if any) and the gap hint it reset.
    Remap {
        proc_ref: ProcRef,
        pe: Option<PeId>,
        gap: u32,
    },
    Gap {
        proc_ref: ProcRef,
        gap: u32,
    },
    Slot {
        msg: MsgRef,
        slot: u32,
    },
}

/// A design transformation (slide 14): move a process to a different slack
/// on the same or a different processor, or move a message to a different
/// slack on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Move {
    /// Map `proc_ref` onto PE `to` (a different processor's slack).
    Remap {
        /// The process to move.
        proc_ref: ProcRef,
        /// The destination PE.
        to: PeId,
    },
    /// Keep the processor but place the process into its `gap`-th feasible
    /// slack instead of the first.
    ProcSlack {
        /// The process to move.
        proc_ref: ProcRef,
        /// The new gap hint.
        gap: u32,
    },
    /// Place the message into its `slot`-th feasible TDMA slot occurrence
    /// instead of the first.
    MsgSlack {
        /// The message to move.
        msg: MsgRef,
        /// The new slot hint.
        slot: u32,
    },
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Remap { proc_ref, to } => write!(f, "remap {proc_ref} -> {to}"),
            Move::ProcSlack { proc_ref, gap } => write!(f, "proc-slack {proc_ref} -> gap {gap}"),
            Move::MsgSlack { msg, slot } => write!(f, "msg-slack {msg} -> slot {slot}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::{EdgeId, NodeId};
    use proptest::prelude::*;

    #[test]
    fn apply_remap_resets_gap_hint() {
        let mut s = Solution::new();
        let p = ProcRef::new(0, NodeId(0));
        s.mapping.assign(p, PeId(0));
        s.hints.set_proc_gap(p, 3);
        s.apply(&Move::Remap {
            proc_ref: p,
            to: PeId(1),
        });
        assert_eq!(s.mapping.pe_of(p), Some(PeId(1)));
        assert_eq!(s.hints.proc_gap(p), 0);
    }

    #[test]
    fn apply_slack_moves() {
        let mut s = Solution::new();
        let p = ProcRef::new(0, NodeId(1));
        let m = MsgRef::new(0, EdgeId(2));
        s.apply(&Move::ProcSlack {
            proc_ref: p,
            gap: 2,
        });
        s.apply(&Move::MsgSlack { msg: m, slot: 4 });
        assert_eq!(s.hints.proc_gap(p), 2);
        assert_eq!(s.hints.msg_slot(m), 4);
    }

    #[test]
    fn with_move_leaves_original_untouched() {
        let s = Solution::new();
        let p = ProcRef::new(0, NodeId(0));
        let s2 = s.with_move(&Move::ProcSlack {
            proc_ref: p,
            gap: 1,
        });
        assert_eq!(s.hints.proc_gap(p), 0);
        assert_eq!(s2.hints.proc_gap(p), 1);
    }

    /// A remap of a process with a non-zero gap hint resets the hint,
    /// and its undo brings back both the PE and the hint.
    #[test]
    fn undo_restores_a_remapped_gap_hint() {
        let mut s = Solution::new();
        let p = ProcRef::new(0, NodeId(0));
        s.mapping.assign(p, PeId(0));
        s.hints.set_proc_gap(p, 2);
        let before = s.clone();
        let undo = s.apply_undoable(&Move::Remap {
            proc_ref: p,
            to: PeId(1),
        });
        assert_eq!(
            (s.mapping.pe_of(p), s.hints.proc_gap(p)),
            (Some(PeId(1)), 0)
        );
        s.undo(undo);
        assert_eq!(s, before);
    }

    /// The move `(kind, index, value)` draws: a remap, a gap hint or a
    /// slot hint.
    fn move_of((kind, index, value): (u8, u32, u32)) -> Move {
        match kind {
            0 => Move::Remap {
                proc_ref: ProcRef::new(0, NodeId(index)),
                to: PeId(value),
            },
            1 => Move::ProcSlack {
                proc_ref: ProcRef::new(0, NodeId(index)),
                gap: value,
            },
            _ => Move::MsgSlack {
                msg: MsgRef::new(0, EdgeId(index % 3)),
                slot: value,
            },
        }
    }

    proptest! {
        /// `apply_undoable` applies exactly what `apply` does, and
        /// undoing a chain of moves in reverse restores `==` after each
        /// step: remaps of unmapped processes and of processes with a
        /// gap hint, and hints moving to and from 0.
        #[test]
        fn prop_undo_restores_the_solution(
            // PE 3 stands for "unmapped".
            mapped in proptest::collection::vec(0u32..4, 4),
            gaps in proptest::collection::vec(0u32..3, 4),
            slots in proptest::collection::vec(0u32..3, 3),
            moves in proptest::collection::vec((0u8..3, 0u32..4, 0u32..3), 1..8),
        ) {
            let mut s = Solution::new();
            for (n, &pe) in mapped.iter().enumerate() {
                if pe < 3 {
                    s.mapping.assign(ProcRef::new(0, NodeId(n as u32)), PeId(pe));
                }
            }
            for (n, &gap) in gaps.iter().enumerate() {
                s.hints.set_proc_gap(ProcRef::new(0, NodeId(n as u32)), gap);
            }
            for (e, &slot) in slots.iter().enumerate() {
                s.hints.set_msg_slot(MsgRef::new(0, EdgeId(e as u32)), slot);
            }
            let mut trail = vec![s.clone()];
            let mut undos = Vec::new();
            for mv in moves.into_iter().map(move_of) {
                let expected = s.with_move(&mv);
                undos.push(s.apply_undoable(&mv));
                prop_assert_eq!(&s, &expected);
                trail.push(s.clone());
            }
            while let Some(undo) = undos.pop() {
                trail.pop();
                s.undo(undo);
                prop_assert_eq!(&s, trail.last().unwrap());
            }
        }
    }

    #[test]
    fn move_display() {
        let p = ProcRef::new(1, NodeId(2));
        assert_eq!(
            Move::Remap {
                proc_ref: p,
                to: PeId(3)
            }
            .to_string(),
            "remap g1/n2 -> pe3"
        );
    }
}
