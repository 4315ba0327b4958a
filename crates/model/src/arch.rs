//! Hardware platform: processing elements and the TDMA bus.
//!
//! The architecture follows the paper's target (slide 4): heterogeneous
//! nodes — each with CPU, RAM/ROM and a communication controller — attached
//! to a broadcast bus arbitrated by a time-division multiple-access scheme
//! in the style of the time-triggered protocol (TTP):
//!
//! * the bus timeline is a repetition of a *cycle*,
//! * a cycle consists of one or more [`Round`]s,
//! * each round contains one [`Slot`] per transmitting node; only the
//!   slot's owner may transmit during it,
//! * slot lengths may differ between nodes and between rounds.
//!
//! This module is pure configuration data; the timing engine that places
//! messages into slots lives in the `incdes-tdma` crate.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a processing element (a *node* in the paper).
///
/// Dense indices: the `k`-th PE of an [`Architecture`] has id `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeId(pub u32);

impl PeId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// A processing element: CPU + memory + TTP communication controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessingElement {
    /// Human-readable name (e.g. `"N1"`).
    pub name: String,
}

impl ProcessingElement {
    /// Creates a processing element with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProcessingElement { name: name.into() }
    }
}

/// One TDMA slot: a window of bus time owned by a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The node allowed to transmit in this slot.
    pub owner: PeId,
    /// Slot length in ticks.
    pub length: Time,
}

impl Slot {
    /// Creates a slot.
    pub fn new(owner: PeId, length: Time) -> Self {
        Slot { owner, length }
    }
}

/// One TDMA round: a sequence of slots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Round {
    /// Slots in transmission order.
    pub slots: Vec<Slot>,
}

impl Round {
    /// Creates a round from its slots.
    pub fn new(slots: Vec<Slot>) -> Self {
        Round { slots }
    }

    /// Total length of the round in ticks.
    pub fn length(&self) -> Time {
        self.slots.iter().map(|s| s.length).sum()
    }
}

/// The TDMA bus configuration: a cycle of rounds repeated forever, plus the
/// transmission rate used to convert message bytes into slot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Rounds making up one cycle, in order.
    pub rounds: Vec<Round>,
    /// Bytes transmitted per tick of slot time. A message of `b` bytes
    /// occupies `ceil(b / bytes_per_tick)` ticks inside its slot.
    pub bytes_per_tick: u32,
}

/// Error building or validating a [`BusConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusConfigError {
    /// The cycle contains no rounds, or a round contains no slots.
    Empty,
    /// A slot has zero length.
    ZeroSlot {
        /// Round index within the cycle.
        round: usize,
        /// Slot index within the round.
        slot: usize,
    },
    /// `bytes_per_tick` is zero.
    ZeroRate,
    /// A slot is owned by a PE outside the architecture.
    UnknownOwner {
        /// The offending owner id.
        owner: PeId,
        /// Number of PEs in the architecture.
        pe_count: usize,
    },
    /// A node owns no slot anywhere in the cycle and therefore can never
    /// transmit.
    SilencedNode {
        /// The node without a slot.
        pe: PeId,
    },
}

impl fmt::Display for BusConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusConfigError::Empty => write!(f, "bus cycle has no rounds or an empty round"),
            BusConfigError::ZeroSlot { round, slot } => {
                write!(f, "slot {slot} of round {round} has zero length")
            }
            BusConfigError::ZeroRate => write!(f, "bus bytes_per_tick must be positive"),
            BusConfigError::UnknownOwner { owner, pe_count } => {
                write!(f, "slot owner {owner} out of range for {pe_count} PEs")
            }
            BusConfigError::SilencedNode { pe } => {
                write!(f, "node {pe} owns no slot in the bus cycle")
            }
        }
    }
}

impl std::error::Error for BusConfigError {}

impl BusConfig {
    /// Creates a bus configuration from explicit rounds.
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError`] if the cycle is empty, a slot has zero
    /// length, or the rate is zero. Ownership checks against the PE set
    /// happen in [`Architecture::builder`].
    pub fn new(rounds: Vec<Round>, bytes_per_tick: u32) -> Result<Self, BusConfigError> {
        if rounds.is_empty() || rounds.iter().any(|r| r.slots.is_empty()) {
            return Err(BusConfigError::Empty);
        }
        for (ri, r) in rounds.iter().enumerate() {
            for (si, s) in r.slots.iter().enumerate() {
                if s.length.is_zero() {
                    return Err(BusConfigError::ZeroSlot {
                        round: ri,
                        slot: si,
                    });
                }
            }
        }
        if bytes_per_tick == 0 {
            return Err(BusConfigError::ZeroRate);
        }
        Ok(BusConfig {
            rounds,
            bytes_per_tick,
        })
    }

    /// The common case: a cycle of `rounds` identical rounds, each with one
    /// slot of length `slot_length` per PE (`pe_count` slots in PE order),
    /// at 1 byte per tick.
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError::Empty`] if `pe_count` or `rounds` is zero,
    /// or [`BusConfigError::ZeroSlot`] if `slot_length` is zero.
    pub fn uniform_round(
        pe_count: u32,
        slot_length: Time,
        rounds: usize,
    ) -> Result<Self, BusConfigError> {
        if pe_count == 0 || rounds == 0 {
            return Err(BusConfigError::Empty);
        }
        let round = Round::new(
            (0..pe_count)
                .map(|i| Slot::new(PeId(i), slot_length))
                .collect(),
        );
        BusConfig::new(vec![round; rounds], 1)
    }

    /// Length of one full cycle in ticks.
    pub fn cycle_length(&self) -> Time {
        self.rounds.iter().map(|r| r.length()).sum()
    }

    /// Number of rounds per cycle.
    pub fn rounds_per_cycle(&self) -> usize {
        self.rounds.len()
    }

    /// Transmission time of a message of `bytes` bytes.
    ///
    /// Zero-byte messages still occupy one tick (frame overhead).
    pub fn transmission_time(&self, bytes: u32) -> Time {
        let t = (bytes as u64).div_ceil(self.bytes_per_tick as u64);
        Time::new(t.max(1))
    }

    /// Total slot time owned by `pe` in one cycle.
    pub fn slot_time_of(&self, pe: PeId) -> Time {
        self.rounds
            .iter()
            .flat_map(|r| &r.slots)
            .filter(|s| s.owner == pe)
            .map(|s| s.length)
            .sum()
    }

    /// Validates slot ownership against a PE count, checking that every
    /// owner exists and every PE owns at least one slot.
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError::UnknownOwner`] or
    /// [`BusConfigError::SilencedNode`] accordingly.
    pub fn check_owners(&self, pe_count: usize) -> Result<(), BusConfigError> {
        let mut owns = vec![false; pe_count];
        for r in &self.rounds {
            for s in &r.slots {
                if s.owner.index() >= pe_count {
                    return Err(BusConfigError::UnknownOwner {
                        owner: s.owner,
                        pe_count,
                    });
                }
                owns[s.owner.index()] = true;
            }
        }
        if let Some(i) = owns.iter().position(|&o| !o) {
            return Err(BusConfigError::SilencedNode { pe: PeId(i as u32) });
        }
        Ok(())
    }
}

/// The complete hardware platform: PEs plus the TDMA bus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    pes: Vec<ProcessingElement>,
    bus: BusConfig,
}

impl Architecture {
    /// Starts building an architecture.
    pub fn builder() -> ArchitectureBuilder {
        ArchitectureBuilder::default()
    }

    /// The processing elements, indexed by [`PeId`].
    pub fn pes(&self) -> &[ProcessingElement] {
        &self.pes
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Iterator over all PE ids.
    pub fn pe_ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pes.len() as u32).map(PeId)
    }

    /// The processing element with id `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of bounds.
    pub fn pe(&self, pe: PeId) -> &ProcessingElement {
        &self.pes[pe.index()]
    }

    /// The bus configuration.
    pub fn bus(&self) -> &BusConfig {
        &self.bus
    }
}

/// Builder for [`Architecture`]; see [`Architecture::builder`].
#[derive(Debug, Default)]
pub struct ArchitectureBuilder {
    pes: Vec<ProcessingElement>,
    bus: Option<BusConfig>,
}

impl ArchitectureBuilder {
    /// Adds a processing element with the given name; ids are assigned in
    /// call order.
    pub fn pe(mut self, name: impl Into<String>) -> Self {
        self.pes.push(ProcessingElement::new(name));
        self
    }

    /// Sets the bus configuration.
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Finishes the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError`] if no bus was set, there are no PEs, a
    /// slot owner is unknown, or some PE owns no slot.
    pub fn build(self) -> Result<Architecture, BusConfigError> {
        if self.pes.is_empty() {
            return Err(BusConfigError::Empty);
        }
        let bus = self.bus.ok_or(BusConfigError::Empty)?;
        bus.check_owners(self.pes.len())?;
        Ok(Architecture { pes: self.pes, bus })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pe_arch() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 2).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_round_layout() {
        let bus = BusConfig::uniform_round(3, Time::new(5), 2).unwrap();
        assert_eq!(bus.rounds_per_cycle(), 2);
        assert_eq!(bus.rounds[0].slots.len(), 3);
        assert_eq!(bus.cycle_length(), Time::new(30));
        assert_eq!(bus.rounds[1].slots[2].owner, PeId(2));
    }

    #[test]
    fn uniform_round_rejects_degenerate() {
        assert!(matches!(
            BusConfig::uniform_round(0, Time::new(5), 1),
            Err(BusConfigError::Empty)
        ));
        assert!(matches!(
            BusConfig::uniform_round(2, Time::new(5), 0),
            Err(BusConfigError::Empty)
        ));
        assert!(matches!(
            BusConfig::uniform_round(2, Time::ZERO, 1),
            Err(BusConfigError::ZeroSlot { .. })
        ));
    }

    #[test]
    fn zero_rate_rejected() {
        let round = Round::new(vec![Slot::new(PeId(0), Time::new(4))]);
        assert_eq!(
            BusConfig::new(vec![round], 0),
            Err(BusConfigError::ZeroRate)
        );
    }

    #[test]
    fn transmission_time_rounds_up() {
        let mut bus = BusConfig::uniform_round(1, Time::new(10), 1).unwrap();
        bus.bytes_per_tick = 4;
        assert_eq!(bus.transmission_time(0), Time::new(1));
        assert_eq!(bus.transmission_time(4), Time::new(1));
        assert_eq!(bus.transmission_time(5), Time::new(2));
        assert_eq!(bus.transmission_time(17), Time::new(5));
    }

    #[test]
    fn asymmetric_slots() {
        let r1 = Round::new(vec![
            Slot::new(PeId(0), Time::new(4)),
            Slot::new(PeId(1), Time::new(8)),
        ]);
        let r2 = Round::new(vec![
            Slot::new(PeId(0), Time::new(6)),
            Slot::new(PeId(1), Time::new(2)),
        ]);
        let bus = BusConfig::new(vec![r1, r2], 1).unwrap();
        assert_eq!(bus.cycle_length(), Time::new(20));
        assert_eq!(bus.slot_time_of(PeId(0)), Time::new(10));
    }

    #[test]
    fn builder_happy_path() {
        let arch = two_pe_arch();
        assert_eq!(arch.pe_count(), 2);
        assert_eq!(arch.pe(PeId(0)).name, "N1");
        assert_eq!(arch.bus().cycle_length(), Time::new(40));
        let ids: Vec<_> = arch.pe_ids().collect();
        assert_eq!(ids, vec![PeId(0), PeId(1)]);
    }

    #[test]
    fn builder_rejects_unknown_owner() {
        let bus = BusConfig::uniform_round(3, Time::new(10), 1).unwrap();
        let err = Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(bus)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BusConfigError::UnknownOwner { owner: PeId(2), .. }
        ));
    }

    #[test]
    fn builder_rejects_silenced_node() {
        // 3 PEs but slots only for two of them.
        let round = Round::new(vec![
            Slot::new(PeId(0), Time::new(10)),
            Slot::new(PeId(1), Time::new(10)),
        ]);
        let bus = BusConfig::new(vec![round], 1).unwrap();
        let err = Architecture::builder()
            .pe("a")
            .pe("b")
            .pe("c")
            .bus(bus)
            .build()
            .unwrap_err();
        assert_eq!(err, BusConfigError::SilencedNode { pe: PeId(2) });
        assert!(err.to_string().contains("owns no slot"));
    }

    #[test]
    fn builder_requires_pes_and_bus() {
        assert!(Architecture::builder().build().is_err());
        assert!(Architecture::builder().pe("N1").build().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let arch = two_pe_arch();
        let json = serde_json::to_string(&arch).unwrap();
        let back: Architecture = serde_json::from_str(&json).unwrap();
        assert_eq!(back, arch);
    }
}
