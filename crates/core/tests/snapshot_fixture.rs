//! Pins the `SystemSnapshot` JSON format with a committed fixture.
//!
//! `fixtures/snapshot_hinted.json` holds two applications on two PEs:
//! `a` (period 120) committed by AH, and `b` (period 240) committed with
//! a split mapping, a gap hint of 1 on its first process and a slot hint
//! of 1 on the message that crosses PEs, so the fixture covers every
//! design-variable collection a snapshot stores (mapping pairs, gap-hint
//! pairs and slot-hint pairs) with non-zero entries. The stored table is
//! the one that design schedules to on top of `a`. The file was written
//! by `SystemSnapshot::to_json` before `Mapping` and `Hints` moved from
//! `BTreeMap`s to key-sorted vectors; this test holds the format to it.

use incdes_core::persist::SystemSnapshot;
use incdes_graph::{EdgeId, NodeId};
use incdes_model::{AppId, PeId, ProcRef, Time};
use incdes_sched::{schedule, AppSpec, MsgRef};

const FIXTURE: &str = include_str!("fixtures/snapshot_hinted.json");

#[test]
fn committed_snapshot_parses_restores_and_reserializes_byte_for_byte() {
    let parsed = SystemSnapshot::from_json(FIXTURE).expect("the fixture parses");
    let table = parsed.table.clone();

    // The design variables came through, hints included.
    let b = &parsed.apps[1].solution;
    assert_eq!(b.mapping.len(), 3);
    assert_eq!(b.mapping.pe_of(ProcRef::new(0, NodeId(2))), Some(PeId(1)));
    assert_eq!(b.hints.proc_gap(ProcRef::new(0, NodeId(0))), 1);
    assert_eq!(b.hints.msg_slot(MsgRef::new(0, EdgeId(1))), 1);
    assert_eq!(b.hints.len(), 2);

    // The stored table is what the stored design schedules to.
    let a = &parsed.apps[0];
    let horizon = Time::new(240);
    let spec_a = AppSpec::new(AppId(0), &a.app, &a.solution.mapping, &a.solution.hints);
    let frozen = schedule(&parsed.arch, &[spec_a], None, horizon).unwrap();
    let spec_b = AppSpec::new(AppId(1), &parsed.apps[1].app, &b.mapping, &b.hints);
    assert_eq!(
        schedule(&parsed.arch, &[spec_b], Some(&frozen), horizon).unwrap(),
        table
    );

    let restored = parsed.restore().expect("the fixture validates");
    assert_eq!(restored.table(), &table);
    assert_eq!(
        SystemSnapshot::capture(&restored).to_json().unwrap(),
        FIXTURE,
        "re-serialization moved a byte"
    );
}
