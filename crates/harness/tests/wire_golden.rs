//! Golden bytes for the wire format.
//!
//! Figure 8 counts bytes on the wire and the replicated worlds ship
//! engine snapshots between replicas, so the encoding itself is pinned:
//! every hex string below was recorded from the codec that preceded the
//! hand-written `Wire` impls, and they must reproduce it byte for byte. The sample covers every `NetMsg` variant (each `Packet`,
//! `PaxosMsg`, `ReplCmd`, `SkeenPacket` and `BleMsg` variant inside it),
//! a mid-protocol `FlexCastGroup` snapshot, a `ReplSnapshot` and a gTPC-C
//! `Transaction` payload. The TCP runtime's `Hello` is pinned next to
//! its private type in `flexcast-net`.

use flexcast_baselines::{HierPacket, SkeenPacket};
use flexcast_core::{FlexCastGroup, HistoryDelta, MsgRef, Output, Packet, TaggedEdge};
use flexcast_gtpcc::txn::OrderLine;
use flexcast_gtpcc::{Transaction, TxnType};
use flexcast_harness::replicated::{apply_cmd, ReplCmd, ReplEngine};
use flexcast_harness::NetMsg;
use flexcast_overlay::CDagOrder;
use flexcast_smr::{Ballot, BleMsg, PaxosMsg};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn net_bytes(m: &NetMsg) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode(&mut out);
    assert_eq!(out.len(), m.wire_size(), "wire_size is the encoded length");
    out
}

fn id(c: u32, s: u32) -> MsgId {
    MsgId::new(ClientId(c), s)
}

fn dst(ranks: &[u16]) -> DestSet {
    DestSet::try_from_ranks(ranks.iter().copied()).unwrap()
}

/// A message with multi-byte varints in every field and a destination in
/// a high bitset word.
fn message() -> Message {
    Message::new(
        id(70_000, 300),
        dst(&[0, 3, 200]),
        Payload::from(vec![1, 2, 0xff]),
    )
    .unwrap()
}

fn delta() -> HistoryDelta {
    HistoryDelta {
        verts: vec![
            MsgRef {
                id: id(1, 2),
                dst: dst(&[0, 1]),
            },
            MsgRef {
                id: id(3, 129),
                dst: dst(&[511]),
            },
        ],
        edges: vec![TaggedEdge {
            creator: GroupId(2),
            idx: 128,
            before: id(1, 2),
            after: id(3, 129),
        }],
    }
}

fn packets() -> Vec<(&'static str, Packet)> {
    let mref = MsgRef::of(&message());
    vec![
        (
            "msg",
            Packet::Msg {
                msg: message(),
                notif_pairs: vec![(GroupId(0), GroupId(1))],
                hist: delta(),
            },
        ),
        (
            "ack",
            Packet::Ack {
                mref,
                via: GroupId(300),
                notif_pairs: vec![(GroupId(1), GroupId(2)), (GroupId(3), GroupId(4))],
                hist: delta(),
            },
        ),
        (
            "notif",
            Packet::Notif {
                mref,
                hist: HistoryDelta::empty(),
            },
        ),
        (
            "advert",
            Packet::Advert {
                wm: Watermarks {
                    clients: vec![(ClientId(3), 17), (ClientId(9), 0)],
                    edges: vec![(GroupId(7), 123_456)],
                },
            },
        ),
    ]
}

fn net_samples() -> Vec<(String, NetMsg)> {
    let ballot = Ballot {
        round: 200,
        owner: 2,
    };
    let peer_cmd = ReplCmd::Peer {
        peer: GroupId(5),
        seq: 1_000,
        pkt: packets()[2].1.clone(),
    };
    let mut out: Vec<(String, NetMsg)> = vec![(
        "client".into(),
        NetMsg::Client {
            msg: message(),
            reply_to: 300,
        },
    )];
    for (name, p) in packets() {
        out.push((format!("flex/{name}"), NetMsg::Flex(p)));
    }
    out.extend([
        (
            "skeen/msg".into(),
            NetMsg::Skeen(SkeenPacket::Msg(message())),
        ),
        (
            "skeen/ts".into(),
            NetMsg::Skeen(SkeenPacket::Ts {
                id: id(4, 5),
                ts: 1 << 40,
            }),
        ),
        ("hier".into(), NetMsg::Hier(HierPacket(message()))),
        ("reply".into(), NetMsg::Reply { id: id(8, 9) }),
        (
            "repl/prepare".into(),
            NetMsg::Repl(PaxosMsg::Prepare { ballot }),
        ),
        (
            "repl/promise".into(),
            NetMsg::Repl(PaxosMsg::Promise {
                ballot,
                accepted: vec![
                    (0, Ballot::ZERO, ReplCmd::Client(message())),
                    (1, ballot, peer_cmd.clone()),
                    (2, ballot, ReplCmd::Noop { proposer: 1 }),
                ],
            }),
        ),
        (
            "repl/accept".into(),
            NetMsg::Repl(PaxosMsg::Accept {
                ballot,
                slot: 77,
                cmd: peer_cmd,
            }),
        ),
        (
            "repl/accepted".into(),
            NetMsg::Repl(PaxosMsg::Accepted { ballot, slot: 77 }),
        ),
        (
            "repl/learn".into(),
            NetMsg::Repl(PaxosMsg::Learn {
                slot: 78,
                cmd: ReplCmd::Noop { proposer: 0 },
            }),
        ),
        (
            "repl/learnreq".into(),
            NetMsg::Repl(PaxosMsg::LearnReq { from_slot: 12 }),
        ),
        (
            "groupmsg".into(),
            NetMsg::GroupMsg {
                seq: 130,
                pkt: packets()[1].1.clone(),
            },
        ),
        (
            "ble/request".into(),
            NetMsg::Ble(BleMsg::HeartbeatRequest { round: 3 }),
        ),
        (
            "ble/reply".into(),
            NetMsg::Ble(BleMsg::HeartbeatReply {
                round: 3,
                ballot,
                candidate: true,
            }),
        ),
        ("snapreq".into(), NetMsg::SnapReq { have: 5 }),
        (
            "snapshot".into(),
            NetMsg::Snapshot {
                through: 9,
                state: vec![0, 127, 128, 255],
            },
        ),
    ]);
    out
}

const NET_GOLDEN: &[(&str, &str)] = &[
    ("client", "00f0a204ac02090000800200000000030102ffac02"),
    (
        "flex/msg",
        concat!(
            "0100f0a204ac02090000800200000000030102ff010001020102030000000000",
            "00000381010000000000000080808080808080808001010280010102038101",
        ),
    ),
    (
        "flex/ack",
        concat!(
            "0101f0a204ac02090000800200000000ac020201020304020102030000000000",
            "00000381010000000000000080808080808080808001010280010102038101",
        ),
    ),
    ("flex/notif", "0102f0a204ac020900008002000000000000"),
    ("flex/advert", "010302031109000107c0c407"),
    ("skeen/msg", "0200f0a204ac02090000800200000000030102ff"),
    ("skeen/ts", "02010405808080808020"),
    ("hier", "03f0a204ac02090000800200000000030102ff"),
    ("reply", "040809"),
    ("repl/prepare", "0500c80102"),
    (
        "repl/promise",
        concat!(
            "0501c801020300000000f0a204ac02090000800200000000030102ff01c80102",
            "0105e80702f0a204ac02090000800200000000000002c801020201",
        ),
    ),
    (
        "repl/accept",
        "0502c801024d0105e80702f0a204ac020900008002000000000000",
    ),
    ("repl/accepted", "0503c801024d"),
    ("repl/learn", "05044e0200"),
    ("repl/learnreq", "05050c"),
    (
        "groupmsg",
        concat!(
            "06820101f0a204ac02090000800200000000ac02020102030402010203000000",
            "0000000003810100000000000000808080808080808080010102800101020381",
            "01",
        ),
    ),
    ("ble/request", "070003"),
    ("ble/reply", "070103c8010201"),
    ("snapreq", "0805"),
    ("snapshot", "090904007f8001ff01"),
];

/// The snapshot of group 2 of 3 left mid-protocol with adverts on: one
/// message delivered, a second parked awaiting group 1's ack.
fn engine_snapshot() -> Vec<u8> {
    let (a_id, c_id) = (GroupId(0), GroupId(2));
    let mut a = FlexCastGroup::new(a_id, 3);
    let mut c = FlexCastGroup::new(c_id, 3);
    a.set_advert_stride(1);
    c.set_advert_stride(1);
    let m1 = Message::new(id(1, 1), dst(&[0, 2]), Payload::empty()).unwrap();
    let m2 = Message::new(id(2, 2), dst(&[0, 1, 2]), Payload::zeroes(4)).unwrap();
    for m in [m1, m2] {
        let mut out = Vec::new();
        a.on_client(m, &mut out);
        for o in out {
            if let Output::Send { to, pkt } = o {
                if to == c_id {
                    c.on_packet(a_id, pkt, &mut Vec::new());
                }
            }
        }
    }
    assert_eq!(c.backlog(), 1, "m2 parked awaiting the middle ack");
    c.snapshot().unwrap()
}

const ENGINE_GOLDEN: &str = concat!(
    "0203010101020101050000000000000002020700000000000000010000010102",
    "0203ffffffff0fffffffff0fffffffff0f020101020201010000000302000100",
    "0101010201020200010202010202070000000000000004000000000000000001",
    "0202000000030000000300000001010303030003000000030100000100000003",
    "0000000300000002000000",
);

/// A replicated engine at node 0 of 3 after one client command and one
/// out-of-order peer packet (held for its turn).
fn repl_snapshot() -> Vec<u8> {
    let mut e = ReplEngine::new(GroupId(0), CDagOrder::identity(3), Some(1));
    let mut effects = Vec::new();
    apply_cmd(
        &mut e,
        ReplCmd::Client(Message::new(id(6, 0), dst(&[0, 1]), Payload::zeroes(2)).unwrap()),
        &mut effects,
    );
    apply_cmd(
        &mut e,
        ReplCmd::Peer {
            peer: GroupId(1),
            seq: 3,
            pkt: packets()[3].1.clone(),
        },
        &mut effects,
    );
    flexcast_wire::to_bytes(&e.to_snapshot()).unwrap()
}

const REPL_GOLDEN: &str = concat!(
    "66000301060001060003000000000000000007ff01ff01ff01ff010fff01ff01",
    "ff01ff010fff01ff01ff01ff010fff01ff01ff01ff010fff01ff01ff01ff010f",
    "ff01ff01ff01ff010f0000000001000000000106000000000000000000030001",
    "0003000000010103000000030000000300000003000000030000000000000001",
    "06000101000101030302031109000107c0c40701010101010000060003000000",
    "0000000002000000010600030000000000000000010600",
);

fn transaction() -> Transaction {
    Transaction {
        kind: TxnType::NewOrder,
        home: GroupId(2),
        warehouses: dst(&[2, 5]),
        district: 3,
        customer: 1234,
        lines: vec![
            OrderLine {
                item_id: 100_000,
                supply_warehouse: 5,
                quantity: 10,
            },
            OrderLine {
                item_id: 42,
                supply_warehouse: 2,
                quantity: 1,
            },
        ],
        amount: 0,
    }
}

const TXN_GOLDEN: &str = "0002240000000000000003d20902a08d06050a2a020100";

#[test]
fn net_messages_match_recorded_bytes() {
    let samples = net_samples();
    assert_eq!(samples.len(), NET_GOLDEN.len());
    for ((name, m), (gname, ghex)) in samples.iter().zip(NET_GOLDEN) {
        assert_eq!(name, gname);
        assert_eq!(hex(&net_bytes(m)), *ghex, "{name}");
    }
}

/// Nothing on the simulated wire decodes a command, but a `ReplCmd` is
/// a `Wire` type and its decode must read back what its encode wrote.
#[test]
fn repl_cmds_roundtrip() {
    let cmds = [
        ReplCmd::Client(message()),
        ReplCmd::Peer {
            peer: GroupId(5),
            seq: 1_000,
            pkt: packets()[0].1.clone(),
        },
        ReplCmd::Noop { proposer: 2 },
    ];
    for cmd in cmds {
        let bytes = flexcast_wire::to_bytes(&cmd).unwrap();
        assert_eq!(flexcast_wire::from_bytes::<ReplCmd>(&bytes).unwrap(), cmd);
    }
}

#[test]
fn engine_snapshot_matches_recorded_bytes() {
    let bytes = engine_snapshot();
    assert_eq!(hex(&bytes), ENGINE_GOLDEN);
    let restored = FlexCastGroup::restore(&bytes).unwrap();
    assert_eq!(restored.snapshot().unwrap(), bytes);
}

#[test]
fn repl_snapshot_matches_recorded_bytes() {
    assert_eq!(hex(&repl_snapshot()), REPL_GOLDEN);
}

#[test]
fn transaction_payload_matches_recorded_bytes() {
    let p = transaction().payload();
    assert_eq!(hex(p.as_slice()), TXN_GOLDEN);
    let back: Transaction = flexcast_wire::from_bytes(p.as_slice()).unwrap();
    assert_eq!(back, transaction());
}
