//! Regression: a late edge into a long chain of clean vertices clears the
//! whole chain from the clean-set memo without recursing once per vertex
//! (which overflowed the stack).

use flexcast_core::{FlexCastGroup, HistoryDelta, MsgRef, Packet, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};

/// Length of the clean chain `c1 … cN`.
const N: u32 = 100_000;

fn dst(ranks: &[u16]) -> DestSet {
    DestSet::try_from_ranks(ranks.iter().copied()).unwrap()
}

#[test]
fn late_edge_into_a_long_clean_chain_does_not_overflow_the_stack() {
    // Chain v = 0 → c1 … cN → m = N + 1, all from client 0. Only m is
    // addressed to rank 3; its lca is rank 1.
    let id = |seq: u32| MsgId::new(ClientId(0), seq);
    let m = Message::new(id(N + 1), dst(&[1, 3]), Payload::empty()).unwrap();
    let mut hist = HistoryDelta::empty();
    hist.verts.extend((0..=N).map(|s| MsgRef {
        id: id(s),
        dst: dst(&[1]),
    }));
    hist.verts.push(MsgRef::of(&m));
    hist.edges.extend((0..=N).map(|s| TaggedEdge {
        creator: GroupId(1),
        idx: s,
        before: id(s),
        after: id(s + 1),
    }));

    let mut g = FlexCastGroup::new(GroupId(3), 4);
    let mut out = Vec::new();
    let msg = Packet::Msg {
        msg: m.clone(),
        notif_pairs: Vec::new(),
        hist,
    };
    g.on_packet(GroupId(1), msg, &mut out);
    // Delivering m walked its whole past and marked it clean.
    assert!(g.has_delivered(m.id));

    // Rank 2 then reports u → v. u is neither clean nor delivered, so
    // every clean vertex below v loses its mark.
    let u = MsgRef {
        id: MsgId::new(ClientId(1), 0),
        dst: dst(&[2]),
    };
    let notif = Packet::Notif {
        mref: u,
        hist: HistoryDelta {
            verts: vec![u],
            edges: vec![TaggedEdge {
                creator: GroupId(2),
                idx: 0,
                before: u.id,
                after: id(0),
            }],
        },
    };
    out.clear();
    g.on_packet(GroupId(2), notif, &mut out);
    assert_eq!(g.history().len(), N as usize + 3);
    assert!(g.history().reaches(u.id, m.id));
}
