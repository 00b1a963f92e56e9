//! FlexCast: genuine overlay-based atomic multicast.
//!
//! This crate implements the paper's primary contribution — the FlexCast
//! protocol (Algorithms 1–3) — as a *sans-io* state machine. The engine
//! ([`FlexCastGroup`]) consumes client messages and peer packets and emits
//! [`Output`] actions (sends and deliveries); it performs no I/O itself, so
//! the same code runs on the deterministic simulator (`flexcast-sim`), the
//! TCP runtime (`flexcast-net`), and under state machine replication
//! (`flexcast-smr`).
//!
//! # Protocol recap
//!
//! Groups are totally ordered by rank and connected as a complete DAG:
//! every group has a FIFO reliable channel to every higher-ranked group. A
//! client multicasts `m` by sending it to `m.lca()` — the lowest-ranked
//! destination — which delivers immediately and forwards `m` to the other
//! destinations. Three mechanisms make the global delivery order acyclic:
//!
//! * **Histories** (Strategy a): each group records its deliveries in a
//!   DAG and piggybacks the *new* part of that DAG (a [`HistoryDelta`]) on
//!   every packet it sends; receivers merge deltas into their own history
//!   and never deliver a message before its undelivered predecessors.
//! * **Acks** (Strategy b): each non-lca destination acknowledges `m` to
//!   the destinations above it, carrying its history, so they observe the
//!   dependencies it created.
//! * **Notifs** (Strategy c): a destination that previously communicated
//!   with a group `h` below another destination tells `h` to flush *its*
//!   dependencies down with an ack, covering dependencies invisible to the
//!   destinations themselves.
//!
//! Garbage collection (§4.3) is flush-based: delivering a flush message
//! that is addressed to every group prunes all history that precedes it.
//!
//! On top of the paper's protocol, the engine implements *delta
//! suppression* (opt-in via [`FlexCastGroup::set_advert_stride`]): a
//! group receives the same history entry from up to `n − 1` ancestors,
//! so each group advertises compact watermarks of what it has already
//! processed *upstream* ([`Packet::Advert`] — the only flow against the
//! C-DAG edge direction), and senders filter their `diff-hst` deltas
//! against the advertised view. Suppressed entries are exactly those the
//! receiver's merge would reject as duplicates, so delivered traces are
//! unchanged — only the duplicate encode/clone/probe work disappears.
//! `DESIGN.md` §8 specifies the protocol, including failover semantics.
//!
//! # Example
//!
//! ```
//! use flexcast_core::{FlexCastGroup, Output};
//! use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
//!
//! // Three groups ranked A(0) < B(1) < C(2); multicast to {A, C}.
//! let mut a = FlexCastGroup::new(GroupId(0), 3);
//! let m = Message::new(
//!     MsgId::new(ClientId(0), 0),
//!     DestSet::from_iter([GroupId(0), GroupId(2)]),
//!     Payload::empty(),
//! ).unwrap();
//!
//! let mut out = Vec::new();
//! a.on_client(m.clone(), &mut out);
//! // The lca delivers immediately and forwards to C.
//! assert!(matches!(&out[0], Output::Deliver(d) if d.id == m.id));
//! assert!(matches!(&out[1], Output::Send { to, .. } if *to == GroupId(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod history;
pub mod packet;

pub use engine::{FlexCastGroup, Output, SuppressionStats, FLUSH_PAYLOAD};
pub use history::{History, HistoryDelta, MergeStats, MsgRef, TaggedEdge};
pub use packet::Packet;

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};
    use flexcast_wire::{from_bytes, to_bytes};

    fn packets() -> Vec<Packet> {
        let mref = MsgRef {
            id: MsgId::new(ClientId(1), 2),
            dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
        };
        let hist = HistoryDelta {
            verts: vec![mref],
            edges: vec![TaggedEdge {
                creator: GroupId(0),
                idx: 0,
                before: mref.id,
                after: MsgId::new(ClientId(1), 3),
            }],
        };
        vec![
            Packet::Msg {
                msg: Message::new(mref.id, mref.dst, Payload::zeroes(3)).unwrap(),
                notif_pairs: vec![(GroupId(0), GroupId(1))],
                hist: hist.clone(),
            },
            Packet::Ack {
                mref,
                via: GroupId(1),
                notif_pairs: vec![],
                hist,
            },
            Packet::Notif {
                mref,
                hist: HistoryDelta::empty(),
            },
            Packet::Advert {
                wm: Watermarks::default(),
            },
        ]
    }

    /// Every `Packet` variant survives the wire, and its first byte is its
    /// declaration index.
    #[test]
    fn enums_roundtrip() {
        for (i, p) in packets().into_iter().enumerate() {
            let bytes = to_bytes(&p).unwrap();
            assert_eq!(bytes[0] as usize, i);
            assert_eq!(from_bytes::<Packet>(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn unknown_variant_rejected() {
        let mut bytes = to_bytes(&packets()[3]).unwrap();
        for v in [4u8, 9, 0x7f] {
            bytes[0] = v;
            assert!(from_bytes::<Packet>(&bytes).is_err(), "variant {v}");
        }
    }
}
