//! The simulator's wire message: a superset of all protocol packets.

use crate::replicated::ReplCmd;
use flexcast_baselines::{HierPacket, SkeenPacket};
use flexcast_core::Packet as FlexPacket;
use flexcast_smr::Ballot;
use flexcast_smr::{BleMsg, PaxosMsg};
use flexcast_types::{Message, MsgId};
use flexcast_wire::{Counter, Sink, Wire};

/// Everything that can travel between simulated processes.
///
/// [`NetMsg::encode`] writes each message in the workspace wire format,
/// so [`NetMsg::wire_size`] charges it its real encoded size — that is
/// what Figure 8's traffic accounting measures. (The simulator itself
/// passes values in memory; only sizes are computed, and nothing decodes
/// a `NetMsg`.)
#[derive(Clone, Debug)]
pub enum NetMsg {
    /// A client's multicast request arriving at a protocol entry point.
    /// `reply_to` is the client's simulator process id.
    Client {
        /// The multicast message (destinations in *node* space).
        msg: Message,
        /// Simulator pid of the issuing client.
        reply_to: usize,
    },
    /// FlexCast inter-group packet.
    Flex(FlexPacket),
    /// Skeen inter-group packet.
    Skeen(SkeenPacket),
    /// Hierarchical inter-group packet.
    Hier(HierPacket),
    /// A destination's response to the client after delivering `id`.
    Reply {
        /// The delivered message.
        id: MsgId,
    },
    /// Intra-group Paxos replication traffic (replicated worlds only).
    Repl(PaxosMsg<ReplCmd>),
    /// An inter-group FlexCast packet between *replicated* groups,
    /// sequence-numbered per directed group link so receivers can
    /// reconstruct the FIFO channel the engine assumes even under
    /// retransmission and reordering.
    GroupMsg {
        /// Position on the directed group link (assigned by the sender's
        /// replicated engine).
        seq: u64,
        /// The FlexCast packet.
        pkt: FlexPacket,
    },
    /// Intra-group ballot-leader-election heartbeat traffic.
    Ble(BleMsg),
    /// A lagging replica asking a sibling for a state snapshot. Re-sent
    /// every maintenance tick while the lag persists, so losing any one
    /// request (or its reply) only delays the transfer.
    SnapReq {
        /// The requester's apply cursor: a useful snapshot covers more.
        have: u64,
    },
    /// A sibling's snapshot reply: the serialized replicated state machine
    /// through slot `through`. Receivers discard stale or duplicate
    /// transfers (`through` at or below their own cursor), which makes the
    /// exchange loss/dup/reorder-safe.
    Snapshot {
        /// The snapshot covers slots `..through`.
        through: u64,
        /// `flexcast_wire`-encoded [`crate::replicated::ReplSnapshot`].
        state: Vec<u8>,
    },
}

impl NetMsg {
    /// Writes the message in the workspace wire format: the variant index
    /// in declaration order, then the fields in order.
    ///
    /// The SMR and baseline packets are written here through their public
    /// fields: `flexcast-smr` and `flexcast-baselines` do not depend on
    /// `flexcast-wire`, and only this simulator envelope ever encodes
    /// them.
    pub fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            NetMsg::Client { msg, reply_to } => {
                out.put_varint(0);
                msg.encode(out);
                reply_to.encode(out);
            }
            NetMsg::Flex(pkt) => {
                out.put_varint(1);
                pkt.encode(out);
            }
            NetMsg::Skeen(p) => {
                out.put_varint(2);
                match p {
                    SkeenPacket::Msg(m) => {
                        out.put_varint(0);
                        m.encode(out);
                    }
                    SkeenPacket::Ts { id, ts } => {
                        out.put_varint(1);
                        id.encode(out);
                        ts.encode(out);
                    }
                }
            }
            NetMsg::Hier(HierPacket(m)) => {
                out.put_varint(3);
                m.encode(out);
            }
            NetMsg::Reply { id } => {
                out.put_varint(4);
                id.encode(out);
            }
            NetMsg::Repl(m) => {
                out.put_varint(5);
                encode_paxos(m, out);
            }
            NetMsg::GroupMsg { seq, pkt } => {
                out.put_varint(6);
                seq.encode(out);
                pkt.encode(out);
            }
            NetMsg::Ble(m) => {
                out.put_varint(7);
                match m {
                    BleMsg::HeartbeatRequest { round } => {
                        out.put_varint(0);
                        round.encode(out);
                    }
                    BleMsg::HeartbeatReply {
                        round,
                        ballot,
                        candidate,
                    } => {
                        out.put_varint(1);
                        round.encode(out);
                        encode_ballot(ballot, out);
                        candidate.encode(out);
                    }
                }
            }
            NetMsg::SnapReq { have } => {
                out.put_varint(8);
                have.encode(out);
            }
            NetMsg::Snapshot { through, state } => {
                out.put_varint(9);
                through.encode(out);
                state.encode(out);
            }
        }
    }

    /// Exact encoded size in bytes: the [`NetMsg::encode`] walk into a
    /// byte counter. Traffic accounting calls this at every send and
    /// receive.
    pub fn wire_size(&self) -> usize {
        let mut n = Counter::default();
        self.encode(&mut n);
        n.0
    }

    /// True for messages that carry an application payload (the paper's
    /// overhead metric counts payload messages only, §5.8).
    pub fn is_payload(&self) -> bool {
        match self {
            NetMsg::Client { .. } => true,
            NetMsg::Flex(p) => p.is_payload(),
            NetMsg::Skeen(p) => matches!(p, SkeenPacket::Msg(_)),
            NetMsg::Hier(_) => true,
            NetMsg::Reply { .. } => false,
            NetMsg::Repl(_) => false,
            NetMsg::GroupMsg { pkt, .. } => pkt.is_payload(),
            NetMsg::Ble(_) => false,
            NetMsg::SnapReq { .. } => false,
            NetMsg::Snapshot { .. } => false,
        }
    }
}

fn encode_ballot<S: Sink>(b: &Ballot, out: &mut S) {
    b.round.encode(out);
    b.owner.encode(out);
}

fn encode_paxos<S: Sink>(m: &PaxosMsg<ReplCmd>, out: &mut S) {
    match m {
        PaxosMsg::Prepare { ballot } => {
            out.put_varint(0);
            encode_ballot(ballot, out);
        }
        PaxosMsg::Promise { ballot, accepted } => {
            out.put_varint(1);
            encode_ballot(ballot, out);
            out.put_varint(accepted.len() as u64);
            for (slot, b, cmd) in accepted {
                slot.encode(out);
                encode_ballot(b, out);
                cmd.encode(out);
            }
        }
        PaxosMsg::Accept { ballot, slot, cmd } => {
            out.put_varint(2);
            encode_ballot(ballot, out);
            slot.encode(out);
            cmd.encode(out);
        }
        PaxosMsg::Accepted { ballot, slot } => {
            out.put_varint(3);
            encode_ballot(ballot, out);
            slot.encode(out);
        }
        PaxosMsg::Learn { slot, cmd } => {
            out.put_varint(4);
            slot.encode(out);
            cmd.encode(out);
        }
        PaxosMsg::LearnReq { from_slot } => {
            out.put_varint(5);
            from_slot.encode(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet, GroupId, Payload};

    fn msg() -> Message {
        Message::new(
            MsgId::new(ClientId(1), 2),
            DestSet::from_iter([GroupId(0), GroupId(3)]),
            Payload(vec![7; 64].into()),
        )
        .unwrap()
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = NetMsg::Client {
            msg: Message::new(msg().id, msg().dst, Payload::empty()).unwrap(),
            reply_to: 14,
        };
        let big = NetMsg::Client {
            msg: msg(),
            reply_to: 14,
        };
        assert!(big.wire_size() > small.wire_size() + 60);
        assert!(NetMsg::Reply { id: msg().id }.wire_size() < 16);
    }

    /// The counted size and the written bytes come from one walk; this
    /// checks the two sinks agree across randomized packets with
    /// multi-byte varints, long deltas and payloads.
    #[test]
    fn wire_size_matches_encoded_len_on_random_packets() {
        use flexcast_core::history::{HistoryDelta, MsgRef, TaggedEdge};
        use flexcast_types::Watermarks;

        // Tiny deterministic LCG: the test needs variety, not quality.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..200u32 {
            let id = MsgId::new(ClientId(next() as u32), next() as u32);
            let dst =
                DestSet::from_iter((0..1 + next() % 6).map(|_| GroupId((next() % 512) as u16)));
            let mut hist = HistoryDelta::empty();
            for _ in 0..next() % 40 {
                hist.verts.push(MsgRef {
                    id: MsgId::new(ClientId(next() as u32), next() as u32),
                    dst,
                });
            }
            for _ in 0..next() % 40 {
                hist.edges.push(TaggedEdge {
                    creator: GroupId((next() % 512) as u16),
                    idx: next() as u32,
                    before: MsgId::new(ClientId(next() as u32), next() as u32),
                    after: MsgId::new(ClientId(next() as u32), next() as u32),
                });
            }
            let notif_pairs: Vec<_> = (0..next() % 5)
                .map(|_| {
                    (
                        GroupId((next() % 512) as u16),
                        GroupId((next() % 512) as u16),
                    )
                })
                .collect();
            let pkt = match round % 4 {
                0 => FlexPacket::Msg {
                    msg: Message::new(id, dst, Payload(vec![7u8; (next() % 300) as usize].into()))
                        .unwrap(),
                    notif_pairs,
                    hist,
                },
                1 => FlexPacket::Ack {
                    mref: MsgRef { id, dst },
                    via: GroupId((next() % 512) as u16),
                    notif_pairs,
                    hist,
                },
                2 => FlexPacket::Notif {
                    mref: MsgRef { id, dst },
                    hist,
                },
                _ => FlexPacket::Advert {
                    wm: Watermarks {
                        clients: (0..next() % 8)
                            .map(|_| (ClientId(next() as u32), next() as u32))
                            .collect(),
                        edges: (0..next() % 8)
                            .map(|_| (GroupId((next() % 512) as u16), next() as u32))
                            .collect(),
                    },
                },
            };
            for m in [
                NetMsg::Flex(pkt.clone()),
                NetMsg::GroupMsg { seq: next(), pkt },
            ] {
                let mut bytes = Vec::new();
                m.encode(&mut bytes);
                assert_eq!(
                    m.wire_size(),
                    bytes.len(),
                    "counted size diverged from the bytes at round {round}"
                );
            }
        }
    }

    #[test]
    fn payload_classification() {
        assert!(NetMsg::Client {
            msg: msg(),
            reply_to: 0
        }
        .is_payload());
        assert!(NetMsg::Hier(HierPacket(msg())).is_payload());
        assert!(NetMsg::Skeen(SkeenPacket::Msg(msg())).is_payload());
        assert!(!NetMsg::Skeen(SkeenPacket::Ts {
            id: msg().id,
            ts: 4
        })
        .is_payload());
        assert!(!NetMsg::Reply { id: msg().id }.is_payload());
    }
}
