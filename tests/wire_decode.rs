//! Decoding peer bytes never panics.
//!
//! A replica installs snapshots shipped by a sibling and a destination
//! reads transaction payloads carried by the multicast, so both decoders
//! face bytes they did not produce. Arbitrary input, every strict prefix
//! of a real encoding, and a real encoding with one byte flipped must
//! each decode or fail with an error, never panic.

use flexcast_core::Packet;
use flexcast_gtpcc::txn::OrderLine;
use flexcast_gtpcc::{Transaction, TxnType};
use flexcast_harness::replicated::{apply_cmd, ReplCmd, ReplEngine, ReplSnapshot};
use flexcast_overlay::CDagOrder;
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};
use flexcast_wire::{from_bytes, to_bytes};
use proptest::prelude::*;

/// A replicated engine's snapshot after a client command and one held
/// out-of-order peer packet.
fn repl_snapshot_bytes() -> Vec<u8> {
    let mut e = ReplEngine::new(GroupId(0), CDagOrder::identity(3), Some(1));
    let mut effects = Vec::new();
    let m = Message::new(
        MsgId::new(ClientId(6), 0),
        DestSet::from_iter([GroupId(0), GroupId(1)]),
        Payload::zeroes(2),
    )
    .unwrap();
    apply_cmd(&mut e, ReplCmd::Client(m), &mut effects);
    let advert = Packet::Advert {
        wm: Watermarks {
            clients: vec![(ClientId(3), 17)],
            edges: vec![(GroupId(1), 4)],
        },
    };
    apply_cmd(
        &mut e,
        ReplCmd::Peer {
            peer: GroupId(1),
            seq: 3,
            pkt: advert,
        },
        &mut effects,
    );
    to_bytes(&e.to_snapshot()).unwrap()
}

fn transaction_bytes() -> Vec<u8> {
    let t = Transaction {
        kind: TxnType::Payment,
        home: GroupId(4),
        warehouses: DestSet::from_iter([GroupId(4), GroupId(9)]),
        district: 7,
        customer: 2_999,
        lines: vec![OrderLine {
            item_id: 99_999,
            supply_warehouse: 9,
            quantity: 3,
        }],
        amount: 12_345,
    };
    t.payload().as_slice().to_vec()
}

/// Decodes a snapshot all the way to a running engine, as snapshot
/// install does.
fn install(bytes: &[u8]) -> Result<ReplEngine, flexcast_types::Error> {
    let snap: ReplSnapshot = from_bytes(bytes)?;
    ReplEngine::from_snapshot(snap, CDagOrder::identity(3))
}

proptest! {
    #[test]
    fn prop_garbage_snapshots_and_transactions_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        let _ = install(&bytes);
        let _ = from_bytes::<Transaction>(&bytes);
    }

    #[test]
    fn prop_truncated_snapshot_fails_cleanly(cut in 0usize..10_000, at in 0usize..10_000, x in 1u8..=255) {
        let bytes = repl_snapshot_bytes();
        prop_assert!(install(&bytes).is_ok());
        prop_assert!(install(&bytes[..cut % bytes.len()]).is_err());
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= x;
        let _ = install(&flipped);
    }

    #[test]
    fn prop_truncated_transaction_fails_cleanly(cut in 0usize..1_000, at in 0usize..1_000, x in 1u8..=255) {
        let bytes = transaction_bytes();
        prop_assert!(from_bytes::<Transaction>(&bytes).is_ok());
        prop_assert!(from_bytes::<Transaction>(&bytes[..cut % bytes.len()]).is_err());
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= x;
        let _ = from_bytes::<Transaction>(&flipped);
    }
}
