//! TPC-C transaction types and payload encoding.

use flexcast_types::{DestSet, GroupId, Payload};
use flexcast_wire::{unknown_variant, wire_struct, Reader, Sink, Wire};

/// The five TPC-C transaction profiles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TxnType {
    /// New-order: 5–15 order lines, each with a 2 % chance of a remote
    /// warehouse (TPC-C §2.4). 45 % of the mix.
    NewOrder,
    /// Payment: 15 % of payments are for a remote customer (TPC-C §2.5).
    /// 43 % of the mix.
    Payment,
    /// Order-status: read-only, home warehouse only. 4 %.
    OrderStatus,
    /// Delivery: deferred batch, home warehouse only. 4 %.
    Delivery,
    /// Stock-level: read-only, home warehouse only. 4 %.
    StockLevel,
}

/// The variant index in declaration order.
impl Wire for TxnType {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_varint(*self as u64);
    }

    fn decode(r: &mut Reader<'_>) -> flexcast_types::Result<Self> {
        Ok(match r.varint()? {
            0 => TxnType::NewOrder,
            1 => TxnType::Payment,
            2 => TxnType::OrderStatus,
            3 => TxnType::Delivery,
            4 => TxnType::StockLevel,
            v => return Err(unknown_variant("TxnType", v)),
        })
    }
}

impl TxnType {
    /// True for the three profiles that always stay in one warehouse.
    pub fn is_always_local(self) -> bool {
        matches!(
            self,
            TxnType::OrderStatus | TxnType::Delivery | TxnType::StockLevel
        )
    }
}

/// One order line of a new-order transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrderLine {
    /// Item identifier (1..=100000 in TPC-C).
    pub item_id: u32,
    /// Supplying warehouse (may differ from the home warehouse).
    pub supply_warehouse: u16,
    /// Quantity ordered (1..=10).
    pub quantity: u8,
}

wire_struct!(OrderLine {
    item_id,
    supply_warehouse,
    quantity
});

/// A gTPC-C transaction: the profile, the warehouses it touches, and the
/// business fields that make up the multicast payload.
///
/// The payload bytes (via [`Transaction::payload`]) are what the atomic
/// multicast protocols carry; their size feeds the traffic accounting of
/// Figure 8.
#[derive(Clone, PartialEq, Debug)]
pub struct Transaction {
    /// Transaction profile.
    pub kind: TxnType,
    /// The client's home warehouse (nearest region).
    pub home: GroupId,
    /// All warehouses touched — the multicast destination set.
    pub warehouses: DestSet,
    /// District within the home warehouse (1..=10).
    pub district: u8,
    /// Customer identifier (1..=3000).
    pub customer: u16,
    /// Order lines (new-order only; empty otherwise).
    pub lines: Vec<OrderLine>,
    /// Payment amount in cents (payment only; 0 otherwise).
    pub amount: u32,
}

wire_struct!(Transaction {
    kind,
    home,
    warehouses,
    district,
    customer,
    lines,
    amount,
});

impl Transaction {
    /// True if the transaction touches at least two warehouses — a
    /// *global* message in the paper's terminology.
    pub fn is_global(&self) -> bool {
        self.warehouses.is_global()
    }

    /// Serializes the business fields into the multicast payload.
    pub fn payload(&self) -> Payload {
        flexcast_wire::to_bytes(self)
            .expect("transactions always encode")
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn() -> Transaction {
        Transaction {
            kind: TxnType::NewOrder,
            home: GroupId(2),
            warehouses: DestSet::from_iter([GroupId(2), GroupId(5)]),
            district: 3,
            customer: 1234,
            lines: vec![
                OrderLine {
                    item_id: 42,
                    supply_warehouse: 2,
                    quantity: 5,
                },
                OrderLine {
                    item_id: 77,
                    supply_warehouse: 5,
                    quantity: 1,
                },
            ],
            amount: 0,
        }
    }

    #[test]
    fn locality_classification() {
        assert!(TxnType::OrderStatus.is_always_local());
        assert!(TxnType::Delivery.is_always_local());
        assert!(TxnType::StockLevel.is_always_local());
        assert!(!TxnType::NewOrder.is_always_local());
        assert!(!TxnType::Payment.is_always_local());
    }

    #[test]
    fn global_detection() {
        let t = txn();
        assert!(t.is_global());
        let mut local = t.clone();
        local.warehouses = DestSet::singleton(GroupId(2));
        assert!(!local.is_global());
    }

    #[test]
    fn payload_roundtrips_through_wire() {
        let t = txn();
        let p = t.payload();
        assert!(!p.is_empty());
        let back: Transaction = flexcast_wire::from_bytes(&p.0).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn payload_size_grows_with_lines() {
        let mut t = txn();
        let small = t.payload().len();
        t.lines.extend(std::iter::repeat_n(t.lines[0], 10));
        assert!(t.payload().len() > small);
    }
}
