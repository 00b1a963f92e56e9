//! Model-based property test for [`History`]: random sequences of local
//! deliveries, merges (including duplicate and stale deltas that carry
//! pruned ids), flush pruning and snapshot round trips, checked after
//! every step against a small reference model built from ordered maps.

use flexcast_core::{History, HistoryDelta, MergeStats, MsgRef, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Ids in play: two clients × eight sequence numbers, so deltas keep
/// naming vertices that were pruned or delivered out of sequence.
const POOL: u8 = 16;
/// Groups the vertices are addressed to.
const GROUPS: u16 = 4;
/// The group whose deliveries create edges locally; never a creator in
/// a merged delta, as in the protocol (packets flow strictly downward).
const OWNER: GroupId = GroupId(7);

fn mid(i: u8) -> MsgId {
    MsgId::new(ClientId((i / 8) as u32), (i % 8) as u32)
}

/// A vertex's destinations depend on its id only, as in the protocol.
fn mref(i: u8) -> MsgRef {
    let a = (i as u16) % GROUPS;
    let b = (i as u16 / GROUPS) % GROUPS;
    MsgRef {
        id: mid(i),
        dst: DestSet::try_from_ranks([a, b]).unwrap(),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// `record_delivery` of one pool id.
    Deliver(u8),
    /// `merge` of a fresh delta: vertex ids, then `(creator, idx, before,
    /// after)` edges.
    Merge(Vec<u8>, Vec<(u16, u32, u8, u8)>),
    /// Merge an earlier delta again (by index mod the number merged).
    Replay(usize),
    /// `prune_before` a pool id, with two vertex and two edge cursors
    /// (each taken mod the log length + 1).
    Prune(u8, [usize; 2], [usize; 2]),
    /// Replace the history by a serialize/deserialize round trip.
    Restore,
}

/// One random operation; weights favour deliveries and merges.
fn gen_op(rng: &mut TestRng) -> Op {
    let id = |rng: &mut TestRng| rng.below(POOL as u64) as u8;
    let cursor = |rng: &mut TestRng| rng.next_u32() as usize;
    match rng.below(13) {
        0..=3 => Op::Deliver(id(rng)),
        4..=7 => {
            let verts = (0..rng.below(5)).map(|_| id(rng)).collect();
            let edges = (0..rng.below(5))
                .map(|_| {
                    let creator = rng.below(3) as u16;
                    let idx = rng.below(6) as u32;
                    (creator, idx, id(rng), id(rng))
                })
                .collect();
            Op::Merge(verts, edges)
        }
        8..=9 => Op::Replay(cursor(rng)),
        10..=11 => Op::Prune(
            id(rng),
            [cursor(rng), cursor(rng)],
            [cursor(rng), cursor(rng)],
        ),
        _ => Op::Restore,
    }
}

/// The reference: the pre-index representation, kept deliberately plain.
#[derive(Default)]
struct Model {
    verts: BTreeMap<MsgId, DestSet>,
    edges: BTreeSet<(MsgId, MsgId)>,
    vert_log: Vec<MsgId>,
    edge_log: Vec<(MsgId, MsgId)>,
    seen: BTreeSet<MsgId>,
    processed: BTreeSet<(GroupId, u32)>,
    last: Option<MsgId>,
    next_idx: u32,
    stats: MergeStats,
}

impl Model {
    fn insert_vert(&mut self, v: MsgRef) -> bool {
        if !self.seen.insert(v.id) {
            return false;
        }
        self.verts.insert(v.id, v.dst);
        self.vert_log.push(v.id);
        true
    }

    fn linkable(&self, b: MsgId, a: MsgId) -> bool {
        b != a
            && self.verts.contains_key(&b)
            && self.verts.contains_key(&a)
            && !self.edges.contains(&(b, a))
    }

    fn link(&mut self, b: MsgId, a: MsgId) {
        self.edges.insert((b, a));
        self.edge_log.push((b, a));
    }

    fn record_delivery(&mut self, v: MsgRef) {
        self.insert_vert(v);
        if let Some(last) = self.last {
            if self.linkable(last, v.id) {
                self.processed.insert((OWNER, self.next_idx));
                self.next_idx += 1;
                self.link(last, v.id);
            }
        }
        self.last = Some(v.id);
    }

    fn merge(&mut self, d: &HistoryDelta) {
        for &v in &d.verts {
            self.stats.verts_in += 1;
            if !self.insert_vert(v) {
                self.stats.verts_dup += 1;
            }
        }
        for e in &d.edges {
            self.stats.edges_in += 1;
            let fresh = self.processed.insert((e.creator, e.idx));
            if fresh && self.linkable(e.before, e.after) {
                self.link(e.before, e.after);
            } else {
                self.stats.edges_dup += 1;
            }
        }
    }

    fn preds(&self, id: MsgId) -> BTreeSet<MsgId> {
        self.edges
            .iter()
            .filter(|&&(_, a)| a == id)
            .map(|&(b, _)| b)
            .collect()
    }

    fn succs(&self, id: MsgId) -> BTreeSet<MsgId> {
        self.edges
            .iter()
            .filter(|&&(b, _)| b == id)
            .map(|&(_, a)| a)
            .collect()
    }

    fn prune(&mut self, fence: MsgId, vc: &mut [usize], ec: &mut [usize]) -> Vec<MsgId> {
        if !self.verts.contains_key(&fence) {
            return Vec::new();
        }
        let mut doomed = BTreeSet::new();
        let mut stack: Vec<MsgId> = self.preds(fence).into_iter().collect();
        while let Some(v) = stack.pop() {
            if doomed.insert(v) {
                stack.extend(self.preds(v));
            }
        }
        if doomed.is_empty() {
            return Vec::new();
        }
        self.verts.retain(|id, _| !doomed.contains(id));
        let live = |&(b, a): &(MsgId, MsgId)| !doomed.contains(&b) && !doomed.contains(&a);
        self.edges.retain(live);
        remap(&mut self.vert_log, |id| !doomed.contains(id), vc);
        remap(&mut self.edge_log, live, ec);
        doomed.into_iter().collect()
    }
}

/// Keeps the entries that pass `keep`; each cursor becomes the number of
/// kept entries among the ones it covered.
fn remap<T>(log: &mut Vec<T>, keep: impl Fn(&T) -> bool, cursors: &mut [usize]) {
    for c in cursors.iter_mut() {
        *c = log[..*c].iter().filter(|x| keep(x)).count();
    }
    log.retain(keep);
}

fn check(h: &History, m: &Model) {
    let verts: BTreeMap<MsgId, DestSet> = h.verts().map(|v| (v.id, v.dst)).collect();
    assert_eq!(verts, m.verts, "vertex sets");
    assert_eq!(h.len(), m.verts.len());
    assert_eq!(h.edges().collect::<BTreeSet<_>>(), m.edges, "edge sets");
    assert_eq!(h.edge_count(), m.edges.len());
    let vlog: Vec<MsgId> = h.verts_since(0).iter().map(|v| v.id).collect();
    assert_eq!(vlog, m.vert_log, "vertex log order");
    let elog: Vec<(MsgId, MsgId)> = h
        .edges_since(0)
        .iter()
        .map(|e| (e.before, e.after))
        .collect();
    assert_eq!(elog, m.edge_log, "edge log order");
    for i in 0..POOL {
        let id = mid(i);
        assert_eq!(h.contains(id), m.verts.contains_key(&id), "contains {id}");
        assert_eq!(h.dst_of(id), m.verts.get(&id).copied(), "dst_of {id}");
        assert_eq!(h.has_seen(id), m.seen.contains(&id), "has_seen {id}");
        assert_eq!(h.preds_of(id).collect::<BTreeSet<_>>(), m.preds(id));
        assert_eq!(h.succs_of(id).collect::<BTreeSet<_>>(), m.succs(id));
    }
    for g in (0..GROUPS).map(GroupId) {
        let addressed = m.verts.values().any(|d| d.contains(g));
        assert_eq!(h.contains_msg_to(g), addressed, "contains_msg_to {g}");
    }
    for creator in [GroupId(0), GroupId(1), GroupId(2), OWNER] {
        for idx in 0..8 {
            assert_eq!(
                h.edge_processed(creator, idx),
                m.processed.contains(&(creator, idx)),
                "edge_processed ({creator}, {idx})"
            );
        }
    }
    assert_eq!(h.merge_stats(), m.stats);
    assert_eq!(h.last_delivered(), m.last);
}

fn round_trip(h: &History) -> History {
    let bytes = flexcast_wire::to_bytes(h).unwrap();
    let restored: History = flexcast_wire::from_bytes(&bytes).unwrap();
    assert_eq!(flexcast_wire::to_bytes(&restored).unwrap(), bytes);
    restored
}

fn run(ops: Vec<Op>) {
    let mut h = History::new();
    let mut m = Model::default();
    let mut merged: Vec<HistoryDelta> = Vec::new();
    for op in ops {
        match op {
            Op::Deliver(i) => {
                h.record_delivery(mref(i), OWNER);
                m.record_delivery(mref(i));
            }
            Op::Merge(vs, es) => {
                let d = HistoryDelta {
                    verts: vs.into_iter().map(mref).collect(),
                    edges: es
                        .into_iter()
                        .map(|(c, idx, b, a)| TaggedEdge {
                            creator: GroupId(c),
                            idx,
                            before: mid(b),
                            after: mid(a),
                        })
                        .collect(),
                };
                h.merge(&d);
                m.merge(&d);
                merged.push(d);
            }
            Op::Replay(k) => {
                if !merged.is_empty() {
                    let d = &merged[k % merged.len()];
                    h.merge(d);
                    m.merge(d);
                }
            }
            Op::Prune(f, vc, ec) => {
                let mut vc = vc.map(|c| c % (h.vert_log_len() + 1));
                let mut ec = ec.map(|c| c % (h.edge_log_len() + 1));
                let (mut mvc, mut mec) = (vc, ec);
                let pruned = h.prune_before(mid(f), &mut vc, &mut ec);
                assert_eq!(pruned, m.prune(mid(f), &mut mvc, &mut mec), "pruned ids");
                assert_eq!((vc, ec), (mvc, mec), "remapped cursors");
            }
            Op::Restore => h = round_trip(&h),
        }
        check(&h, &m);
    }
    check(&round_trip(&h), &m);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn history_matches_the_reference_model(
        ops in (1usize..60).prop_perturb(|n, mut rng| (0..n).map(|_| gen_op(&mut rng)).collect())
    ) {
        run(ops);
    }
}
