//! The history DAG (paper Algorithm 1, type `H`).
//!
//! A history is `H = (M, D, lastDlvd)`: a set of message vertices, a set of
//! order edges, and the last message delivered locally. Vertices carry only
//! a message's id and destinations ("A vertex contains a message's id and
//! destinations", §4.1) — payloads never travel inside histories.
//!
//! Each group's own deliveries form a chain (total order); merging the
//! histories of ancestor groups turns the structure into a DAG whose paths
//! encode (transitive) delivery dependencies.

use flexcast_types::{DestSet, GroupId, Message, MsgId};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A history vertex: a message's identity and destinations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MsgRef {
    /// The message's globally unique id.
    pub id: MsgId,
    /// The message's destination groups.
    pub dst: DestSet,
}

impl MsgRef {
    /// Builds a reference from a full message.
    pub fn of(m: &Message) -> Self {
        MsgRef {
            id: m.id,
            dst: m.dst,
        }
    }

    /// The lowest-ranked destination (`m.lca()`).
    pub fn lca(&self) -> GroupId {
        self.dst
            .lowest()
            .expect("history vertices have destinations")
    }
}

/// A history order edge with its provenance: which group created it and
/// at which position in that group's creation sequence.
///
/// Every edge in the system originates at exactly one group — the group
/// that delivered `after` immediately after `before` chains the pair in
/// [`History::record_delivery`]. Tagging edges with the `(creator, idx)`
/// of that event gives each one a dense, per-creator stream position, so
/// "which edges has this group processed?" compresses to one watermark
/// per creator (the same closed-prefix trick the vertex tombstones use)
/// — the representation behind protocol-level delta suppression.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TaggedEdge {
    /// The group whose delivery created this edge.
    pub creator: GroupId,
    /// Position in the creator's edge-creation sequence (dense from 0).
    pub idx: u32,
    /// The earlier message (`before → after` is a delivery-order edge).
    pub before: MsgId,
    /// The later message.
    pub after: MsgId,
}

/// The portion of a history shipped inside one packet (`diff-hst`, Alg. 3
/// line 11): only the vertices and edges the receiver has not seen from
/// this sender yet.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct HistoryDelta {
    /// New vertices.
    pub verts: Vec<MsgRef>,
    /// New order edges, each carrying its creation provenance.
    pub edges: Vec<TaggedEdge>,
}

impl HistoryDelta {
    /// An empty delta.
    pub fn empty() -> Self {
        HistoryDelta::default()
    }

    /// True if the delta carries nothing.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty() && self.edges.is_empty()
    }

    /// Total number of entries (vertices plus edges) in the delta.
    pub fn len(&self) -> usize {
        self.verts.len() + self.edges.len()
    }
}

/// Counters over [`History::merge`]: how many delta entries arrived and
/// how many of them were duplicates the history had already processed.
/// At large group counts a receiver hears the same entry from up to
/// `n − 1` ancestors, so the duplicate share is the direct measure of
/// what protocol-level delta suppression can save.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MergeStats {
    /// Delta vertices received by `merge`.
    pub verts_in: u64,
    /// Delta vertices rejected as already seen (or tombstoned).
    pub verts_dup: u64,
    /// Delta edges received by `merge`.
    pub edges_in: u64,
    /// Delta edges rejected as already processed.
    pub edges_dup: u64,
}

impl MergeStats {
    /// Total entries received.
    pub fn entries_in(&self) -> u64 {
        self.verts_in + self.edges_in
    }

    /// Total duplicate entries among them.
    pub fn entries_dup(&self) -> u64 {
        self.verts_dup + self.edges_dup
    }

    /// Duplicate share in `[0, 1]` (0 when nothing was received).
    pub fn dup_ratio(&self) -> f64 {
        if self.entries_in() == 0 {
            0.0
        } else {
            self.entries_dup() as f64 / self.entries_in() as f64
        }
    }
}

/// Sentinel for "no sequence seen yet from this client" in the dense
/// per-client watermark. Chosen so `NO_WATERMARK.wrapping_add(1) == 0`,
/// the first sequence a client issues.
pub(crate) const NO_WATERMARK: u32 = u32::MAX;

/// End of an adjacency list in the [`Index`].
const NIL: u32 = u32::MAX;

/// The Fx hash (rustc's): one rotate, xor and multiply per word. The id
/// map is probed several times per merged edge, and std's default
/// SipHash costs more than the rest of the probe; Fx is weak against
/// adversarial keys, which message ids are not.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The stored half of a [`History`]: the insertion logs and the
/// watermarks. This is everything a snapshot carries.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Logs {
    last_delivered: Option<MsgId>,
    /// Every retained vertex and every retained edge, in admission order.
    /// They are the history itself, and they back `diff-hst`: a
    /// descendant's cursor into these logs identifies exactly the history
    /// it has not been sent yet (§4.3's "last message of the local
    /// history sent to each descendant"), making diffs O(new entries)
    /// instead of O(full history).
    vert_log: Vec<MsgRef>,
    edge_log: Vec<TaggedEdge>,
    /// Per-client contiguous-prefix watermark over every id this history
    /// has *ever* admitted — still retained or since pruned: all seqs
    /// `<= wm` have been seen. A group receives the same vertex from up
    /// to `n − 1` ancestors, so on the merge hot path almost every delta
    /// entry is a duplicate; one probe of this small, cache-hot map
    /// rejects it without touching the index. The watermark doubles as
    /// the garbage-collection tombstone: a pruned id stays seen forever,
    /// so a stale ancestor diff can never resurrect it. Compactness comes
    /// from the closed-loop client property (a client's messages complete
    /// strictly in sequence), with a small residual set for out-of-prefix
    /// stragglers. Client ids are dense from 0, so the watermark lives in
    /// a flat vector ([`NO_WATERMARK`] = nothing seen) — this probe runs
    /// once per delta entry and is the single hottest lookup in the whole
    /// simulator, so it must not pointer-chase.
    seen_watermark: Vec<u32>,
    seen_residual: BTreeSet<MsgId>,
    /// Per-creator record of the chain-edge indices this history has
    /// *processed* — inserted, rejected as a content duplicate, or
    /// dropped for a pruned endpoint — as sorted, disjoint, inclusive
    /// `(start, end)` ranges. The edge analogue of `seen_watermark`:
    /// since each group emits its chain edges in index order and relays
    /// preserve that order, the processed set per creator is usually one
    /// range `[0, k]`. Ranges (rather than a watermark plus a residual
    /// set) keep memory bounded by the number of *holes*: an upstream
    /// prune can drop a stream element some receiver never got, and a
    /// residual set would then grow by one entry per subsequent edge of
    /// that creator, forever. Indexed by creator rank (grown on demand;
    /// an empty range list means nothing processed) — like
    /// `seen_watermark`, this is probed per delta edge.
    edge_seen: Vec<Vec<(u32, u32)>>,
    /// Next chain index for edges created locally (`create_edge`); counts
    /// only edges actually logged, so the local creator stream is dense.
    next_edge_idx: u32,
    /// Monotone count of log admissions (vertices + edges) — unlike the
    /// log lengths it never shrinks under GC compaction, so it can drive
    /// "history grew by N entries" triggers.
    admitted: u64,
    /// Merge-path duplicate accounting.
    merge_stats: MergeStats,
}

/// The derived half of a [`History`]: lookup and adjacency over the logs,
/// addressed by *slot* (a position in `vert_log`) and edge index (a
/// position in `edge_log`). Appended to as entries are admitted; rebuilt
/// whole after compaction and on restore.
#[derive(Clone, Default)]
struct Index {
    /// Vertex id → slot. Only ever probed, never iterated.
    slot: HashMap<MsgId, u32, BuildHasherDefault<FxHasher>>,
    /// Per slot: the first edge of the vertex's predecessor (incoming)
    /// and successor (outgoing) lists, or [`NIL`].
    pred_head: Vec<u32>,
    succ_head: Vec<u32>,
    /// Per edge: the next edge in the same predecessor / successor list.
    pred_next: Vec<u32>,
    succ_next: Vec<u32>,
    /// Number of retained vertices addressed to each group (indexed by
    /// group rank, grown on demand), for O(1) `contains_msg_to`
    /// (evaluated on every forward by `send-notifs`).
    addressed: Vec<u32>,
}

impl Index {
    /// Indexes the logs from scratch, right-sizing every table. Fails on
    /// logs no history could have written: a vertex logged twice or an
    /// edge whose endpoint is not a logged vertex.
    fn build(logs: &Logs) -> Result<Index, &'static str> {
        let (nv, ne) = (logs.vert_log.len(), logs.edge_log.len());
        let mut ix = Index {
            slot: HashMap::with_capacity_and_hasher(nv, Default::default()),
            pred_head: Vec::with_capacity(nv),
            succ_head: Vec::with_capacity(nv),
            pred_next: Vec::with_capacity(ne),
            succ_next: Vec::with_capacity(ne),
            addressed: Vec::new(),
        };
        for v in &logs.vert_log {
            if !ix.add_vert(v) {
                return Err("history log holds a vertex twice");
            }
        }
        for e in &logs.edge_log {
            let (Some(&b), Some(&a)) = (ix.slot.get(&e.before), ix.slot.get(&e.after)) else {
                return Err("history log holds an edge with a missing endpoint");
            };
            ix.add_edge(b, a);
        }
        Ok(ix)
    }

    /// Indexes the vertex about to be appended to `vert_log`. False (and
    /// no change) if its id already has a slot.
    fn add_vert(&mut self, v: &MsgRef) -> bool {
        let slot = self.pred_head.len() as u32;
        match self.slot.entry(v.id) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(e) => e.insert(slot),
        };
        self.pred_head.push(NIL);
        self.succ_head.push(NIL);
        for g in v.dst.iter() {
            if g.index() >= self.addressed.len() {
                self.addressed.resize(g.index() + 1, 0);
            }
            self.addressed[g.index()] += 1;
        }
        true
    }

    /// Indexes the edge about to be appended to `edge_log`, between the
    /// vertices in slots `before` and `after`.
    fn add_edge(&mut self, before: u32, after: u32) {
        let e = self.pred_next.len() as u32;
        self.pred_next.push(self.pred_head[after as usize]);
        self.pred_head[after as usize] = e;
        self.succ_next.push(self.succ_head[before as usize]);
        self.succ_head[before as usize] = e;
    }

    /// The slot of a vertex that is known to be retained (an endpoint of
    /// a retained edge).
    fn slot_of(&self, id: MsgId) -> usize {
        self.slot[&id] as usize
    }

    /// Edge indices into the vertex in slot `s`.
    fn preds(&self, s: usize) -> EdgeList<'_> {
        EdgeList {
            at: self.pred_head[s],
            next: &self.pred_next,
        }
    }

    /// Edge indices out of the vertex in slot `s`.
    fn succs(&self, s: usize) -> EdgeList<'_> {
        EdgeList {
            at: self.succ_head[s],
            next: &self.succ_next,
        }
    }
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("verts", &self.pred_head.len())
            .field("edges", &self.pred_next.len())
            .finish_non_exhaustive()
    }
}

/// One adjacency list of the [`Index`]: edge indices linked through
/// `next`, most recently added first.
struct EdgeList<'a> {
    at: u32,
    next: &'a [u32],
}

impl Iterator for EdgeList<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.at != NIL).then(|| {
            let e = self.at as usize;
            self.at = self.next[e];
            e
        })
    }
}

/// Keeps the entries of `log` whose `keep` flag is set and remaps each
/// cursor into it: a new cursor counts the kept entries among the old
/// prefix it covered.
fn compact<T>(log: &mut Vec<T>, keep: &[bool], cursors: &mut [usize]) {
    let mut prefix = Vec::with_capacity(keep.len() + 1);
    prefix.push(0usize);
    for &k in keep {
        prefix.push(prefix[prefix.len() - 1] + k as usize);
    }
    for c in cursors.iter_mut() {
        *c = prefix[(*c).min(keep.len())];
    }
    let mut keep_it = keep.iter();
    log.retain(|_| *keep_it.next().expect("one flag per entry"));
}

/// A group's history DAG (`hst` in Algorithm 1).
///
/// The insertion logs are the store: one entry per retained vertex and
/// edge, in admission order. Everything the queries need besides — id
/// lookup, predecessor and successor lists, per-group counts — is an
/// index derived from the logs. It grows as entries are admitted, is
/// rebuilt from the compacted logs by [`History::prune_before`] and from
/// the decoded logs on deserialization, and is never serialized.
///
/// Deterministic by construction: every ordered output — the bytes of
/// every [`HistoryDelta`], [`History::verts`], [`History::edges`], the
/// pruned ids — comes from the logs or from ordered sets. The index's
/// id map is hashed but only ever probed, never iterated, so hash order
/// cannot reach any output. That determinism is what lets the engine
/// run unchanged under state machine replication.
#[derive(Clone, Debug, Default)]
pub struct History {
    logs: Logs,
    index: Index,
}

impl Serialize for History {
    fn serialize<S>(&self, serializer: S) -> Result<S::Ok, S::Error>
    where
        S: Serializer,
    {
        self.logs.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for History {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>,
    {
        let logs = Logs::deserialize(deserializer)?;
        let index = Index::build(&logs).map_err(serde::de::Error::custom)?;
        Ok(History { logs, index })
    }
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Number of vertices currently retained.
    pub fn len(&self) -> usize {
        self.logs.vert_log.len()
    }

    /// True if the history holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.logs.vert_log.is_empty()
    }

    /// Number of edges currently retained.
    pub fn edge_count(&self) -> usize {
        self.logs.edge_log.len()
    }

    /// The last message delivered by this group (`hst.lastDlvd`).
    pub fn last_delivered(&self) -> Option<MsgId> {
        self.logs.last_delivered
    }

    /// True if the history contains a vertex for `id`.
    pub fn contains(&self, id: MsgId) -> bool {
        self.index.slot.contains_key(&id)
    }

    /// Destinations of a vertex, if present.
    pub fn dst_of(&self, id: MsgId) -> Option<DestSet> {
        let s = *self.index.slot.get(&id)?;
        Some(self.logs.vert_log[s as usize].dst)
    }

    /// Iterates all vertices, in admission order.
    pub fn verts(&self) -> impl Iterator<Item = MsgRef> + '_ {
        self.logs.vert_log.iter().copied()
    }

    /// Iterates all edges as `(before, after)` pairs, in admission order.
    pub fn edges(&self) -> impl Iterator<Item = (MsgId, MsgId)> + '_ {
        self.logs.edge_log.iter().map(|e| (e.before, e.after))
    }

    /// Direct predecessors of `id`, in no particular order.
    pub fn preds_of(&self, id: MsgId) -> impl Iterator<Item = MsgId> + '_ {
        self.index
            .slot
            .get(&id)
            .into_iter()
            .flat_map(|&s| self.index.preds(s as usize))
            .map(|e| self.logs.edge_log[e].before)
    }

    /// Direct successors of `id`, in no particular order.
    pub fn succs_of(&self, id: MsgId) -> impl Iterator<Item = MsgId> + '_ {
        self.index
            .slot
            .get(&id)
            .into_iter()
            .flat_map(|&s| self.index.succs(s as usize))
            .map(|e| self.logs.edge_log[e].after)
    }

    /// True if `id` was ever admitted into this history — whether still
    /// retained or pruned since. One indexed load of the per-client
    /// watermark (plus, for out-of-prefix ids, the small residual set).
    #[inline]
    pub fn has_seen(&self, id: MsgId) -> bool {
        let wm = self
            .logs
            .seen_watermark
            .get(id.sender.0 as usize)
            .copied()
            .unwrap_or(NO_WATERMARK);
        (wm != NO_WATERMARK && id.seq <= wm) || self.logs.seen_residual.contains(&id)
    }

    /// Records `id` as seen, promoting contiguous per-client prefixes into
    /// the watermark so the residual set stays small.
    fn note_seen(&mut self, id: MsgId) {
        let logs = &mut self.logs;
        let ci = id.sender.0 as usize;
        if ci >= logs.seen_watermark.len() {
            logs.seen_watermark.resize(ci + 1, NO_WATERMARK);
        }
        // `NO_WATERMARK + 1` wraps to 0: a fresh client's prefix starts
        // at sequence 0, exactly like the old `None` case.
        let next = logs.seen_watermark[ci].wrapping_add(1);
        if id.seq == next {
            let mut w = id.seq;
            // Absorb any residual stragglers that are now contiguous.
            loop {
                let n = w.wrapping_add(1);
                if !logs.seen_residual.remove(&MsgId::new(id.sender, n)) {
                    break;
                }
                w = n;
            }
            logs.seen_watermark[ci] = w;
        } else {
            logs.seen_residual.insert(id);
        }
    }

    /// True if the chain-edge stream element `(creator, idx)` has been
    /// processed by this history — inserted, rejected as a duplicate, or
    /// dropped for a pruned endpoint. One indexed load plus a binary
    /// search over that creator's (almost always one-element) range list.
    #[inline]
    pub fn edge_processed(&self, creator: GroupId, idx: u32) -> bool {
        self.logs
            .edge_seen
            .get(creator.index())
            .is_some_and(
                |ranges| match ranges.binary_search_by(|&(s, _)| s.cmp(&idx)) {
                    Ok(_) => true,
                    Err(0) => false,
                    Err(i) => ranges[i - 1].1 >= idx,
                },
            )
    }

    /// Records `(creator, idx)` as processed, merging into the creator's
    /// range list (extending or joining neighbors where contiguous).
    fn note_edge(&mut self, creator: GroupId, idx: u32) {
        let edge_seen = &mut self.logs.edge_seen;
        if creator.index() >= edge_seen.len() {
            edge_seen.resize(creator.index() + 1, Vec::new());
        }
        let ranges = &mut edge_seen[creator.index()];
        let i = match ranges.binary_search_by(|&(s, _)| s.cmp(&idx)) {
            Ok(_) => return, // a range starts exactly here: covered
            Err(i) => i,
        };
        if i > 0 && ranges[i - 1].1 >= idx {
            return; // inside the previous range
        }
        let extends_prev = i > 0 && ranges[i - 1].1.checked_add(1) == Some(idx);
        let extends_next = i < ranges.len() && idx.checked_add(1) == Some(ranges[i].0);
        match (extends_prev, extends_next) {
            (true, true) => {
                ranges[i - 1].1 = ranges[i].1;
                ranges.remove(i);
            }
            (true, false) => ranges[i - 1].1 = idx,
            (false, true) => ranges[i].0 = idx,
            (false, false) => ranges.insert(i, (idx, idx)),
        }
    }

    /// Inserts a vertex if absent. Returns true when it was new; a vertex
    /// the history has ever seen — including one pruned by garbage
    /// collection — is never re-admitted.
    pub fn insert_vert(&mut self, v: MsgRef) -> bool {
        if self.has_seen(v.id) {
            return false;
        }
        self.note_seen(v.id);
        let fresh = self.index.add_vert(&v);
        debug_assert!(fresh, "an unseen id has no slot");
        self.logs.vert_log.push(v);
        self.logs.admitted += 1;
        true
    }

    /// The slots of both endpoints of `before → after` when both are
    /// retained and the edge is not: the condition for linking it.
    fn linkable(&self, before: MsgId, after: MsgId) -> Option<(u32, u32)> {
        if before == after {
            return None;
        }
        let b = *self.index.slot.get(&before)?;
        let a = *self.index.slot.get(&after)?;
        let linked = self
            .index
            .preds(a as usize)
            .any(|e| self.logs.edge_log[e].before == before);
        (!linked).then_some((b, a))
    }

    /// Links `e` between the vertices in slots `b` and `a` and logs it.
    fn link(&mut self, e: TaggedEdge, (b, a): (u32, u32)) {
        self.index.add_edge(b, a);
        self.logs.edge_log.push(e);
        self.logs.admitted += 1;
    }

    /// Creates a *new* order edge `before → after` on behalf of `creator`
    /// (the group whose delivery chained the pair), assigning it the next
    /// index in this history's creation sequence. Both endpoints must
    /// already be vertices and the content must be new; otherwise no edge
    /// (and no index) is produced, so the local creator stream stays
    /// dense.
    pub fn create_edge(&mut self, creator: GroupId, before: MsgId, after: MsgId) {
        let Some(slots) = self.linkable(before, after) else {
            return;
        };
        let e = TaggedEdge {
            creator,
            idx: self.logs.next_edge_idx,
            before,
            after,
        };
        self.logs.next_edge_idx += 1;
        self.note_edge(e.creator, e.idx);
        self.link(e, slots);
    }

    /// Applies a *received* tagged edge (the merge path). Returns true
    /// when the edge was genuinely new. Rejections — already-processed
    /// stream element, self loop, content duplicate from another creator
    /// (two groups can create the same `before → after` pair
    /// independently; only the first is linked and logged), or a pruned
    /// endpoint — all mark the stream element processed, because
    /// re-processing it later would be a no-op either way: that is the
    /// invariant that makes watermark-based suppression upstream safe.
    /// A delta always ships its vertices with (or before) its edges, so
    /// a missing endpoint means the vertex was pruned here — and
    /// tombstones make that permanent, so dropping is final.
    fn apply_edge(&mut self, e: TaggedEdge) -> bool {
        if self.edge_processed(e.creator, e.idx) {
            return false;
        }
        self.note_edge(e.creator, e.idx);
        let Some(slots) = self.linkable(e.before, e.after) else {
            return false;
        };
        self.link(e, slots);
        true
    }

    /// Length of the vertex insertion log (a `diff-hst` cursor bound).
    pub fn vert_log_len(&self) -> usize {
        self.logs.vert_log.len()
    }

    /// Length of the edge insertion log (a `diff-hst` cursor bound).
    pub fn edge_log_len(&self) -> usize {
        self.logs.edge_log.len()
    }

    /// Vertices inserted at or after log position `from`.
    pub fn verts_since(&self, from: usize) -> &[MsgRef] {
        let log = &self.logs.vert_log;
        &log[from.min(log.len())..]
    }

    /// Edges inserted at or after log position `from`.
    pub fn edges_since(&self, from: usize) -> &[TaggedEdge] {
        let log = &self.logs.edge_log;
        &log[from.min(log.len())..]
    }

    /// Monotone count of entries (vertices + edges) ever admitted into
    /// the insertion logs. Unlike the log lengths this never decreases
    /// under GC compaction, so it can drive growth-triggered actions like
    /// watermark advertisement.
    pub fn admitted_entries(&self) -> u64 {
        self.logs.admitted
    }

    /// The per-client vertex watermark (contiguous seen prefix per
    /// client), in ascending client order — the vertex half of a
    /// [`flexcast_types::Watermarks`] advertisement.
    pub fn client_watermarks(&self) -> impl Iterator<Item = (flexcast_types::ClientId, u32)> + '_ {
        self.logs
            .seen_watermark
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != NO_WATERMARK)
            .map(|(c, &w)| (flexcast_types::ClientId(c as u32), w))
    }

    /// The per-creator chain-edge watermark: for each creator whose
    /// processed set includes index 0, the end of that contiguous prefix
    /// — the edge half of a [`flexcast_types::Watermarks`]
    /// advertisement. Ranges beyond the first hole are deliberately not
    /// advertised (conservative; they stay until the hole fills or
    /// forever, bounded in memory either way).
    pub fn edge_prefixes(&self) -> impl Iterator<Item = (GroupId, u32)> + '_ {
        self.logs
            .edge_seen
            .iter()
            .enumerate()
            .filter_map(|(g, ranges)| match ranges.first() {
                Some(&(0, end)) => Some((GroupId(g as u16), end)),
                _ => None,
            })
    }

    /// The contiguous processed prefix for one creator (tests and
    /// diagnostics): `Some(end)` if indices `0..=end` are processed.
    pub fn edge_prefix(&self, creator: GroupId) -> Option<u32> {
        self.logs
            .edge_seen
            .get(creator.index())
            .and_then(|ranges| match ranges.first() {
                Some(&(0, end)) => Some(end),
                _ => None,
            })
    }

    /// Merge-path duplicate counters.
    pub fn merge_stats(&self) -> MergeStats {
        self.logs.merge_stats
    }

    /// Records a local delivery (`hst-add`, Alg. 3 line 4): inserts the
    /// vertex and chains it after the previous local delivery. `creator`
    /// is the delivering group — it stamps the provenance of the chain
    /// edge this delivery creates.
    pub fn record_delivery(&mut self, v: MsgRef, creator: GroupId) {
        self.insert_vert(v);
        if let Some(last) = self.logs.last_delivered {
            self.create_edge(creator, last, v.id);
        }
        self.logs.last_delivered = Some(v.id);
    }

    /// Merges a received delta (`update-hst`, Alg. 3 line 1). Vertices
    /// this history has garbage-collected cannot re-enter through a slow
    /// ancestor: the seen watermark rejects them in `insert_vert`, and
    /// `apply_edge` drops edges whose endpoints are missing. Duplicate
    /// counts accumulate in [`History::merge_stats`].
    pub fn merge(&mut self, delta: &HistoryDelta) {
        for v in &delta.verts {
            self.logs.merge_stats.verts_in += 1;
            if !self.insert_vert(*v) {
                self.logs.merge_stats.verts_dup += 1;
            }
        }
        for &e in &delta.edges {
            self.logs.merge_stats.edges_in += 1;
            if !self.apply_edge(e) {
                self.logs.merge_stats.edges_dup += 1;
            }
        }
    }

    /// True if the history has any vertex addressed to `g`
    /// (`hst.containsMsgTo`, Alg. 3 line 38).
    pub fn contains_msg_to(&self, g: GroupId) -> bool {
        self.index.addressed.get(g.index()).copied().unwrap_or(0) > 0
    }

    /// True if there is a directed path `from →* to` (strictly, length ≥ 1
    /// when `from != to`; reflexively true when `from == to`). This is the
    /// transitive `depend` test of Alg. 3 line 17 with the roles spelled
    /// out: `depend(m, m')` in the paper is `reaches(m', m)` here.
    pub fn reaches(&self, from: MsgId, to: MsgId) -> bool {
        if from == to {
            return true;
        }
        let Some(&f) = self.index.slot.get(&from) else {
            return false;
        };
        let mut seen = vec![false; self.len()];
        let mut stack = vec![f as usize];
        while let Some(s) = stack.pop() {
            for e in self.index.succs(s) {
                let n = self.logs.edge_log[e].after;
                if n == to {
                    return true;
                }
                let ns = self.index.slot_of(n);
                if !std::mem::replace(&mut seen[ns], true) {
                    stack.push(ns);
                }
            }
        }
        false
    }

    /// Finds a predecessor of `m` (transitively) that is addressed to `g`
    /// and not yet in `delivered` — the blocking condition of
    /// `can-deliver` (Alg. 3 line 52). Walks backwards from `m`.
    ///
    /// The walk stops at vertices already delivered at `g`: by the
    /// protocol's complete-dependency-information guarantee (the paper's
    /// Lemma 3), everything ordered before a message was resolved before
    /// that message delivered, so a delivered vertex's past cannot hold a
    /// blocker. This keeps the walk proportional to the *in-flight*
    /// history rather than everything since the last flush.
    pub fn blocking_predecessor(
        &self,
        m: MsgId,
        g: GroupId,
        delivered: &BTreeSet<MsgId>,
    ) -> Option<MsgId> {
        let &ms = self.index.slot.get(&m)?;
        let mut seen = vec![false; self.len()];
        let mut stack = vec![ms as usize];
        while let Some(s) = stack.pop() {
            for e in self.index.preds(s) {
                let p = self.logs.edge_log[e].before;
                let ps = self.index.slot_of(p);
                if std::mem::replace(&mut seen[ps], true) || delivered.contains(&p) {
                    continue; // resolved past: cannot block, do not expand
                }
                if self.logs.vert_log[ps].dst.contains(g) {
                    return Some(p);
                }
                stack.push(ps);
            }
        }
        None
    }

    /// All vertices addressed to `g` that are not in `delivered`
    /// (`open-dependencies`, Alg. 3 line 9).
    pub fn open_dependencies(&self, g: GroupId, delivered: &BTreeSet<MsgId>) -> BTreeSet<MsgId> {
        self.logs
            .vert_log
            .iter()
            .filter(|v| v.dst.contains(g) && !delivered.contains(&v.id))
            .map(|v| v.id)
            .collect()
    }

    /// Removes every vertex from which `fence` is reachable (the strict
    /// past of `fence`), keeping `fence` itself. Returns the pruned ids in
    /// ascending order. This is the flush-based garbage collection of
    /// §4.3.
    ///
    /// `vert_cursors`/`edge_cursors` are per-descendant `diff-hst` cursors
    /// into the insertion logs; compaction remaps them so each cursor
    /// still covers exactly the entries its descendant has received. The
    /// index is then rebuilt from the compacted logs.
    pub fn prune_before(
        &mut self,
        fence: MsgId,
        vert_cursors: &mut [usize],
        edge_cursors: &mut [usize],
    ) -> Vec<MsgId> {
        let Some(&f) = self.index.slot.get(&fence) else {
            return Vec::new();
        };
        // Backward closure from the fence: clear the keep flag of every
        // vertex in it and of every edge touching one.
        let ix = &self.index;
        let edge_log = &self.logs.edge_log;
        let pred_slot = |e: usize| ix.slot_of(edge_log[e].before);
        let mut keep_vert = vec![true; self.len()];
        let mut keep_edge = vec![true; self.edge_count()];
        let mut pruned = Vec::new();
        let mut stack: Vec<usize> = ix.preds(f as usize).map(pred_slot).collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut keep_vert[s], false) {
                pruned.push(self.logs.vert_log[s].id);
                for e in ix.succs(s) {
                    keep_edge[e] = false;
                }
                for e in ix.preds(s) {
                    keep_edge[e] = false;
                    stack.push(pred_slot(e));
                }
            }
        }
        if pruned.is_empty() {
            return Vec::new();
        }
        pruned.sort_unstable();
        compact(&mut self.logs.vert_log, &keep_vert, vert_cursors);
        compact(&mut self.logs.edge_log, &keep_edge, edge_cursors);
        // Drop the old index before building its replacement, so the two
        // never coexist at the peak.
        self.index = Index::default();
        self.index = Index::build(&self.logs).expect("compaction keeps the logs consistent");
        pruned
    }

    /// Checks that the history is acyclic (test/diagnostic helper; the
    /// protocol maintains acyclicity as an invariant).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the retained graph.
        let mut indegree: Vec<usize> = (0..self.len())
            .map(|s| self.index.preds(s).count())
            .collect();
        let mut ready: Vec<usize> = (0..self.len()).filter(|&s| indegree[s] == 0).collect();
        let mut seen = 0usize;
        while let Some(s) = ready.pop() {
            seen += 1;
            for e in self.index.succs(s) {
                let t = self.index.slot_of(self.logs.edge_log[e].after);
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    ready.push(t);
                }
            }
        }
        seen == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::ClientId;

    /// Creator used by tests for locally created edges.
    const OWNER: GroupId = GroupId(9);

    fn id(seq: u32) -> MsgId {
        MsgId::new(ClientId(0), seq)
    }

    fn vref(seq: u32, ranks: &[u16]) -> MsgRef {
        MsgRef {
            id: id(seq),
            dst: DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        }
    }

    fn te(creator: u16, idx: u32, before: MsgId, after: MsgId) -> TaggedEdge {
        TaggedEdge {
            creator: GroupId(creator),
            idx,
            before,
            after,
        }
    }

    #[test]
    fn record_delivery_builds_a_chain() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[0]), OWNER);
        h.record_delivery(vref(2, &[0, 1]), OWNER);
        h.record_delivery(vref(3, &[0]), OWNER);
        assert_eq!(h.last_delivered(), Some(id(3)));
        assert_eq!(h.len(), 3);
        assert_eq!(h.edge_count(), 2);
        assert!(h.reaches(id(1), id(3)));
        assert!(!h.reaches(id(3), id(1)));
        // Chain edges carry dense creator provenance.
        let tags: Vec<(GroupId, u32)> = h
            .edges_since(0)
            .iter()
            .map(|e| (e.creator, e.idx))
            .collect();
        assert_eq!(tags, vec![(OWNER, 0), (OWNER, 1)]);
    }

    #[test]
    fn reaches_is_reflexive_and_transitive() {
        let mut h = History::new();
        for s in 1..=4 {
            h.insert_vert(vref(s, &[0]));
        }
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(3));
        assert!(h.reaches(id(1), id(1)));
        assert!(h.reaches(id(1), id(3)));
        assert!(!h.reaches(id(1), id(4)));
    }

    #[test]
    fn create_edge_requires_vertices() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.create_edge(OWNER, id(1), id(2)); // 2 unknown → dropped
        assert_eq!(h.edge_count(), 0);
        h.create_edge(OWNER, id(1), id(1)); // self loop → dropped
        assert_eq!(h.edge_count(), 0);
        // Rejected edges consume no creator index: the next real edge
        // still gets index 0.
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert_eq!(h.edges_since(0)[0].idx, 0);
    }

    #[test]
    fn merge_applies_delta_and_drops_dangling_edges() {
        let mut h = History::new();
        let delta = HistoryDelta {
            verts: vec![vref(1, &[0]), vref(3, &[0, 1])],
            edges: vec![
                te(3, 0, id(1), id(2)),
                te(3, 1, id(2), id(3)),
                te(3, 2, id(1), id(3)),
            ],
        };
        h.merge(&delta);
        assert!(h.contains(id(1)));
        assert!(!h.contains(id(2)), "vertex the delta never shipped");
        assert!(h.contains(id(3)));
        assert_eq!(h.edge_count(), 1, "edges touching missing vertices dropped");
        assert!(h.reaches(id(1), id(3)));
        // Dropped edges still count as processed stream elements.
        assert!(h.edge_processed(GroupId(3), 0));
        assert!(h.edge_processed(GroupId(3), 1));
        assert!(h.edge_processed(GroupId(3), 2));
        assert_eq!(h.edge_prefix(GroupId(3)), Some(2));
    }

    #[test]
    fn blocking_predecessor_walks_transitively() {
        // 1 → 2 → 3, with 1 addressed to g=5 and undelivered.
        let mut h = History::new();
        h.insert_vert(vref(1, &[5]));
        h.insert_vert(vref(2, &[1]));
        h.insert_vert(vref(3, &[5]));
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(3));
        let delivered = BTreeSet::new();
        assert_eq!(
            h.blocking_predecessor(id(3), GroupId(5), &delivered),
            Some(id(1))
        );
        let delivered: BTreeSet<MsgId> = [id(1)].into();
        assert_eq!(h.blocking_predecessor(id(3), GroupId(5), &delivered), None);
    }

    #[test]
    fn blocking_predecessor_ignores_self() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[2]));
        let delivered = BTreeSet::new();
        // m itself is undelivered and addressed to g, but only *strict*
        // predecessors can block it.
        assert_eq!(h.blocking_predecessor(id(1), GroupId(2), &delivered), None);
    }

    #[test]
    fn open_dependencies_filters_by_group_and_delivery() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[3]));
        h.insert_vert(vref(2, &[3]));
        h.insert_vert(vref(3, &[4]));
        let delivered: BTreeSet<MsgId> = [id(1)].into();
        let open = h.open_dependencies(GroupId(3), &delivered);
        assert_eq!(open, [id(2)].into());
    }

    #[test]
    fn contains_msg_to() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[2, 4]));
        assert!(h.contains_msg_to(GroupId(2)));
        assert!(h.contains_msg_to(GroupId(4)));
        assert!(!h.contains_msg_to(GroupId(3)));
    }

    #[test]
    fn prune_before_removes_strict_past() {
        let mut h = History::new();
        for s in 1..=5 {
            h.insert_vert(vref(s, &[0]));
        }
        // 1 → 2 → 4(fence), 3 → 4, 4 → 5.
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(4));
        h.create_edge(OWNER, id(3), id(4));
        h.create_edge(OWNER, id(4), id(5));
        let mut vc = [5usize];
        let mut ec = [4usize];
        let pruned = h.prune_before(id(4), &mut vc, &mut ec);
        assert_eq!(pruned, vec![id(1), id(2), id(3)]);
        assert!(h.contains(id(4)));
        assert!(h.contains(id(5)));
        assert_eq!(h.len(), 2);
        assert!(h.reaches(id(4), id(5)), "future edges survive");
        assert!(h.is_acyclic());
        // Cursor remap: the descendant had seen all 5 vertices; 3 were
        // pruned, so its cursor now covers the 2 retained ones.
        assert_eq!(vc[0], 2);
        assert_eq!(h.vert_log_len(), 2);
        assert!(h.verts_since(vc[0]).is_empty(), "nothing new to send");
        assert_eq!(h.edges_since(0).len(), h.edge_log_len());
    }

    #[test]
    fn diff_logs_track_insertion_order() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[0]), OWNER);
        h.record_delivery(vref(2, &[0]), OWNER);
        assert_eq!(h.vert_log_len(), 2);
        assert_eq!(h.edge_log_len(), 1);
        assert_eq!(h.admitted_entries(), 3);
        let suffix = h.verts_since(1);
        assert_eq!(suffix.len(), 1);
        assert_eq!(suffix[0].id, id(2));
        // Duplicate inserts do not grow the logs.
        h.insert_vert(vref(1, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert_eq!(h.vert_log_len(), 2);
        assert_eq!(h.edge_log_len(), 1);
        assert_eq!(h.admitted_entries(), 3);
    }

    #[test]
    fn contains_msg_to_tracks_prune() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[3]));
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert!(h.contains_msg_to(GroupId(3)));
        let _ = h.prune_before(id(2), &mut [], &mut []);
        assert!(!h.contains_msg_to(GroupId(3)), "pruned vertex uncounted");
        assert!(h.contains_msg_to(GroupId(0)), "fence itself retained");
    }

    #[test]
    fn seen_watermark_rejects_duplicates_and_pruned() {
        let mut h = History::new();
        assert!(h.insert_vert(vref(0, &[0])));
        assert!(!h.insert_vert(vref(0, &[0])), "duplicate rejected");
        assert!(h.has_seen(id(0)));
        assert!(!h.has_seen(id(1)));
        // Out-of-prefix id lands in the residual, then promotes when the
        // gap fills.
        assert!(h.insert_vert(vref(2, &[0])));
        assert!(h.has_seen(id(2)));
        assert!(h.insert_vert(vref(1, &[0])));
        assert!(!h.insert_vert(vref(2, &[0])), "still seen after promotion");

        // Pruned vertices stay seen: a stale delta cannot resurrect them.
        h.create_edge(OWNER, id(0), id(2));
        let _ = h.prune_before(id(2), &mut [], &mut []);
        assert!(!h.contains(id(0)), "0 pruned");
        assert!(h.has_seen(id(0)), "tombstone survives the prune");
        assert!(!h.insert_vert(vref(0, &[0])), "no resurrection");
        let delta = HistoryDelta {
            verts: vec![vref(0, &[0])],
            edges: vec![te(4, 0, id(0), id(2))],
        };
        h.merge(&delta);
        assert!(!h.contains(id(0)), "merge respects the tombstone");
        assert_eq!(h.edge_count(), 0, "edge to pruned vertex dropped");
    }

    #[test]
    fn prune_with_unknown_fence_is_noop() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        assert!(h.prune_before(id(9), &mut [], &mut []).is_empty());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn acyclicity_detector() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert!(h.is_acyclic());
        h.create_edge(OWNER, id(2), id(1));
        assert!(!h.is_acyclic());
    }

    #[test]
    fn msgref_lca() {
        assert_eq!(vref(1, &[3, 7]).lca(), GroupId(3));
    }

    #[test]
    fn edge_stream_elements_are_processed_once() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        let e = te(3, 0, id(1), id(2));
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![e],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.merge_stats().edges_dup, 0);
        // The same stream element from another ancestor is a duplicate.
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![e],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.edge_log_len(), 1);
        let st = h.merge_stats();
        assert_eq!((st.edges_in, st.edges_dup), (2, 1));
    }

    #[test]
    fn cross_creator_content_duplicate_is_processed_but_not_linked() {
        // Two groups independently created the same `1 → 2` pair; the
        // second stream element is absorbed (processed, not logged) so
        // the DAG holds one edge.
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 0, id(1), id(2)), te(5, 0, id(1), id(2))],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.edge_log_len(), 1);
        assert!(h.edge_processed(GroupId(3), 0));
        assert!(h.edge_processed(GroupId(5), 0), "absorbed but processed");
        assert_eq!(h.merge_stats().edges_dup, 1);
    }

    #[test]
    fn edge_watermark_promotes_out_of_order_stream_elements() {
        let mut h = History::new();
        for s in 1..=4 {
            h.insert_vert(vref(s, &[0]));
        }
        // Index 1 arrives before index 0 (e.g. a pruning hole upstream).
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 1, id(2), id(3))],
        });
        assert!(h.edge_processed(GroupId(3), 1));
        assert!(!h.edge_processed(GroupId(3), 0));
        assert!(h.edge_prefix(GroupId(3)).is_none());
        // The gap fills: both promote into the watermark.
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 0, id(1), id(2))],
        });
        assert_eq!(h.edge_prefix(GroupId(3)), Some(1));
        assert!(h.edge_processed(GroupId(3), 0));
    }

    #[test]
    fn merge_stats_count_vertex_duplicates() {
        let mut h = History::new();
        let d = HistoryDelta {
            verts: vec![vref(0, &[0]), vref(1, &[0])],
            edges: vec![],
        };
        h.merge(&d);
        h.merge(&d);
        let st = h.merge_stats();
        assert_eq!((st.verts_in, st.verts_dup), (4, 2));
        assert_eq!(st.entries_in(), 4);
        assert_eq!(st.entries_dup(), 2);
        assert!((st.dup_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn restore_rebuilds_the_index_and_rejects_inconsistent_logs() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[0]), OWNER);
        h.record_delivery(vref(2, &[3]), OWNER);
        let bytes = flexcast_wire::to_bytes(&h).unwrap();
        let r: History = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(r.preds_of(id(2)).collect::<Vec<_>>(), vec![id(1)]);
        assert!(r.contains_msg_to(GroupId(3)));
        assert_eq!(flexcast_wire::to_bytes(&r).unwrap(), bytes);

        let mut dangling = h.logs.clone();
        dangling.vert_log.remove(0);
        let bytes = flexcast_wire::to_bytes(&dangling).unwrap();
        assert!(flexcast_wire::from_bytes::<History>(&bytes).is_err());
        let mut twice = h.logs.clone();
        twice.vert_log.push(twice.vert_log[0]);
        let bytes = flexcast_wire::to_bytes(&twice).unwrap();
        assert!(flexcast_wire::from_bytes::<History>(&bytes).is_err());
    }
}
