//! The timing actor: wraps one simulated process, forwards every callback
//! unchanged, and charges its wall-clock time to the layer it exercises.
//!
//! The wrapper only reads the message before handing it on, and the
//! [`Ctx`] it receives is passed through as is, so a wrapped world makes
//! exactly the sends, timers and random draws of an unwrapped one. The
//! tests pin that.

use flexcast::core_protocol::Packet;
use flexcast::harness::actors::Node;
use flexcast::harness::replicated::ReplNode;
use flexcast::harness::NetMsg;
use flexcast::sim::{Actor, Ctx, ProcessId, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// The layer a callback is charged to. The names are the metric prefixes;
/// the discriminant indexes the counters of [`ProbeStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    CoreClient,
    CoreMsg,
    CoreAck,
    CoreNotif,
    CoreAdvert,
    SmrPaxos,
    SmrGroupMsg,
    SmrBle,
    SmrTick,
    SmrSnapshot,
    SmrClient,
    HarnessClient,
    /// A callback with no body (a server's start); not timed.
    Idle,
}

impl Layer {
    /// Every timed layer, in report order.
    pub const TIMED: [Layer; 12] = [
        Layer::CoreClient,
        Layer::CoreMsg,
        Layer::CoreAck,
        Layer::CoreNotif,
        Layer::CoreAdvert,
        Layer::SmrPaxos,
        Layer::SmrGroupMsg,
        Layer::SmrBle,
        Layer::SmrTick,
        Layer::SmrSnapshot,
        Layer::SmrClient,
        Layer::HarnessClient,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreClient => "core.client",
            Layer::CoreMsg => "core.msg",
            Layer::CoreAck => "core.ack",
            Layer::CoreNotif => "core.notif",
            Layer::CoreAdvert => "core.advert",
            Layer::SmrPaxos => "smr.paxos",
            Layer::SmrGroupMsg => "smr.group_msg",
            Layer::SmrBle => "smr.ble",
            Layer::SmrTick => "smr.tick",
            Layer::SmrSnapshot => "smr.snapshot",
            Layer::SmrClient => "smr.client",
            Layer::HarnessClient => "harness.client",
            Layer::Idle => "idle",
        }
    }
}

/// What the wrapper needs to know about the actor it wraps.
pub trait Layered {
    /// The layer a delivered message exercises at this actor.
    fn message_layer(&self, msg: &NetMsg) -> Layer;
    /// The layer of this actor's start and timer callbacks.
    fn own_layer(&self) -> Layer;
    /// Completed transactions, for workload clients.
    fn completed(&self) -> Option<u64>;
}

fn flex_layer(pkt: &Packet) -> Layer {
    match pkt {
        Packet::Msg { .. } => Layer::CoreMsg,
        Packet::Ack { .. } => Layer::CoreAck,
        Packet::Notif { .. } => Layer::CoreNotif,
        Packet::Advert { .. } => Layer::CoreAdvert,
    }
}

impl Layered for Node {
    fn message_layer(&self, msg: &NetMsg) -> Layer {
        match (self, msg) {
            (Node::Server(_), NetMsg::Client { .. }) => Layer::CoreClient,
            (Node::Server(_), NetMsg::Flex(pkt)) => flex_layer(pkt),
            // Only FlexCast runs here; any other server traffic panics
            // inside the harness before the charge matters.
            (Node::Server(_), _) => Layer::CoreMsg,
            (Node::Client(_) | Node::Flusher(_), _) => Layer::HarnessClient,
        }
    }

    fn own_layer(&self) -> Layer {
        match self {
            Node::Server(_) => Layer::Idle,
            Node::Client(_) | Node::Flusher(_) => Layer::HarnessClient,
        }
    }

    fn completed(&self) -> Option<u64> {
        match self {
            Node::Client(c) => Some(c.completed),
            _ => None,
        }
    }
}

impl Layered for ReplNode {
    fn message_layer(&self, msg: &NetMsg) -> Layer {
        match (self, msg) {
            (ReplNode::Replica(_), NetMsg::Repl(_)) => Layer::SmrPaxos,
            (ReplNode::Replica(_), NetMsg::GroupMsg { .. }) => Layer::SmrGroupMsg,
            (ReplNode::Replica(_), NetMsg::Ble(_)) => Layer::SmrBle,
            (ReplNode::Replica(_), NetMsg::SnapReq { .. } | NetMsg::Snapshot { .. }) => {
                Layer::SmrSnapshot
            }
            (ReplNode::Replica(_), _) => Layer::SmrClient,
            (ReplNode::Client(_) | ReplNode::Flusher(_), _) => Layer::HarnessClient,
        }
    }

    fn own_layer(&self) -> Layer {
        match self {
            ReplNode::Replica(_) => Layer::SmrTick,
            ReplNode::Client(_) | ReplNode::Flusher(_) => Layer::HarnessClient,
        }
    }

    fn completed(&self) -> Option<u64> {
        match self {
            ReplNode::Client(c) => Some(c.completed),
            _ => None,
        }
    }
}

/// Counters of one wrapped actor.
#[derive(Clone, Debug, Default)]
pub struct ProbeStats {
    pub calls: [u64; Layer::TIMED.len()],
    pub busy_ns: [u64; Layer::TIMED.len()],
    /// Delivered messages, each sized once with `NetMsg::wire_size`.
    pub wire_calls: u64,
    pub wire_ns: u64,
    pub wire_bytes: u64,
    /// Simulated times at which this client completed a transaction.
    pub completions: Vec<SimTime>,
}

impl ProbeStats {
    pub fn absorb(&mut self, other: &ProbeStats) {
        for i in 0..self.calls.len() {
            self.calls[i] += other.calls[i];
            self.busy_ns[i] += other.busy_ns[i];
        }
        self.wire_calls += other.wire_calls;
        self.wire_ns += other.wire_ns;
        self.wire_bytes += other.wire_bytes;
        self.completions.extend_from_slice(&other.completions);
    }

    pub fn callback_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Calls and busy seconds of every timed layer, in report order.
    pub fn layers(&self) -> impl Iterator<Item = (Layer, u64, f64)> + '_ {
        Layer::TIMED.iter().map(|&l| {
            (
                l,
                self.calls[l as usize],
                self.busy_ns[l as usize] as f64 / 1e9,
            )
        })
    }

    fn charge(&mut self, layer: Layer, start: Instant, end: Instant) {
        if layer != Layer::Idle {
            let i = layer as usize;
            self.calls[i] += 1;
            self.busy_ns[i] += (end - start).as_nanos() as u64;
        }
    }
}

/// A simulated process under the stopwatch.
pub struct Probe<A> {
    pub inner: A,
    pub stats: ProbeStats,
}

impl<A> Probe<A> {
    pub fn new(inner: A) -> Self {
        Probe {
            inner,
            stats: ProbeStats::default(),
        }
    }
}

impl<A: Actor<NetMsg> + Layered> Probe<A> {
    fn note_completion(&mut self, before: Option<u64>, now: SimTime) {
        if before.is_some_and(|b| self.inner.completed() != Some(b)) {
            self.stats.completions.push(now);
        }
    }
}

impl<A: Actor<NetMsg> + Layered> Actor<NetMsg> for Probe<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let layer = self.inner.own_layer();
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        let t1 = Instant::now();
        self.stats.charge(layer, t0, t1);
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let layer = self.inner.message_layer(&msg);
        let before = self.inner.completed();
        let t0 = Instant::now();
        let bytes = black_box(&msg).wire_size();
        let t1 = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let t2 = Instant::now();
        self.stats.wire_calls += 1;
        self.stats.wire_ns += (t1 - t0).as_nanos() as u64;
        self.stats.wire_bytes += bytes as u64;
        self.stats.charge(layer, t1, t2);
        self.note_completion(before, ctx.now());
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        let layer = self.inner.own_layer();
        let before = self.inner.completed();
        let t0 = Instant::now();
        self.inner.on_timer(token, ctx);
        let t1 = Instant::now();
        self.stats.charge(layer, t0, t1);
        self.note_completion(before, ctx.now());
    }
}
