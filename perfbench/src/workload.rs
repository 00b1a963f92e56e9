//! The three workloads, each built and run two ways: untraced, through
//! the harness's own entry points, and traced, with every actor wrapped
//! in a [`Probe`].
//!
//! The harness builds its worlds internally, so the traced run rebuilds
//! them here from the same public constructors. The runner checks that
//! the traced run reproduces the untraced run exactly, which is what
//! keeps this copy honest.

use crate::host::{calibrate_setup, process_cpu_s};
use crate::probe::{Probe, ProbeStats};
use flexcast::chaos::{run_adversary, scenarios};
use flexcast::gtpcc::{Generator, WorkloadConfig};
use flexcast::harness::actors::{
    ClientActor, EntryPolicy, FlushActor, LatencySample, Node, ServerActor,
};
use flexcast::harness::checker::{self, CheckReport, DeliveryEvent};
use flexcast::harness::experiment::resolve_shards;
use flexcast::harness::replicated::{
    self, group_of, ReplClientActor, ReplFlushActor, ReplNode, ReplicatedActor, ReplicatedConfig,
};
use flexcast::harness::{run_on, ExperimentConfig, NetMsg, ProtocolKind};
use flexcast::overlay::{presets, regions, CDagOrder, LatencyMatrix};
use flexcast::sim::{Actor, LinkModel, SimTime, Summary, World};
use flexcast::types::{ClientId, DestSet, GroupId, MsgId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Livelock guard for every run; a healthy run stays far below it.
const MAX_EVENTS: u64 = 2_000_000_000;

/// The leader hunter of repl12-hunt: group 0's leader dies 250 ms after
/// each election, three times.
fn hunter() -> scenarios::LeaderHunter {
    scenarios::leader_hunter(GroupId(0), 250.0, 3)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's throughput setting (§5.5, Fig. 8) on the AWS matrix.
    Geo12,
    /// 128 groups on a synthetic WAN ring, dominated by history deltas.
    Wide128,
    /// 12 groups replicated three ways under a leader-hunting adversary.
    Repl12Hunt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Geo12, Workload::Wide128, Workload::Repl12Hunt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Geo12 => "geo12",
            Workload::Wide128 => "wide128",
            Workload::Repl12Hunt => "repl12-hunt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is what the benchmark measures; `Tiny` keeps every mechanism
/// of a workload but runs in well under a second, for the tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// A workload's inputs: the latency matrix, the overlay order and the
/// harness configuration, all derived from the seed.
pub enum Spec {
    Exp {
        matrix: LatencyMatrix,
        cfg: ExperimentConfig,
    },
    Repl {
        matrix: LatencyMatrix,
        cfg: ReplicatedConfig,
    },
}

/// `events_sweep`'s synthetic WAN ring: adjacent sites ~15 ms apart,
/// antipodal ~290 ms, with a per-pair perturbation so no two links tie.
fn wan_ring(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            let ring = (b - a).min(n - (b - a)) as f64;
            let rtt = 14.0 + 275.0 * ring / (n as f64 / 2.0) + ((a * 31 + b * 17) % 7) as f64;
            m.set_rtt(a, b, rtt);
        }
    }
    m
}

/// Builds a workload's inputs (the `overlay.order_s` part of set-up).
pub fn spec(w: Workload, seed: u64, size: Size) -> Spec {
    let tiny = size == Size::Tiny;
    match w {
        Workload::Geo12 => {
            let clients = if tiny { 48 } else { 720 };
            let mut cfg =
                ExperimentConfig::throughput(ProtocolKind::FlexCast(presets::o1()), clients);
            cfg.seed = seed;
            cfg.duration = SimTime::from_secs(if tiny { 1 } else { 10 });
            Spec::Exp {
                matrix: regions::aws12(),
                cfg,
            }
        }
        Workload::Wide128 => {
            let groups = if tiny { 24 } else { 128 };
            let matrix = wan_ring(groups);
            let order = CDagOrder::nearest_neighbor_chain(&matrix, GroupId(0));
            let mut cfg = ExperimentConfig::throughput(ProtocolKind::FlexCast(order), groups);
            cfg.locality = 0.95;
            cfg.server_service_ms = 0.05;
            cfg.server_processing_ms = 0.0;
            cfg.advert_stride = Some(1024);
            cfg.seed = seed;
            cfg.duration = SimTime::from_ms(if tiny { 300.0 } else { 1_000.0 });
            Spec::Exp { matrix, cfg }
        }
        Workload::Repl12Hunt => {
            let mut cfg = ReplicatedConfig::small(12, 3, seed);
            cfg.order = presets::o1();
            cfg.n_clients = 48;
            cfg.msgs_per_client = if tiny { 4 } else { 50 };
            cfg.flush_period = Some(SimTime::from_ms(250.0));
            cfg.n_flushes = if tiny { 4 } else { 40 };
            cfg.stop_at = SimTime::from_secs(40);
            Spec::Repl {
                matrix: regions::aws12(),
                cfg,
            }
        }
    }
}

/// What one run measured. Host times are seconds.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The timed set-ups, in order.
    pub setups: Vec<Setup>,
    /// Wall time from the first simulated event to the checked result.
    pub run_s: f64,
    /// CPU time of the process over the same interval.
    pub cpu_s: f64,
    /// The workload's simulated length: how long clients issue (geo12,
    /// wide128), or the replicas' timer horizon (repl12-hunt). Fixed per
    /// workload, unlike the time the world takes to drain.
    pub sim_s: f64,
    pub shards: usize,
    pub issued: u64,
    pub completed: u64,
    pub events: u64,
    pub sent: u64,
    pub peak_queue: u64,
    pub dropped: u64,
    /// Completion latency samples, sorted (ms).
    pub latency: Summary,
    pub check_ok: bool,
    /// Replica lockstep; true where there are no replicas.
    pub lockstep_ok: bool,
    pub traced: Option<Traced>,
}

/// One timed set-up, in CPU seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    /// Latency matrix, overlay order and configuration.
    pub order_s: f64,
    /// Actors, links and `World`.
    pub build_s: f64,
    /// [`calibrate_setup`], the mean of one run just before the set-up
    /// and one just after.
    pub calibration_s: f64,
}

/// The traced run's per-layer record.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every probe's counters summed; completion times sorted.
    pub probes: ProbeStats,
    /// The simulation loop, callbacks included.
    pub loop_s: f64,
    /// Result collection plus the safety checker.
    pub check_s: f64,
    /// Clients stop issuing here: the run's duration, or the last
    /// completion where each client issues a fixed count.
    pub window: SimTime,
    pub delta_entries: u64,
    pub delta_dups: u64,
    pub suppressed: u64,
    pub chaos_actions: u64,
}

impl Traced {
    /// Completions per simulated second between the 10th and the 90th
    /// percentile completion, which leaves out warm-up and stragglers.
    pub fn txn_per_sim_s(&self) -> f64 {
        let c = &self.probes.completions;
        let (lo, hi) = (c.len() / 10, c.len() * 9 / 10);
        if hi <= lo {
            return 0.0;
        }
        let span = c[hi].since(c[lo]).as_secs();
        if span > 0.0 {
            (hi - lo) as f64 / span
        } else {
            0.0
        }
    }

    /// The longest simulated interval in `[0, window]` in which no
    /// transaction completed.
    pub fn max_stall_ms(&self) -> f64 {
        let mut prev = SimTime::ZERO;
        let mut worst = 0.0f64;
        for &c in self
            .probes
            .completions
            .iter()
            .filter(|&&c| c <= self.window)
        {
            worst = worst.max(c.since(prev).as_ms());
            prev = c;
        }
        worst.max(self.window.since(prev).as_ms())
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Times `reps` complete set-ups, each between two runs of
/// [`calibrate_setup`]; the world of the last one is returned.
fn timed_setups<W>(
    reps: usize,
    w: Workload,
    seed: u64,
    size: Size,
    mut build: impl FnMut(&Spec) -> W,
    out: &mut Outcome,
) -> (Spec, W) {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let before = calibrate_setup();
        let t0 = process_cpu_s();
        let s = spec(w, seed, size);
        let t1 = process_cpu_s();
        let world = build(&s);
        let t2 = process_cpu_s();
        out.setups.push(Setup {
            order_s: t1 - t0,
            build_s: t2 - t1,
            calibration_s: (before + calibrate_setup()) / 2.0,
        });
        last = Some((s, world));
    }
    last.expect("at least one set-up")
}

/// The untraced run, through the harness's public entry points.
pub fn run_untraced(w: Workload, seed: u64, size: Size, setup_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::Geo12 | Workload::Wide128 => {
            // `run_on` builds its world internally, so set-up is timed on
            // identical builds made here and subtracted from its time.
            let (spec, world) =
                timed_setups(setup_reps, w, seed, size, |s| build_exp(s, |n| n), &mut out);
            drop(world);
            let Spec::Exp { matrix, cfg } = spec else {
                unreachable!("experiment workload")
            };
            let build_s = out.setups.last().expect("timed").build_s;
            let (t0, c0) = (Instant::now(), process_cpu_s());
            let r = run_on(&cfg, &matrix);
            out.cpu_s = (process_cpu_s() - c0 - build_s).max(0.0);
            out.run_s = (secs(t0) - build_s).max(0.0);
            out.sim_s = cfg.duration.as_secs();
            out.shards = r.stats.events_by_shard.len();
            out.issued = r
                .registry
                .keys()
                .filter(|id| (id.sender.0 as usize) < cfg.n_clients)
                .count() as u64;
            out.completed = r.completed;
            out.events = r.stats.events;
            out.sent = r.stats.sent_messages;
            out.peak_queue = r.stats.peak_queue_depth as u64;
            out.dropped = r.stats.dropped_messages;
            out.latency = r.completion;
            out.check_ok = r.check.all_ok();
            out.lockstep_ok = true;
        }
        Workload::Repl12Hunt => {
            let (spec, mut world) = timed_setups(setup_reps, w, seed, size, build_world, &mut out);
            let Spec::Repl { cfg, .. } = spec else {
                unreachable!("replicated workload")
            };
            let (t0, c0) = (Instant::now(), process_cpu_s());
            run_adversary(&mut world, &mut hunter(), MAX_EVENTS);
            let r = replicated::collect(&cfg, &world);
            out.cpu_s = process_cpu_s() - c0;
            out.run_s = secs(t0);
            out.sim_s = cfg.stop_at.as_secs();
            fill_world(&mut out, &world);
            out.issued = r.issued as u64;
            out.completed = r.completed;
            out.latency = r.latency;
            out.check_ok = r.check.all_ok();
            out.lockstep_ok = r.check.lockstep_violations.is_empty();
        }
    }
    out
}

fn build_world(spec: &Spec) -> World<NetMsg, ReplNode> {
    let Spec::Repl { matrix, cfg, .. } = spec else {
        unreachable!("replicated workload")
    };
    replicated::build_world(cfg, matrix)
}

/// The traced run: the same world, every actor wrapped in a [`Probe`].
pub fn run_traced(w: Workload, seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Traced::default();
    match w {
        Workload::Geo12 | Workload::Wide128 => {
            let (spec, mut world) =
                timed_setups(1, w, seed, size, |s| build_exp(s, Probe::new), &mut out);
            let Spec::Exp { cfg, .. } = spec else {
                unreachable!("experiment workload")
            };
            let (t0, c0) = (Instant::now(), process_cpu_s());
            world.run_to_quiescence(MAX_EVENTS);
            tr.loop_s = secs(t0);
            let t1 = Instant::now();
            let c = collect_exp(&cfg, &world);
            tr.check_s = secs(t1);
            out.cpu_s = process_cpu_s() - c0;
            out.run_s = secs(t0);
            out.sim_s = cfg.duration.as_secs();
            fill_world(&mut out, &world);
            c.fill(&mut out);
            tr.window = cfg.duration;
            for pid in 0..world.len() {
                let p = world.actor(pid);
                tr.probes.absorb(&p.stats);
                if let Some(e) = match &p.inner {
                    Node::Server(s) => s.flex_engine(),
                    _ => None,
                } {
                    tr.delta_entries += e.merge_stats().entries_in();
                    tr.delta_dups += e.merge_stats().entries_dup();
                    tr.suppressed += e.suppression_stats().suppressed_entries();
                }
            }
        }
        Workload::Repl12Hunt => {
            let (spec, mut world) =
                timed_setups(1, w, seed, size, |s| build_repl(s, Probe::new), &mut out);
            let Spec::Repl { cfg, .. } = spec else {
                unreachable!("replicated workload")
            };
            let (t0, c0) = (Instant::now(), process_cpu_s());
            let run = run_adversary(&mut world, &mut hunter(), MAX_EVENTS);
            tr.loop_s = secs(t0);
            let t1 = Instant::now();
            let c = collect_repl(&cfg, &world);
            tr.check_s = secs(t1);
            out.cpu_s = process_cpu_s() - c0;
            out.run_s = secs(t0);
            out.sim_s = cfg.stop_at.as_secs();
            fill_world(&mut out, &world);
            c.fill(&mut out);
            tr.chaos_actions = run.actions.len() as u64;
            for pid in 0..world.len() {
                let p = world.actor(pid);
                tr.probes.absorb(&p.stats);
                if let ReplNode::Replica(r) = &p.inner {
                    let e = r.state().engine();
                    tr.delta_entries += e.merge_stats().entries_in();
                    tr.delta_dups += e.merge_stats().entries_dup();
                    tr.suppressed += e.suppression_stats().suppressed_entries();
                }
            }
            tr.window = tr
                .probes
                .completions
                .iter()
                .max()
                .copied()
                .unwrap_or_default();
        }
    }
    tr.probes.completions.sort();
    out.traced = Some(tr);
    out
}

fn fill_world<A: Actor<NetMsg>>(out: &mut Outcome, world: &World<NetMsg, A>) {
    let st = world.stats();
    out.shards = world.shard_count();
    out.events = st.events;
    out.sent = st.sent_messages;
    out.peak_queue = st.peak_queue_depth as u64;
    out.dropped = st.dropped_messages;
}

/// The world `run_on` builds, with each actor passed through `wrap`.
fn build_exp<A: Actor<NetMsg>>(spec: &Spec, wrap: impl Fn(Node) -> A) -> World<NetMsg, A> {
    let Spec::Exp { matrix, cfg } = spec else {
        unreachable!("experiment workload")
    };
    let ProtocolKind::FlexCast(order) = &cfg.protocol else {
        unreachable!("FlexCast workloads")
    };
    let n = matrix.len();
    let entry = EntryPolicy::Flex(order.clone());
    let mut actors = Vec::new();
    let mut sites = Vec::new();
    for g in 0..n as u16 {
        let s = ServerActor::flexcast(GroupId(g), n, order.clone(), cfg.advert_stride);
        actors.push(wrap(Node::Server(s)));
        sites.push(GroupId(g));
    }
    let wl = WorkloadConfig {
        locality: cfg.locality,
        mode: cfg.mode,
        max_warehouses: 3,
    };
    for c in 0..cfg.n_clients {
        let home = GroupId((c % n) as u16);
        let gen = Generator::new(wl.clone(), matrix, cfg.seed.wrapping_add(c as u64));
        let client = ClientActor::new(
            ClientId(c as u32),
            home,
            n,
            gen,
            entry.clone(),
            cfg.duration,
        );
        actors.push(wrap(Node::Client(client)));
        sites.push(home);
    }
    if let Some(period) = cfg.flush_period {
        let f = FlushActor::new(
            ClientId(cfg.n_clients as u32),
            n,
            entry,
            period,
            cfg.duration,
        );
        actors.push(wrap(Node::Flusher(f)));
        sites.push(GroupId(0));
    }
    let mut link = LinkModel::new(matrix.clone(), sites, cfg.jitter_ms);
    for pid in 0..n {
        link.set_service_ms(pid, cfg.server_service_ms);
        link.set_processing_ms(pid, cfg.server_processing_ms);
    }
    let mut world = World::new(actors, link, cfg.seed);
    world.set_shards(resolve_shards(cfg.shards));
    world
}

/// The world `replicated::build_world` builds, with each actor wrapped.
fn build_repl<A: Actor<NetMsg>>(spec: &Spec, wrap: impl Fn(ReplNode) -> A) -> World<NetMsg, A> {
    let Spec::Repl { matrix, cfg, .. } = spec else {
        unreachable!("replicated workload")
    };
    let mut actors = Vec::new();
    let mut sites = Vec::new();
    for g in 0..cfg.n_groups {
        for r in 0..cfg.rf {
            actors.push(wrap(ReplNode::Replica(ReplicatedActor::new(
                GroupId(g),
                r,
                cfg,
            ))));
            sites.push(GroupId(g));
        }
    }
    for c in 0..cfg.n_clients {
        let client = ReplClientActor::new(
            ClientId(c as u32),
            cfg.rf,
            cfg.order.clone(),
            cfg.msgs_per_client,
            cfg.max_dst,
            cfg.payload_bytes,
            cfg.retry,
            cfg.stop_at,
            cfg.seed.wrapping_add(1).wrapping_add(c as u64),
        );
        actors.push(wrap(ReplNode::Client(client)));
        sites.push(GroupId((c % cfg.n_groups as usize) as u16));
    }
    if let Some(period) = cfg.flush_period {
        let f = ReplFlushActor::new(
            ClientId(cfg.n_clients as u32),
            cfg.rf,
            cfg.order.clone(),
            cfg.n_flushes,
            period,
            cfg.stop_at,
        );
        actors.push(wrap(ReplNode::Flusher(f)));
        sites.push(cfg.order.node_at(GroupId(0)));
    }
    let link = LinkModel::new(matrix.clone(), sites, cfg.jitter_ms);
    let mut world = World::new(actors, link, cfg.seed);
    world.set_shards(resolve_shards(cfg.shards));
    world
}

/// The checked result of a traced run.
struct Collected {
    issued: u64,
    completed: u64,
    latency: Summary,
    check: CheckReport,
}

impl Collected {
    fn fill(self, out: &mut Outcome) {
        out.issued = self.issued;
        out.completed = self.completed;
        out.latency = self.latency;
        out.check_ok = self.check.all_ok();
        out.lockstep_ok = self.check.lockstep_violations.is_empty();
    }
}

/// What `run_on` collects: the multicast registry, the delivery traces
/// for the checker, and completion latency trimmed to the middle 80 % of
/// the run (§5.3).
fn collect_exp(cfg: &ExperimentConfig, world: &World<NetMsg, Probe<Node>>) -> Collected {
    let n = world.len() - cfg.n_clients - usize::from(cfg.flush_period.is_some());
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut trace: Vec<Vec<DeliveryEvent>> = vec![Vec::new(); n];
    let mut samples: Vec<LatencySample> = Vec::new();
    let (mut issued, mut completed) = (0u64, 0u64);
    for pid in 0..world.len() {
        match &world.actor(pid).inner {
            Node::Server(s) => trace[s.node().index()] = s.deliveries.clone(),
            Node::Client(c) => {
                samples.extend(c.samples.iter().copied());
                completed += c.completed;
                issued += c.issued.len() as u64;
                registry.extend(c.issued.iter().copied());
            }
            Node::Flusher(f) => registry.extend(f.issued.iter().copied()),
        }
    }
    let lo = SimTime::from_ms(cfg.duration.as_ms() * 0.10);
    let hi = SimTime::from_ms(cfg.duration.as_ms() * 0.90);
    let mut latency = Summary::new();
    for s in samples
        .iter()
        .filter(|s| s.rank == s.dst_count && s.sent_at >= lo && s.sent_at <= hi)
    {
        latency.record(s.latency_ms);
    }
    latency.sort();
    Collected {
        issued,
        completed,
        latency,
        check: checker::check(&registry, &trace),
    }
}

/// What `replicated::collect` collects, read through the wrappers.
fn collect_repl(cfg: &ReplicatedConfig, world: &World<NetMsg, Probe<ReplNode>>) -> Collected {
    let n = cfg.n_groups as usize;
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut logs: Vec<Vec<Vec<MsgId>>> = vec![Vec::new(); n];
    let mut latency = Summary::new();
    let (mut issued, mut completed) = (0u64, 0u64);
    for pid in 0..world.len() {
        match &world.actor(pid).inner {
            ReplNode::Replica(r) => {
                logs[group_of(pid, cfg.rf).index()].push(r.state().delivery_log().to_vec())
            }
            ReplNode::Client(c) => {
                registry.extend(c.issued.iter().copied());
                issued += c.issued.len() as u64;
                completed += c.completed;
                for &ms in &c.completion_ms {
                    latency.record(ms);
                }
            }
            ReplNode::Flusher(f) => registry.extend(f.issued.iter().copied()),
        }
    }
    let trace: Vec<Vec<DeliveryEvent>> = logs
        .iter()
        .enumerate()
        .map(|(g, group_logs)| {
            let longest = group_logs.iter().max_by_key(|l| l.len());
            longest
                .map(|log| {
                    log.iter()
                        .map(|&id| DeliveryEvent {
                            node: GroupId(g as u16),
                            id,
                            at: SimTime::ZERO,
                        })
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    let mut check = checker::check(&registry, &trace);
    check.lockstep_violations = checker::check_lockstep(&logs);
    latency.sort();
    Collected {
        issued,
        completed,
        latency,
        check,
    }
}
