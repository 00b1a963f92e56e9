//! Ballot leader election (BLE) by heartbeat rounds, à la Omni-Paxos.
//!
//! The staggered-timeout election the harness used before this module has
//! a classic blind spot: it equates *liveness of the leader* with *silence
//! on my inbox*. Under partial connectivity — an asymmetric link cut that
//! leaves the quorum intact but severs one replica's path to the leader —
//! every cut-off replica suspects independently, candidates race, and the
//! group can livelock through dueling `Prepare`s even though a perfectly
//! good quorum is connected the whole time.
//!
//! BLE separates failure detection from Paxos and makes it *quorum-aware*:
//!
//! * Each replica owns a [`Ballot`] `(round, owner)` — totally ordered,
//!   owner as tiebreaker — and runs fixed-length **heartbeat rounds**: at
//!   the start of a round it sends [`BleMsg::HeartbeatRequest`] to every
//!   peer and collects [`BleMsg::HeartbeatReply`]s carrying each peer's
//!   current ballot and *candidate* flag.
//! * A round **completes** only if replies from a majority (counting the
//!   replica itself) arrive in time. Completing a round proves the replica
//!   is *majority-connected*; failing one clears its candidate flag, so a
//!   partitioned replica stops being electable — and stops disrupting the
//!   connected majority with hopeless candidacies.
//! * On each completed round the replica elects the **maximum ballot among
//!   candidates it heard** ([`BleOutput::Leader`] fires on change). If its
//!   current leader's ballot is no longer in that set (the leader became
//!   unreachable or lost quorum), it *overbids* — bumps its own ballot
//!   past the missing leader's — so the next completed round elects a
//!   connected replacement with a strictly higher ballot.
//! * Replies that arrive *after* their round closed mean the round length
//!   underestimates the network: the replica adaptively lengthens
//!   `hb_delay` (bounded), trading failover latency for stability.
//!
//! The elected ballot is handed to Paxos via
//! [`Replica::handle_leader`](crate::Replica::handle_leader): only the
//! ballot's owner stands for election, with the BLE ballot as its Paxos
//! ballot, so Paxos phase-1 races shrink to the (rare) window where two
//! connected majorities elect simultaneously — and ballot total order
//! settles even that.
//!
//! The module is sans-io and tick-driven like [`crate::Replica`]: callers
//! pump [`BallotLeaderElection::on_tick`] from a timer and route
//! [`BleOutput::Send`] over their transport. Duplicate replies within a
//! round are ignored by sender, so lossy/duplicating links never forge a
//! majority.

use crate::paxos::Ballot;

/// Heartbeat traffic between the BLE instances of one replica group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BleMsg {
    /// Round `round` opened at the sender: please reply with your ballot.
    HeartbeatRequest {
        /// The sender's heartbeat round number.
        round: u64,
    },
    /// Reply to the `round`-th request of the destination replica.
    HeartbeatReply {
        /// Echo of the request's round number (stale echoes are the
        /// adaptive-delay signal).
        round: u64,
        /// The replier's current ballot.
        ballot: Ballot,
        /// True if the replier completed its own last round (it is
        /// majority-connected and thus electable).
        candidate: bool,
    },
}

/// An action produced by the election component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BleOutput {
    /// Send `msg` to peer replica `to`.
    Send {
        /// Destination replica id.
        to: u32,
        /// The heartbeat message.
        msg: BleMsg,
    },
    /// The elected leader changed: `0` is the new leader's ballot. The
    /// ballot's owner should stand for Paxos election
    /// ([`crate::Replica::handle_leader`]); everyone else just follows.
    Leader(Ballot),
}

/// A ballot-leader-election instance for one replica. See module docs.
#[derive(Clone, Debug)]
pub struct BallotLeaderElection {
    pid: u32,
    n: u32,
    /// Current heartbeat round (strictly increasing).
    hb_round: u64,
    /// Replies gathered this round: `(from, ballot, candidate)`. `from`
    /// dedups: duplicated links cannot forge a majority.
    replies: Vec<(u32, Ballot, bool)>,
    current_ballot: Ballot,
    /// True iff the last round completed (majority heard) — the flag sent
    /// in our replies and counted in elections.
    candidate: bool,
    leader: Option<Ballot>,
    /// Round length in ticks (adaptively increased, bounded).
    hb_delay: u64,
    /// Ticks added to `hb_delay` when a reply misses its round.
    increment_delay: u64,
    /// Upper bound on the adaptive `hb_delay`.
    max_delay: u64,
    /// Ticks left in the current round.
    ticks_left: u64,
}

impl BallotLeaderElection {
    /// Creates the BLE instance for replica `pid` of `n`, with heartbeat
    /// rounds of `hb_delay` ticks, lengthened by `increment_delay` per
    /// missed round (capped at `8 × hb_delay`).
    ///
    /// Initial ballots are seeded as `(n − pid, pid)` so replica 0 holds
    /// the maximum and wins the very first completed round — preserving
    /// the harness convention that replica 0 leads a freshly booted group.
    pub fn new(pid: u32, n: u32, hb_delay: u64, increment_delay: u64) -> Self {
        assert!(n >= 1 && pid < n, "replica id out of range");
        let hb_delay = hb_delay.max(1);
        BallotLeaderElection {
            pid,
            n,
            hb_round: 0,
            replies: Vec::new(),
            current_ballot: Ballot {
                round: (n - pid) as u64,
                owner: pid,
            },
            candidate: true,
            leader: None,
            hb_delay,
            increment_delay,
            max_delay: hb_delay * 8,
            ticks_left: 0, // first tick opens round 1 immediately
        }
    }

    /// This replica's id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The current heartbeat round number.
    pub fn hb_round(&self) -> u64 {
        self.hb_round
    }

    /// The ballot this replica currently campaigns with.
    pub fn current_ballot(&self) -> Ballot {
        self.current_ballot
    }

    /// The ballot this replica currently considers elected, if any.
    pub fn leader(&self) -> Option<Ballot> {
        self.leader
    }

    /// True iff the last heartbeat round completed (majority-connected).
    pub fn is_candidate(&self) -> bool {
        self.candidate
    }

    /// The current (possibly adaptively increased) round length in ticks.
    pub fn hb_delay(&self) -> u64 {
        self.hb_delay
    }

    fn majority(&self) -> usize {
        (self.n as usize / 2) + 1
    }

    /// Advances the round timer by one tick; closes the round (and opens
    /// the next) when it expires.
    pub fn on_tick(&mut self, out: &mut Vec<BleOutput>) {
        if self.ticks_left > 1 {
            self.ticks_left -= 1;
            return;
        }
        self.close_round(out);
        self.open_round(out);
    }

    /// Handles a heartbeat message from peer replica `from`.
    pub fn on_message(&mut self, from: u32, msg: BleMsg, out: &mut Vec<BleOutput>) {
        match msg {
            BleMsg::HeartbeatRequest { round } => {
                out.push(BleOutput::Send {
                    to: from,
                    msg: BleMsg::HeartbeatReply {
                        round,
                        ballot: self.current_ballot,
                        candidate: self.candidate,
                    },
                });
            }
            BleMsg::HeartbeatReply {
                round,
                ballot,
                candidate,
            } => {
                if round == self.hb_round {
                    if !self.replies.iter().any(|&(f, _, _)| f == from) {
                        self.replies.push((from, ballot, candidate));
                    }
                } else if round < self.hb_round {
                    // The reply was in flight when its round closed: the
                    // round length underestimates the network. Back off.
                    self.hb_delay = (self.hb_delay + self.increment_delay).min(self.max_delay);
                }
                // round > hb_round cannot happen over FIFO-ish links (we
                // never requested it); ignore defensively.
            }
        }
    }

    /// Closes the current round: elect on a completed round, demote
    /// ourselves on a failed one.
    fn close_round(&mut self, out: &mut Vec<BleOutput>) {
        if self.hb_round == 0 {
            return; // nothing gathered before the first round opens
        }
        if self.replies.len() + 1 >= self.majority() {
            let mut ballots = std::mem::take(&mut self.replies);
            ballots.push((self.pid, self.current_ballot, self.candidate));
            self.check_leader(&ballots, out);
            // Completing this round proves majority connectivity; the flag
            // becomes true for the *next* round's replies and election, so
            // a healed replica is electable one full round after healing.
            self.candidate = true;
        } else {
            // Cut off from the majority: we are not electable, and our
            // replies must say so until a round completes again.
            self.replies.clear();
            self.candidate = false;
            if let Some(cur) = self.leader.take() {
                // Whatever we believed is unverifiable from here; overbid
                // so that if connectivity returns we campaign above it.
                self.current_ballot.round = self.current_ballot.round.max(cur.round) + 1;
            }
        }
    }

    fn check_leader(&mut self, ballots: &[(u32, Ballot, bool)], out: &mut Vec<BleOutput>) {
        let top = ballots
            .iter()
            .filter(|&&(_, _, cand)| cand)
            .map(|&(_, b, _)| b)
            .max();
        match top {
            Some(top) => {
                if self.leader.is_some_and(|cur| top < cur) {
                    // The leader we followed vanished from the candidate
                    // set (unreachable, or it lost its own quorum).
                    // Overbid past it: our next completed round elects a
                    // *connected* candidate at a strictly higher ballot.
                    let cur = self.leader.take().expect("checked is_some");
                    self.current_ballot.round = self.current_ballot.round.max(cur.round) + 1;
                } else if self.leader != Some(top) {
                    self.leader = Some(top);
                    out.push(BleOutput::Leader(top));
                }
            }
            None => {
                // A completed round with no electable candidate at all
                // (everyone heard is freshly healed). Drop any stale
                // leader; a candidate will surface within a round.
                if let Some(cur) = self.leader.take() {
                    self.current_ballot.round = self.current_ballot.round.max(cur.round) + 1;
                }
            }
        }
    }

    /// Opens the next round: request heartbeats from every peer.
    fn open_round(&mut self, out: &mut Vec<BleOutput>) {
        self.hb_round += 1;
        self.replies.clear();
        for to in (0..self.n).filter(|&p| p != self.pid) {
            out.push(BleOutput::Send {
                to,
                msg: BleMsg::HeartbeatRequest {
                    round: self.hb_round,
                },
            });
        }
        self.ticks_left = self.hb_delay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Runs `rounds` full heartbeat rounds over `n` instances, delivering
    /// messages instantly except on links in `blocked` (directed
    /// `(from, to)` pairs). Returns the fired `Leader` events per replica.
    fn run_rounds(
        bles: &mut [BallotLeaderElection],
        blocked: &BTreeSet<(u32, u32)>,
        rounds: usize,
    ) -> Vec<Vec<Ballot>> {
        let n = bles.len();
        let mut events: Vec<Vec<Ballot>> = vec![Vec::new(); n];
        for _ in 0..rounds {
            // Each "round" = hb_delay ticks for everyone, with synchronous
            // message exchange after each tick.
            let delay = bles.iter().map(|b| b.hb_delay()).max().unwrap();
            for _ in 0..delay {
                let mut inflight: Vec<(u32, u32, BleMsg)> = Vec::new();
                for (i, ble) in bles.iter_mut().enumerate() {
                    let mut out = Vec::new();
                    ble.on_tick(&mut out);
                    for o in out {
                        match o {
                            BleOutput::Send { to, msg } => inflight.push((i as u32, to, msg)),
                            BleOutput::Leader(b) => events[i].push(b),
                        }
                    }
                }
                // Deliver (requests then the replies they trigger).
                while !inflight.is_empty() {
                    let mut next = Vec::new();
                    for (from, to, msg) in inflight.drain(..) {
                        if blocked.contains(&(from, to)) {
                            continue;
                        }
                        let mut out = Vec::new();
                        bles[to as usize].on_message(from, msg, &mut out);
                        for o in out {
                            match o {
                                BleOutput::Send { to: t2, msg } => next.push((to, t2, msg)),
                                BleOutput::Leader(b) => events[to as usize].push(b),
                            }
                        }
                    }
                    inflight = next;
                }
            }
        }
        events
    }

    fn cluster(n: u32) -> Vec<BallotLeaderElection> {
        (0..n)
            .map(|p| BallotLeaderElection::new(p, n, 2, 1))
            .collect()
    }

    #[test]
    fn fully_connected_elects_replica_zero_first() {
        let mut bles = cluster(3);
        let events = run_rounds(&mut bles, &BTreeSet::new(), 3);
        for (i, evs) in events.iter().enumerate() {
            assert!(!evs.is_empty(), "replica {i} saw no election");
            assert_eq!(evs[0].owner, 0, "seeded ballots make replica 0 win");
            assert_eq!(evs.len(), 1, "stable leader: exactly one event");
        }
        for b in &bles {
            assert_eq!(b.leader().unwrap().owner, 0);
            assert!(b.is_candidate());
        }
    }

    #[test]
    fn cut_off_replica_is_not_electable_and_does_not_disrupt() {
        let mut bles = cluster(3);
        run_rounds(&mut bles, &BTreeSet::new(), 3);
        // Fully isolate replica 0 (the leader): both directions, both
        // peers.
        let blocked: BTreeSet<(u32, u32)> = [(0, 1), (1, 0), (0, 2), (2, 0)].into_iter().collect();
        let events = run_rounds(&mut bles, &blocked, 6);
        // 0 fails its rounds: candidate flag drops, no self-election.
        assert!(!bles[0].is_candidate());
        assert!(bles[0].leader().is_none());
        assert!(events[0].is_empty(), "isolated replica elects nobody");
        // 1 and 2 elect a replacement among themselves.
        let l1 = bles[1].leader().unwrap();
        let l2 = bles[2].leader().unwrap();
        assert_eq!(l1, l2);
        assert_ne!(l1.owner, 0);
        // The replacement overbid the lost leader.
        assert!(l1.round > Ballot { round: 3, owner: 0 }.round);
    }

    #[test]
    fn healed_replica_rejoins_and_follows_current_leader() {
        let mut bles = cluster(3);
        run_rounds(&mut bles, &BTreeSet::new(), 3);
        let blocked: BTreeSet<(u32, u32)> = [(0, 1), (1, 0), (0, 2), (2, 0)].into_iter().collect();
        run_rounds(&mut bles, &blocked, 6);
        let replacement = bles[1].leader().unwrap();
        // Heal: 0 completes rounds again, hears the replacement's higher
        // ballot, and follows it instead of re-claiming.
        run_rounds(&mut bles, &BTreeSet::new(), 4);
        assert_eq!(bles[0].leader(), Some(replacement));
        assert!(bles[0].is_candidate(), "healed replica is electable again");
        for b in &bles {
            assert_eq!(b.leader(), Some(replacement), "no dueling leaders");
        }
    }

    #[test]
    fn asymmetric_cut_moves_leadership_to_a_connected_replica() {
        let mut bles = cluster(3);
        run_rounds(&mut bles, &BTreeSet::new(), 3);
        // Asymmetric: leader 0's messages to 1 are dropped (so 1 never
        // hears 0's replies), every other direction works. Quorum is
        // connected throughout.
        let blocked: BTreeSet<(u32, u32)> = [(0, 1)].into_iter().collect();
        let events = run_rounds(&mut bles, &blocked, 8);
        // 1 lost its leader, overbid, and won (its ballot grows past 0's;
        // 2 hears both and follows the max).
        let new = bles[1].leader().unwrap();
        assert_eq!(new.owner, 1, "the cut-off replica overbids and wins");
        assert_eq!(bles[2].leader(), Some(new));
        // 2 switched exactly once after the cut.
        let switches: Vec<_> = events[2].iter().collect();
        assert!(switches.len() <= 1, "no election churn: {switches:?}");
    }

    #[test]
    fn no_quorum_means_no_leader_ever() {
        let mut bles = cluster(3);
        // Block everything from the start.
        let mut blocked = BTreeSet::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    blocked.insert((a, b));
                }
            }
        }
        let events = run_rounds(&mut bles, &blocked, 8);
        for (i, evs) in events.iter().enumerate() {
            assert!(evs.is_empty(), "replica {i} elected without a quorum");
            assert!(bles[i].leader().is_none());
        }
    }

    #[test]
    fn single_replica_elects_itself() {
        let mut bles = cluster(1);
        let events = run_rounds(&mut bles, &BTreeSet::new(), 2);
        assert_eq!(events[0].len(), 1);
        assert_eq!(events[0][0].owner, 0);
    }

    #[test]
    fn duplicate_replies_do_not_forge_a_majority() {
        // 1-of-5 connectivity: replica 0 hears only replica 1, but the
        // link duplicates every reply. Dedup by sender must keep the
        // round incomplete.
        let mut ble = BallotLeaderElection::new(0, 5, 1, 1);
        let mut out = Vec::new();
        ble.on_tick(&mut out); // opens round 1
        let reply = BleMsg::HeartbeatReply {
            round: 1,
            ballot: Ballot { round: 4, owner: 1 },
            candidate: true,
        };
        for _ in 0..4 {
            ble.on_message(1, reply, &mut out);
        }
        ble.on_tick(&mut out); // closes round 1
        assert!(!ble.is_candidate(), "2 distinct voices < majority of 5");
        assert!(out.iter().all(|o| !matches!(o, BleOutput::Leader(_))));
    }

    #[test]
    fn late_replies_lengthen_the_round_adaptively() {
        let mut ble = BallotLeaderElection::new(0, 3, 2, 3);
        let mut out = Vec::new();
        ble.on_tick(&mut out); // round 1 opens
        assert_eq!(ble.hb_delay(), 2);
        ble.on_message(
            1,
            BleMsg::HeartbeatReply {
                round: 0, // stale: missed its round
                ballot: Ballot { round: 2, owner: 1 },
                candidate: true,
            },
            &mut out,
        );
        assert_eq!(ble.hb_delay(), 5, "base 2 + increment 3");
        // The increase is capped at 8× the base.
        for _ in 0..20 {
            ble.on_message(
                1,
                BleMsg::HeartbeatReply {
                    round: 0,
                    ballot: Ballot { round: 2, owner: 1 },
                    candidate: true,
                },
                &mut out,
            );
        }
        assert_eq!(ble.hb_delay(), 16, "capped at 8 × base");
    }
}
