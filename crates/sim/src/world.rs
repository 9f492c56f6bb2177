//! The deterministic discrete-event world: processors, the event loop,
//! fault injection, and the [`Context`] handed to actors.
//!
//! Every run of a [`World`] is a pure function of (topology, programs,
//! injected faults, seed): the event queue is ordered by `(time, sequence)`,
//! all state iterates in deterministic order, and all randomness flows from
//! one seeded RNG. This determinism is what lets the test suite assert
//! *exactly-once* delivery and byte-identical replica state.

use crate::net::{ConnSide, ConnState, NetState, TcpConn};
use crate::rng::SimRng;
use crate::{
    Bytes, ConnId, Datagram, LanConfig, LanId, NetAddr, NetConfig, ProcessorId, SimDuration,
    SimTime, Stats, TcpError, TcpEvent, TimerId, TraceLog,
};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// A program hosted on one simulated processor.
///
/// Actors are event-driven: the world calls the `on_*` hooks as virtual time
/// advances, and the actor reacts through the [`Context`]. A processor that
/// crashes loses its actor; on recovery the registered factory builds a
/// fresh one (which must re-establish its own state, e.g. via the
/// logging-recovery mechanisms of the upper layers).
///
/// The `Any` supertrait lets tests inspect concrete actor state through
/// [`World::actor`] / [`World::actor_mut`].
pub trait Actor: Any {
    /// Called once when the processor (re)starts.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a timer set via [`Context::set_timer`] (or an external
    /// [`World::post`]) fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when a LAN datagram arrives.
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let _ = (ctx, dgram);
    }

    /// Called for TCP lifecycle and data events.
    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        let _ = (ctx, ev);
    }
}

/// Factory that (re)builds the actor for a processor. Called at processor
/// creation and again on every [`World::recover`].
pub type ActorFactory = Box<dyn FnMut(ProcessorId) -> Box<dyn Actor>>;

#[derive(Debug)]
enum EventKind {
    Start {
        proc: ProcessorId,
        generation: u32,
    },
    Timer {
        proc: ProcessorId,
        generation: u32,
        timer: TimerId,
        tag: u64,
    },
    Datagram {
        dest: ProcessorId,
        dgram: Datagram,
    },
    /// SYN arrives at the target: accept or refuse.
    ConnAttempt {
        conn: ConnId,
    },
    /// ACK arrives back at the initiator.
    ConnEstablished {
        conn: ConnId,
    },
    /// Refusal arrives back at the initiator.
    ConnFailed {
        conn: ConnId,
    },
    TcpData {
        conn: ConnId,
        to_initiator: bool,
        bytes: Vec<u8>,
    },
    TcpClosed {
        conn: ConnId,
        to_initiator: bool,
    },
}

struct Scheduled {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct ProcInfo {
    name: String,
    lan: LanId,
    crashed: bool,
    generation: u32,
    partition: u32,
}

/// Everything except the actors themselves; this is what [`Context`]
/// borrows while an actor handles an event.
pub(crate) struct WorldCore {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    rng: SimRng,
    procs: Vec<ProcInfo>,
    lans: Vec<LanConfig>,
    net: NetState,
    config: NetConfig,
    next_timer: u64,
    active_timers: BTreeSet<TimerId>,
    stats: Stats,
    trace: TraceLog,
    events_dispatched: u64,
}

impl WorldCore {
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled {
            time: at,
            seq,
            kind,
        }));
    }

    fn schedule_after(&mut self, delay: SimDuration, kind: EventKind) {
        self.schedule(self.now + delay, kind);
    }

    fn jittered(&mut self, base: SimDuration, jitter: SimDuration) -> SimDuration {
        if jitter.is_zero() {
            base
        } else {
            base + SimDuration::from_nanos(self.rng.gen_range_inclusive(0, jitter.as_nanos()))
        }
    }

    /// One-way latency between two processors.
    fn latency_between(&mut self, a: ProcessorId, b: ProcessorId) -> SimDuration {
        let (la, lb) = (self.procs[a.0 as usize].lan, self.procs[b.0 as usize].lan);
        if la == lb {
            let cfg = self.lans[la.0 as usize];
            self.jittered(cfg.latency, cfg.jitter)
        } else {
            let (w, j) = (self.config.wan_latency, self.config.wan_jitter);
            self.jittered(w, j)
        }
    }

    fn alive(&self, p: ProcessorId) -> bool {
        !self.procs[p.0 as usize].crashed
    }

    fn reachable(&self, a: ProcessorId, b: ProcessorId) -> bool {
        let (pa, pb) = (&self.procs[a.0 as usize], &self.procs[b.0 as usize]);
        !pa.crashed && !pb.crashed && pa.partition == pb.partition
    }

    fn side_current(&self, side: ConnSide) -> bool {
        let p = &self.procs[side.processor.0 as usize];
        !p.crashed && p.generation == side.generation
    }

    fn new_timer_id(&mut self) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.active_timers.insert(id);
        id
    }

    /// Breaks a connection and notifies the side selected by `to_initiator`
    /// after the break-detection delay (if that side is still current).
    fn break_conn_notify(&mut self, conn_id: ConnId, to_initiator: bool) {
        let Some(conn) = self.net.conns.get_mut(&conn_id) else {
            return;
        };
        if conn.state == ConnState::Closed {
            return;
        }
        conn.state = ConnState::Closed;
        let at = self.now + self.config.tcp_break_detection;
        self.schedule(
            at,
            EventKind::TcpClosed {
                conn: conn_id,
                to_initiator,
            },
        );
    }
}

/// The simulation world: processors, network, event queue, fault injection.
///
/// # Examples
///
/// ```
/// use ftd_sim::{World, Actor, Context, LanConfig, SimDuration};
///
/// struct Hello;
/// impl Actor for Hello {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         ctx.stats().inc("hello.started");
///     }
/// }
///
/// let mut world = World::new(42);
/// let lan = world.add_lan(LanConfig::default());
/// world.add_processor("p0", lan, |_| Box::new(Hello));
/// world.run_for(SimDuration::from_millis(1));
/// assert_eq!(world.stats().counter("hello.started"), 1);
/// ```
pub struct World {
    core: WorldCore,
    actors: Vec<ActorSlot>,
}

struct ActorSlot {
    actor: Option<Box<dyn Actor>>,
    factory: ActorFactory,
}

impl World {
    /// Creates an empty world seeded with `seed`. Identical seeds and
    /// identical sequences of calls produce identical runs.
    pub fn new(seed: u64) -> World {
        World {
            core: WorldCore {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                next_seq: 0,
                rng: SimRng::seed_from_u64(seed),
                procs: Vec::new(),
                lans: Vec::new(),
                net: NetState::default(),
                config: NetConfig::default(),
                next_timer: 0,
                active_timers: BTreeSet::new(),
                stats: Stats::new(),
                trace: TraceLog::new(),
                events_dispatched: 0,
            },
            actors: Vec::new(),
        }
    }

    /// Adds a LAN segment and returns its id.
    pub fn add_lan(&mut self, config: LanConfig) -> LanId {
        self.core.lans.push(config);
        LanId(self.core.lans.len() as u32 - 1)
    }

    /// Adds a processor on `lan` running the actor produced by `factory`.
    /// The actor's `on_start` is scheduled immediately (at the current
    /// virtual time). The same factory rebuilds the actor after
    /// [`World::recover`].
    ///
    /// # Panics
    ///
    /// Panics if `lan` was not created by this world.
    pub fn add_processor<F>(&mut self, name: &str, lan: LanId, mut factory: F) -> ProcessorId
    where
        F: FnMut(ProcessorId) -> Box<dyn Actor> + 'static,
    {
        assert!((lan.0 as usize) < self.core.lans.len(), "unknown LAN {lan}");
        let id = ProcessorId(self.core.procs.len() as u32);
        self.core.procs.push(ProcInfo {
            name: name.to_owned(),
            lan,
            crashed: false,
            generation: 0,
            partition: 0,
        });
        let actor = factory(id);
        self.actors.push(ActorSlot {
            actor: Some(actor),
            factory: Box::new(factory),
        });
        self.core.schedule(
            self.core.now,
            EventKind::Start {
                proc: id,
                generation: 0,
            },
        );
        id
    }

    /// Mutable access to the network configuration (latencies, break
    /// detection, loopback). Changes apply to events scheduled afterwards.
    pub fn net_config_mut(&mut self) -> &mut NetConfig {
        &mut self.core.config
    }

    /// Mutable access to one LAN's configuration (e.g. to raise the loss
    /// probability mid-run for a fault-injection experiment).
    pub fn lan_config_mut(&mut self, lan: LanId) -> &mut LanConfig {
        &mut self.core.lans[lan.0 as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Shared statistics.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// Mutable statistics (e.g. to clear between experiment phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    /// The trace log.
    pub fn trace_log(&self) -> &TraceLog {
        &self.core.trace
    }

    /// Enables trace recording.
    pub fn enable_tracing(&mut self) {
        self.core.trace.set_enabled(true);
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// Number of processors in the world.
    pub fn processor_count(&self) -> usize {
        self.core.procs.len()
    }

    /// The configured name of a processor.
    pub fn processor_name(&self, p: ProcessorId) -> &str {
        &self.core.procs[p.0 as usize].name
    }

    /// Whether a processor is currently crashed.
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.core.procs[p.0 as usize].crashed
    }

    /// Immutable, downcast access to the actor hosted on `p`.
    /// Returns `None` if the processor is crashed or hosts a different type.
    pub fn actor<T: Actor>(&self, p: ProcessorId) -> Option<&T> {
        let actor = self.actors[p.0 as usize].actor.as_deref()?;
        (actor as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable, downcast access to the actor hosted on `p`.
    pub fn actor_mut<T: Actor>(&mut self, p: ProcessorId) -> Option<&mut T> {
        let actor = self.actors[p.0 as usize].actor.as_deref_mut()?;
        (actor as &mut dyn Any).downcast_mut::<T>()
    }

    /// Crashes a processor: its actor is dropped, its timers die, its TCP
    /// connections break (peers observe `Closed` after the break-detection
    /// delay), and in-flight messages to it are discarded.
    pub fn crash(&mut self, p: ProcessorId) {
        let info = &mut self.core.procs[p.0 as usize];
        if info.crashed {
            return;
        }
        info.crashed = true;
        self.actors[p.0 as usize].actor = None;
        self.core
            .trace
            .record(self.core.now, Some(p), "fault", "crash".into());
        self.core.stats.inc("sim.crashes");
        // Break this processor's connections and notify the survivors.
        let involved: Vec<(ConnId, bool)> = self
            .core
            .net
            .conns
            .iter()
            .filter(|(_, c)| c.state != ConnState::Closed)
            .filter_map(|(&id, c)| {
                if c.initiator.processor == p {
                    Some((id, false)) // notify acceptor side
                } else if c.acceptor.map(|s| s.processor) == Some(p) || c.target.processor == p {
                    Some((id, true)) // notify initiator side
                } else {
                    None
                }
            })
            .collect();
        for (id, to_initiator) in involved {
            self.core.break_conn_notify(id, to_initiator);
        }
        // Remove its listening ports.
        self.core
            .net
            .listeners
            .retain(|addr, _| addr.processor != p);
    }

    /// Recovers a crashed processor: the factory builds a fresh actor whose
    /// `on_start` runs immediately. Old timers, connections and in-flight
    /// messages remain dead (the incarnation generation changed).
    ///
    /// # Panics
    ///
    /// Panics if the processor is not crashed.
    pub fn recover(&mut self, p: ProcessorId) {
        let info = &mut self.core.procs[p.0 as usize];
        assert!(info.crashed, "recover on a live processor {p}");
        info.crashed = false;
        info.generation += 1;
        let generation = info.generation;
        let slot = &mut self.actors[p.0 as usize];
        slot.actor = Some((slot.factory)(p));
        self.core
            .trace
            .record(self.core.now, Some(p), "fault", "recover".into());
        self.core.stats.inc("sim.recoveries");
        self.core.schedule(
            self.core.now,
            EventKind::Start {
                proc: p,
                generation,
            },
        );
    }

    /// Partitions the network. Each slice becomes one side of the partition;
    /// processors not listed stay together in the default component.
    /// Messages (datagrams and TCP alike) cannot cross components; TCP
    /// connections straddling the cut break when next used.
    pub fn partition(&mut self, groups: &[&[ProcessorId]]) {
        for info in &mut self.core.procs {
            info.partition = 0;
        }
        for (i, group) in groups.iter().enumerate() {
            for &p in group.iter() {
                self.core.procs[p.0 as usize].partition = i as u32 + 1;
            }
        }
        self.core.trace.record(
            self.core.now,
            None,
            "fault",
            format!("partition {groups:?}"),
        );
        self.core.stats.inc("sim.partitions");
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        for info in &mut self.core.procs {
            info.partition = 0;
        }
        self.core
            .trace
            .record(self.core.now, None, "fault", "heal".into());
    }

    /// Schedules a user event for `p` at the current time; it arrives as
    /// `on_timer(tag)`. This is how test drivers inject work mid-run.
    pub fn post(&mut self, p: ProcessorId, tag: u64) {
        self.post_at(self.core.now, p, tag);
    }

    /// Schedules a user event for `p` at absolute time `at` (which must not
    /// be in the past).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn post_at(&mut self, at: SimTime, p: ProcessorId, tag: u64) {
        assert!(at >= self.core.now, "post_at into the past");
        let generation = self.core.procs[p.0 as usize].generation;
        let timer = self.core.new_timer_id();
        self.core.schedule(
            at,
            EventKind::Timer {
                proc: p,
                generation,
                timer,
                tag,
            },
        );
    }

    /// Dispatches the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.core.queue.pop() else {
            return false;
        };
        self.core.now = ev.time;
        self.core.events_dispatched += 1;
        self.dispatch(ev.kind);
        true
    }

    /// Runs until the queue is exhausted or virtual time would pass `until`;
    /// afterwards the clock reads exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse(head)) = self.core.queue.peek() {
            if head.time > until {
                break;
            }
            self.step();
        }
        if self.core.now < until {
            self.core.now = until;
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.core.now + d;
        self.run_until(until);
    }

    /// Runs until no events remain, or until `max_events` more have been
    /// dispatched. Returns `true` if the world quiesced.
    ///
    /// Note: protocols with periodic timers (Totem's token) never quiesce;
    /// use [`World::run_until`] for those.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.core.queue.is_empty()
    }

    fn deliver(&mut self, proc: ProcessorId, f: impl FnOnce(&mut dyn Actor, &mut Context<'_>)) {
        let slot = &mut self.actors[proc.0 as usize];
        let Some(mut actor) = slot.actor.take() else {
            return;
        };
        {
            let mut ctx = Context {
                core: &mut self.core,
                me: proc,
            };
            f(actor.as_mut(), &mut ctx);
        }
        // The actor may have crashed itself? (not supported from within);
        // restore unconditionally unless a crash happened via World, which
        // cannot occur re-entrantly because World is not reachable here.
        self.actors[proc.0 as usize].actor = Some(actor);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { proc, generation } => {
                let info = &self.core.procs[proc.0 as usize];
                if info.crashed || info.generation != generation {
                    return;
                }
                self.deliver(proc, |a, ctx| a.on_start(ctx));
            }
            EventKind::Timer {
                proc,
                generation,
                timer,
                tag,
            } => {
                if !self.core.active_timers.remove(&timer) {
                    return; // cancelled
                }
                let info = &self.core.procs[proc.0 as usize];
                if info.crashed || info.generation != generation {
                    return;
                }
                self.deliver(proc, |a, ctx| a.on_timer(ctx, tag));
            }
            EventKind::Datagram { dest, dgram } => {
                if !self.core.alive(dest) {
                    self.core.stats.inc("net.datagrams_to_dead");
                    return;
                }
                // Partition is checked at delivery time: packets in flight
                // when the cut happens are lost, like on a real network.
                if !self.core.reachable(dgram.from, dest) && dgram.from != dest {
                    self.core.stats.inc("net.datagrams_partitioned");
                    return;
                }
                self.deliver(dest, |a, ctx| a.on_datagram(ctx, dgram));
            }
            EventKind::ConnAttempt { conn } => self.handle_conn_attempt(conn),
            EventKind::ConnEstablished { conn } => {
                let Some(c) = self.core.net.conns.get(&conn) else {
                    return;
                };
                let side = c.initiator;
                if c.state != ConnState::Established {
                    return;
                }
                if !self.core.side_current(side) {
                    // Initiator died while the ACK was in flight.
                    self.core.break_conn_notify(conn, false);
                    return;
                }
                self.deliver(side.processor, |a, ctx| {
                    a.on_tcp(ctx, TcpEvent::Connected { conn })
                });
            }
            EventKind::ConnFailed { conn } => {
                let Some(c) = self.core.net.conns.get(&conn) else {
                    return;
                };
                let side = c.initiator;
                let addr = c.target;
                if !self.core.side_current(side) {
                    return;
                }
                self.deliver(side.processor, |a, ctx| {
                    a.on_tcp(ctx, TcpEvent::ConnectFailed { conn, addr })
                });
            }
            EventKind::TcpData {
                conn,
                to_initiator,
                bytes,
            } => {
                let Some(c) = self.core.net.conns.get(&conn) else {
                    return;
                };
                if c.state != ConnState::Established {
                    return;
                }
                let (dest, src) = if to_initiator {
                    (c.initiator, c.acceptor.expect("established conn"))
                } else {
                    (c.acceptor.expect("established conn"), c.initiator)
                };
                if !self.core.side_current(dest) {
                    self.core.break_conn_notify(conn, !to_initiator);
                    return;
                }
                if !self.core.reachable(src.processor, dest.processor) {
                    // Partition: both sides eventually observe the break.
                    self.core.break_conn_notify(conn, true);
                    self.core.schedule_after(
                        self.core.config.tcp_break_detection,
                        EventKind::TcpClosed {
                            conn,
                            to_initiator: false,
                        },
                    );
                    return;
                }
                self.core.stats.inc("net.tcp_chunks_delivered");
                self.deliver(dest.processor, |a, ctx| {
                    a.on_tcp(ctx, TcpEvent::Data { conn, bytes })
                });
            }
            EventKind::TcpClosed { conn, to_initiator } => {
                let Some(c) = self.core.net.conns.get_mut(&conn) else {
                    return;
                };
                // The CLOSER is the side opposite the recipient: record its
                // shutdown; the recipient's own direction stays usable
                // (TCP half-close) until it closes too.
                if to_initiator {
                    c.shutdown_acceptor = true;
                } else {
                    c.shutdown_initiator = true;
                }
                if c.shutdown_initiator && c.shutdown_acceptor {
                    c.state = ConnState::Closed;
                }
                let dest = if to_initiator {
                    Some(c.initiator)
                } else {
                    c.acceptor
                };
                let Some(dest) = dest else { return };
                if !self.core.side_current(dest) {
                    return;
                }
                self.deliver(dest.processor, |a, ctx| {
                    a.on_tcp(ctx, TcpEvent::Closed { conn })
                });
            }
        }
    }

    fn handle_conn_attempt(&mut self, conn_id: ConnId) {
        let Some(c) = self.core.net.conns.get(&conn_id) else {
            return;
        };
        if c.state != ConnState::Connecting {
            return;
        }
        let initiator = c.initiator;
        let target = c.target;
        let refused = !self.core.side_current(initiator)
            || !self.core.reachable(initiator.processor, target.processor)
            || !self.core.net.listeners.contains_key(&target);
        let back_latency = self
            .core
            .latency_between(target.processor, initiator.processor);
        if refused {
            let c = self.core.net.conns.get_mut(&conn_id).expect("conn exists");
            c.state = ConnState::Closed;
            self.core.stats.inc("net.tcp_connects_refused");
            self.core
                .schedule_after(back_latency, EventKind::ConnFailed { conn: conn_id });
            return;
        }
        let acceptor_gen = self.core.procs[target.processor.0 as usize].generation;
        let established_at = self.core.now + back_latency;
        let c = self.core.net.conns.get_mut(&conn_id).expect("conn exists");
        c.acceptor = Some(ConnSide {
            processor: target.processor,
            generation: acceptor_gen,
        });
        c.state = ConnState::Established;
        c.fifo_to_initiator = established_at;
        self.core.stats.inc("net.tcp_connects_accepted");
        self.core
            .schedule(established_at, EventKind::ConnEstablished { conn: conn_id });
        self.deliver(target.processor, |a, ctx| {
            a.on_tcp(
                ctx,
                TcpEvent::Accepted {
                    conn: conn_id,
                    local_port: target.port,
                    peer: initiator.processor,
                },
            )
        });
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.core.now)
            .field("processors", &self.core.procs.len())
            .field("queued_events", &self.core.queue.len())
            .field("events_dispatched", &self.core.events_dispatched)
            .finish()
    }
}

/// The capability surface an [`Actor`] sees while handling an event:
/// virtual time, timers, the two transports, randomness, stats and tracing.
pub struct Context<'a> {
    core: &'a mut WorldCore,
    me: ProcessorId,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The processor this actor runs on.
    pub fn me(&self) -> ProcessorId {
        self.me
    }

    /// The LAN segment this processor belongs to.
    pub fn my_lan(&self) -> LanId {
        self.core.procs[self.me.0 as usize].lan
    }

    /// The configured name of this processor.
    pub fn my_name(&self) -> &str {
        &self.core.procs[self.me.0 as usize].name
    }

    /// Sets a one-shot timer `delay` from now; `tag` is handed back to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let generation = self.core.procs[self.me.0 as usize].generation;
        let timer = self.core.new_timer_id();
        self.core.schedule_after(
            delay,
            EventKind::Timer {
                proc: self.me,
                generation,
                timer,
                tag,
            },
        );
        timer
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.core.active_timers.remove(&timer);
    }

    /// Multicasts a datagram to every processor on this LAN segment
    /// (including this one, if loopback is configured). Each receiver
    /// independently experiences latency, jitter and loss. Every receiver
    /// shares the one payload buffer.
    pub fn lan_multicast(&mut self, payload: impl Into<Bytes>) {
        let payload = payload.into();
        let lan = self.my_lan();
        let cfg = self.core.lans[lan.0 as usize];
        self.core.stats.inc("net.multicasts_sent");
        let members: Vec<ProcessorId> = (0..self.core.procs.len() as u32)
            .map(ProcessorId)
            .filter(|&p| self.core.procs[p.0 as usize].lan == lan)
            .collect();
        for dest in members {
            if dest == self.me {
                if self.core.config.multicast_loopback {
                    let at = self.core.now + cfg.latency;
                    self.core.schedule(
                        at,
                        EventKind::Datagram {
                            dest,
                            dgram: Datagram {
                                from: self.me,
                                payload: payload.clone(),
                            },
                        },
                    );
                }
                continue;
            }
            if !self.core.reachable(self.me, dest) {
                continue;
            }
            if cfg.loss_probability > 0.0 && self.core.rng.gen_f64() < cfg.loss_probability {
                self.core.stats.inc("net.datagrams_lost");
                continue;
            }
            let lat = self.core.jittered(cfg.latency, cfg.jitter);
            self.core.schedule_after(
                lat,
                EventKind::Datagram {
                    dest,
                    dgram: Datagram {
                        from: self.me,
                        payload: payload.clone(),
                    },
                },
            );
        }
    }

    /// Sends a unicast datagram (best-effort; same loss model as the LAN if
    /// intra-LAN, lossless but slower across segments).
    pub fn datagram_to(&mut self, dest: ProcessorId, payload: impl Into<Bytes>) {
        if !self.core.reachable(self.me, dest) {
            self.core.stats.inc("net.datagrams_partitioned");
            return;
        }
        let same_lan =
            self.core.procs[self.me.0 as usize].lan == self.core.procs[dest.0 as usize].lan;
        if same_lan {
            let cfg = self.core.lans[self.my_lan().0 as usize];
            if cfg.loss_probability > 0.0 && self.core.rng.gen_f64() < cfg.loss_probability {
                self.core.stats.inc("net.datagrams_lost");
                return;
            }
        }
        let lat = self.core.latency_between(self.me, dest);
        self.core.schedule_after(
            lat,
            EventKind::Datagram {
                dest,
                dgram: Datagram {
                    from: self.me,
                    payload: payload.into(),
                },
            },
        );
    }

    /// Starts listening for TCP connections on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::PortInUse`] if this processor already listens on
    /// the port.
    pub fn tcp_listen(&mut self, port: u16) -> Result<(), TcpError> {
        let addr = NetAddr::new(self.me, port);
        if self.core.net.listeners.contains_key(&addr) {
            return Err(TcpError::PortInUse(port));
        }
        self.core.net.listeners.insert(addr, ());
        Ok(())
    }

    /// Stops listening on `port`. Established connections are unaffected.
    pub fn tcp_unlisten(&mut self, port: u16) {
        self.core.net.listeners.remove(&NetAddr::new(self.me, port));
    }

    /// Opens a TCP connection to `addr`. The result arrives later as
    /// [`TcpEvent::Connected`] or [`TcpEvent::ConnectFailed`].
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::SelfConnect`] when `addr` is this processor
    /// (loopback connections are not modelled).
    pub fn tcp_connect(&mut self, addr: NetAddr) -> Result<ConnId, TcpError> {
        if addr.processor == self.me {
            return Err(TcpError::SelfConnect);
        }
        let conn = self.core.net.alloc_conn();
        let generation = self.core.procs[self.me.0 as usize].generation;
        let lat = self.core.latency_between(self.me, addr.processor)
            + self.core.config.tcp_connect_overhead;
        self.core.net.conns.insert(
            conn,
            TcpConn {
                initiator: ConnSide {
                    processor: self.me,
                    generation,
                },
                target: addr,
                acceptor: None,
                state: ConnState::Connecting,
                shutdown_initiator: false,
                shutdown_acceptor: false,
                fifo_to_acceptor: self.core.now + lat,
                fifo_to_initiator: self.core.now,
            },
        );
        self.core.stats.inc("net.tcp_connects");
        self.core
            .schedule_after(lat, EventKind::ConnAttempt { conn });
        Ok(conn)
    }

    /// Sends bytes on an established connection. Delivery is reliable and
    /// ordered as long as both endpoints stay up and connected; chunk
    /// boundaries are not preserved.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::NotConnected`] if the connection is unknown or
    /// closed, [`TcpError::NotAnEndpoint`] if this processor is not one of
    /// its endpoints.
    pub fn tcp_send(&mut self, conn: ConnId, bytes: Vec<u8>) -> Result<(), TcpError> {
        let me = self.me;
        let c = self
            .core
            .net
            .conns
            .get(&conn)
            .ok_or(TcpError::NotConnected(conn))?;
        if c.state != ConnState::Established && c.state != ConnState::Connecting {
            return Err(TcpError::NotConnected(conn));
        }
        let to_initiator = if c.initiator.processor == me {
            false
        } else if c.acceptor.map(|s| s.processor) == Some(me) {
            true
        } else {
            return Err(TcpError::NotAnEndpoint(conn));
        };
        // Half-close: a side that closed may not send any more.
        let caller_shutdown = if to_initiator {
            c.shutdown_acceptor
        } else {
            c.shutdown_initiator
        };
        if caller_shutdown {
            return Err(TcpError::NotConnected(conn));
        }
        let dest = if to_initiator {
            c.initiator.processor
        } else {
            c.target.processor
        };
        let lat = self.core.latency_between(me, dest);
        let c = self.core.net.conns.get_mut(&conn).expect("conn exists");
        // Enforce per-direction FIFO: never deliver earlier than a chunk
        // scheduled before this one.
        let fifo = if to_initiator {
            &mut c.fifo_to_initiator
        } else {
            &mut c.fifo_to_acceptor
        };
        let at = (self.core.now + lat).max(*fifo);
        *fifo = at;
        self.core.stats.inc("net.tcp_chunks_sent");
        self.core
            .stats
            .add("net.tcp_bytes_sent", bytes.len() as u64);
        self.core.schedule(
            at,
            EventKind::TcpData {
                conn,
                to_initiator,
                bytes,
            },
        );
        Ok(())
    }

    /// Closes a connection. The peer observes [`TcpEvent::Closed`] after
    /// data already in flight to it has arrived.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Context::tcp_send`].
    pub fn tcp_close(&mut self, conn: ConnId) -> Result<(), TcpError> {
        let me = self.me;
        let c = self
            .core
            .net
            .conns
            .get(&conn)
            .ok_or(TcpError::NotConnected(conn))?;
        if c.state == ConnState::Closed {
            return Err(TcpError::NotConnected(conn));
        }
        let to_initiator = if c.initiator.processor == me {
            false
        } else if c.acceptor.map(|s| s.processor) == Some(me) {
            true
        } else {
            return Err(TcpError::NotAnEndpoint(conn));
        };
        let dest = if to_initiator {
            c.initiator.processor
        } else {
            c.target.processor
        };
        let lat = self.core.latency_between(me, dest);
        let c = self.core.net.conns.get_mut(&conn).expect("conn exists");
        // Half-close: the caller may not send any more, but data already
        // scheduled toward the peer drains first (the FIFO guarantees the
        // Closed event arrives after it).
        if to_initiator {
            c.shutdown_acceptor = true;
        } else {
            c.shutdown_initiator = true;
        }
        let fully_closed = c.shutdown_initiator && c.shutdown_acceptor;
        if fully_closed {
            c.state = ConnState::Closed;
        }
        let fifo = if to_initiator {
            &mut c.fifo_to_initiator
        } else {
            &mut c.fifo_to_acceptor
        };
        let at = (self.core.now + lat).max(*fifo);
        *fifo = at;
        self.core
            .schedule(at, EventKind::TcpClosed { conn, to_initiator });
        Ok(())
    }

    /// The processor on the far side of a connection, if it is established
    /// and this processor is an endpoint.
    pub fn tcp_peer(&self, conn: ConnId) -> Option<ProcessorId> {
        self.core.net.conns.get(&conn)?.peer_of(self.me)
    }

    /// A uniformly random `u64` from the world's seeded RNG.
    pub fn rand_u64(&mut self) -> u64 {
        self.core.rng.next_u64()
    }

    /// A uniformly random `f64` in `[0, 1)`.
    pub fn rand_f64(&mut self) -> f64 {
        self.core.rng.gen_f64()
    }

    /// A uniformly random value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn rand_range(&mut self, n: u64) -> u64 {
        self.core.rng.gen_range(n)
    }

    /// Shared statistics.
    pub fn stats(&mut self) -> &mut Stats {
        &mut self.core.stats
    }

    /// Records a trace event attributed to this processor.
    pub fn trace(&mut self, category: &'static str, detail: String) {
        self.core
            .trace
            .record(self.core.now, Some(self.me), category, detail);
    }

    /// `true` if tracing is enabled (lets callers skip building detail
    /// strings when not needed).
    pub fn tracing(&self) -> bool {
        self.core.trace.is_enabled()
    }
}

impl std::fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("me", &self.me)
            .field("now", &self.core.now)
            .finish()
    }
}
