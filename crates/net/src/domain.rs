//! The domain thread: the one [`DomainBackend`] a gateway owns, pumped
//! in virtual time.
//!
//! The seed architecture ran the in-process domain *on* the gateway's
//! single engine thread. With the engine sharded (N threads) the domain
//! gets its own thread: [`DomainService`] owns the host, applies queued
//! multicasts, advances the virtual clock a slice per pump (one pump per
//! real tick when idle; drain, pump, repeat while commands are queued),
//! and hands each pump's ordered deliveries, as one batch, to the
//! gateway's delivery sink. The sink moves them onto the shard queues
//! and rings each receiving shard's doorbell once, so a reply reaches a
//! shard asleep in `poll(2)` when the pump that ordered it ends. The
//! gateway's shards, relay and admin threads talk to it through a
//! cloneable [`DomainLink`].
//!
//! Every gateway owns exactly one domain. Several gateways in front of
//! one *logical* domain is §3.5's gateway group
//! ([`GroupOptions`](crate::GroupOptions)): each member hosts its own
//! deterministic replica of the domain and the group relay keeps their
//! inputs identical.

use crate::backend::{DomainBackend, GroupSnapshot};
use crate::host::HostView;
use ftd_core::{Error, RecordedView};
use ftd_obs::{names, Registry};
use ftd_sim::SimDuration;
use ftd_totem::GroupId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle domain thread waits between pumps, and how much
/// virtual time the in-process domain advances per pump.
pub(crate) const TICK_REAL: Duration = Duration::from_millis(1);
pub(crate) const TICK_VIRTUAL: SimDuration = SimDuration::from_millis(2);

/// A live fault injected into the domain behind serving gateways — the
/// harness-facing face of the §3.5 fault model. Applied on the domain
/// thread via [`GatewayServer::inject`](crate::GatewayServer::inject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainFault {
    /// Crash a domain processor (by index; 0, the relay, is refused).
    CrashProcessor(usize),
    /// Recover a previously crashed processor.
    RecoverProcessor(usize),
}

/// The gateway's delivery fan-out callback: routes one pump's ordered
/// deliveries, by value, to the shard queue(s) that need them and wakes
/// each shard that got one.
pub(crate) type DeliverySink = Box<dyn FnMut(Vec<(GroupId, Vec<u8>)>) + Send>;

enum DomainCmd {
    Multicast(GroupId, Vec<u8>),
    Chaos(DomainFault),
    Register(DeliverySink),
    /// Drain the domain (pump until deliveries stop arriving), then ack.
    Quiesce(Sender<()>),
    /// Export every group's transferable snapshot (state + responses).
    Export(Sender<Vec<GroupSnapshot>>),
    /// Install transferred snapshots; acks how many replicas accepted.
    Restore(Vec<GroupSnapshot>, Sender<usize>),
    Shutdown,
}

struct DomainSharedState {
    healthy: AtomicBool,
    view: Mutex<Arc<RecordedView>>,
}

/// A cloneable handle to a running [`DomainService`]. Cheap to clone;
/// every shard thread of the owning gateway holds one.
#[derive(Clone)]
pub(crate) struct DomainLink {
    tx: Sender<DomainCmd>,
    shared: Arc<DomainSharedState>,
}

impl DomainLink {
    /// Whether the domain's ring is currently operational. Gateways shed
    /// new connections while `false`.
    pub(crate) fn healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::SeqCst)
    }

    /// Injects a live fault (applied on the domain thread before its
    /// next tick).
    pub(crate) fn inject(&self, fault: DomainFault) {
        let _ = self.tx.send(DomainCmd::Chaos(fault));
    }

    /// Queues a totally ordered multicast into the domain.
    pub(crate) fn multicast(&self, group: GroupId, payload: Vec<u8>) {
        let _ = self.tx.send(DomainCmd::Multicast(group, payload));
    }

    /// The latest published [`DomainView`](ftd_core::DomainView)
    /// snapshot, in the value form shards consult and recordings store.
    pub(crate) fn view(&self) -> Arc<RecordedView> {
        self.shared.view.lock().expect("view lock").clone()
    }

    /// Registers the gateway's delivery sink (replacing any earlier one).
    pub(crate) fn register_sink(&self, sink: DeliverySink) {
        let _ = self.tx.send(DomainCmd::Register(sink));
    }

    /// Asks the domain thread to drain in-flight work and waits (bounded
    /// by `timeout`) for the ack. Used by gateway shutdown so replies
    /// already ordered inside the domain reach the shard queues before
    /// the shards stop.
    pub(crate) fn quiesce(&self, timeout: Duration) {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(DomainCmd::Quiesce(ack_tx)).is_ok() {
            let _ = ack_rx.recv_timeout(timeout);
        }
    }

    /// Exports every group's transferable snapshot from the domain
    /// thread (bounded by `timeout`) — the donor side of a gateway-group
    /// state transfer. `None` on timeout or a dead domain.
    pub(crate) fn export_groups(&self, timeout: Duration) -> Option<Vec<GroupSnapshot>> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(DomainCmd::Export(ack_tx)).ok()?;
        ack_rx.recv_timeout(timeout).ok()
    }

    /// Installs transferred snapshots on the domain thread (bounded by
    /// `timeout`); returns how many replicas accepted state, or `None`
    /// on timeout or a dead domain.
    pub(crate) fn restore_groups(
        &self,
        groups: Vec<GroupSnapshot>,
        timeout: Duration,
    ) -> Option<usize> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(DomainCmd::Restore(groups, ack_tx)).ok()?;
        ack_rx.recv_timeout(timeout).ok()
    }
}

/// Owns the domain thread; `GatewayServer::builder().host(..)` starts
/// one per gateway with [`DomainService::start`].
pub(crate) struct DomainService {
    link: DomainLink,
    thread: Option<JoinHandle<()>>,
}

impl DomainService {
    /// Runs `host` on a fresh domain thread (the simulated world never
    /// crosses threads) and waits for bring-up: an error from the factory
    /// — e.g. [`ftd_core::HostError::RingFormation`] — is returned here
    /// instead of killing the thread. The host's deterministic `totem.*`
    /// counters are bridged into `registry`. Accepts any
    /// [`DomainBackend`]: the plain [`DomainHost`](crate::DomainHost),
    /// a [`DurableHost`](crate::DurableHost), or a test double.
    ///
    /// With a replay `recorder`, every multicast, fault, virtual-time
    /// pump, and the final domain digest are appended to it in the exact
    /// order the domain thread applies them — the domain half of a
    /// record/replay log.
    pub(crate) fn start<B: DomainBackend>(
        registry: Arc<Registry>,
        host: impl FnOnce() -> ftd_core::Result<B> + Send + 'static,
        recorder: Option<Arc<ftd_replay::Recorder>>,
    ) -> ftd_core::Result<DomainService> {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(DomainSharedState {
            healthy: AtomicBool::new(true),
            view: Mutex::new(Arc::new(RecordedView::default())),
        });
        let (ready_tx, ready_rx) = mpsc::channel::<ftd_core::Result<()>>();
        let thread_shared = shared.clone();
        let thread = thread::Builder::new()
            .name("ftd-domain".into())
            .spawn(move || {
                let mut host = match host() {
                    Ok(host) => {
                        let _ = ready_tx.send(Ok(()));
                        host
                    }
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return;
                    }
                };
                host.bind_stats(registry.clone());
                domain_loop(rx, host, thread_shared, registry, recorder);
            })
            .map_err(Error::Io)?;

        // The domain must be up before any gateway advertises itself:
        // surface bring-up failures here, not as a serving black hole.
        match ready_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = thread.join();
                return Err(e);
            }
            Err(_) => {
                let _ = thread.join();
                return Err(Error::config("domain thread died during bring-up"));
            }
        }
        Ok(DomainService {
            link: DomainLink { tx, shared },
            thread: Some(thread),
        })
    }

    /// A handle to this domain for the gateway's threads.
    pub(crate) fn link(&self) -> DomainLink {
        self.link.clone()
    }

    /// Stops the domain thread and joins it (idempotent).
    pub(crate) fn shutdown(&mut self) {
        let _ = self.link.tx.send(DomainCmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DomainService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn route_deliveries(deliveries: Vec<(GroupId, Vec<u8>)>, sink: &mut Option<DeliverySink>) {
    if let Some(sink) = sink {
        if !deliveries.is_empty() {
            sink(deliveries);
        }
    }
}

fn domain_loop<B: DomainBackend>(
    rx: Receiver<DomainCmd>,
    mut host: B,
    shared: Arc<DomainSharedState>,
    registry: Arc<Registry>,
    recorder: Option<Arc<ftd_replay::Recorder>>,
) {
    let rec = |event: &ftd_replay::ReplayEvent| {
        if let Some(r) = &recorder {
            r.record(event);
        }
    };
    let mut sink: Option<DeliverySink> = None;
    let health_gauge = registry.gauge(names::GATEWAY_HEALTH);
    let mut published: Option<(bool, HostView)> = None;
    let mut next_tick = Instant::now() + TICK_REAL;
    loop {
        // Drain, then pump. Whatever is queued is applied without
        // blocking and the domain is pumped at once: under load pumps run
        // back to back, each on all the input that arrived during the one
        // before, and the thread never sleeps — or pumps — past a queued
        // command. Only an empty queue waits, for the first command or
        // the `TICK_REAL` boundary, whichever comes first; the boundary
        // is the idle cadence that keeps ring timers, `maintain()` and
        // the health gauge moving. Ordered deliveries therefore surface
        // one pump, not one tick, after the multicasts that caused them,
        // and what a shard's admission window bounds is the invocations
        // it overlaps into one pump.
        let mut stop = false;
        let mut disconnected = false;
        let mut quiesce_acks = Vec::new();
        let mut applied = false;
        loop {
            let cmd = match rx.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
                Err(TryRecvError::Empty) => {
                    let now = Instant::now();
                    if applied || now >= next_tick {
                        break;
                    }
                    match rx.recv_timeout(next_tick - now) {
                        Ok(cmd) => cmd,
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
            };
            applied = true;
            match cmd {
                DomainCmd::Multicast(group, payload) => {
                    rec(&ftd_replay::ReplayEvent::DomainMulticast {
                        group: group.0,
                        payload: payload.clone(),
                    });
                    host.multicast(group, payload)
                }
                DomainCmd::Chaos(DomainFault::CrashProcessor(i)) => {
                    rec(&ftd_replay::ReplayEvent::DomainCrash { index: i as u32 });
                    host.crash_processor(i);
                }
                DomainCmd::Chaos(DomainFault::RecoverProcessor(i)) => {
                    rec(&ftd_replay::ReplayEvent::DomainRecover { index: i as u32 });
                    host.recover_processor(i);
                }
                DomainCmd::Register(new) => sink = Some(new),
                DomainCmd::Quiesce(ack) => quiesce_acks.push(ack),
                DomainCmd::Export(ack) => {
                    let _ = ack.send(host.export_groups());
                }
                DomainCmd::Restore(groups, ack) => {
                    let _ = ack.send(host.install_groups(&groups));
                }
                DomainCmd::Shutdown => stop = true,
            }
        }
        if disconnected {
            break;
        }
        next_tick = Instant::now() + TICK_REAL;

        // Advance the virtual clock and push the pump's ordered
        // deliveries out to the shard queues in one batch: the sink
        // rings each shard that got one exactly once, so a shard asleep
        // in poll(2) answers now, not at its next poll timeout. Durable
        // backends take their checkpoint opportunity once the tick's
        // deliveries are routed.
        rec(&ftd_replay::ReplayEvent::DomainTick {
            micros: TICK_VIRTUAL.as_micros(),
        });
        route_deliveries(host.pump(TICK_VIRTUAL), &mut sink);
        host.maintain();

        if !quiesce_acks.is_empty() {
            // Drain: keep pumping until the domain goes quiet for a few
            // consecutive ticks (bounded), so in-flight invocations
            // produce their replies before the requester shuts its
            // shards down.
            let mut idle = 0u32;
            for _ in 0..400 {
                if idle >= 5 {
                    break;
                }
                rec(&ftd_replay::ReplayEvent::DomainTick {
                    micros: TICK_VIRTUAL.as_micros(),
                });
                let more = host.pump(TICK_VIRTUAL);
                if more.is_empty() {
                    idle += 1;
                } else {
                    idle = 0;
                    route_deliveries(more, &mut sink);
                }
            }
            for ack in quiesce_acks {
                let _ = ack.send(());
            }
        }

        // Re-assess serving health: degraded while the ring is broken,
        // recovered the tick it heals.
        let current = (host.is_operational(), host.view());
        if published.as_ref() != Some(&current) {
            shared.healthy.store(current.0, Ordering::SeqCst);
            health_gauge.set(current.0 as i64);
            *shared.view.lock().expect("view lock") = Arc::new(recorded_view(&current.1));
            published = Some(current);
        }

        if stop {
            break;
        }
    }

    // Close the domain half of the recording with its digest — the
    // replayer compares its rebuilt world against exactly this.
    if recorder.is_some() {
        let state = host.state_bytes();
        rec(&ftd_replay::ReplayEvent::DomainDigest {
            digest: ftd_replay::hash_domain_state(&state),
            groups: state.len() as u32,
        });
    }
}

/// Snapshots a [`HostView`] into the value type shards consult and the
/// replay log stores inline with each engine event.
fn recorded_view(view: &HostView) -> RecordedView {
    let (peers, votes, replicas) = view.parts();
    RecordedView {
        peers: peers as u32,
        votes,
        replicas: replicas.into_iter().map(|(g, n)| (g, n as u32)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Seen {
        Multicast(Vec<u8>),
        Pump(u32),
    }

    /// A backend that logs what the loop does to it. While `feedback` is
    /// set, every pump queues three multicasts tagged with its own number
    /// *during* the pump; a multicast surfaces as a delivery `delay`
    /// pumps after it was applied. `operational` is what it answers the
    /// health check with.
    struct Scripted {
        log: Arc<Mutex<Vec<Seen>>>,
        feedback: Arc<OnceLock<DomainLink>>,
        operational: Arc<AtomicBool>,
        pump_time: Duration,
        delay: u32,
        pumps: u32,
        pending: Vec<(u32, GroupId, Vec<u8>)>,
    }

    impl DomainBackend for Scripted {
        fn domain(&self) -> u32 {
            1
        }
        fn gateway_group(&self) -> GroupId {
            GroupId(0x4000_0001)
        }
        fn is_operational(&self) -> bool {
            self.operational.load(Ordering::SeqCst)
        }
        fn multicast(&mut self, group: GroupId, payload: Vec<u8>) {
            self.log
                .lock()
                .unwrap()
                .push(Seen::Multicast(payload.clone()));
            self.pending.push((self.pumps + self.delay, group, payload));
        }
        fn pump(&mut self, _d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
            self.pumps += 1;
            self.log.lock().unwrap().push(Seen::Pump(self.pumps));
            if let Some(link) = self.feedback.get() {
                for i in 0..3u8 {
                    link.multicast(GroupId(7), vec![self.pumps as u8, i]);
                }
            }
            thread::sleep(self.pump_time);
            let due = self.pumps;
            let (ready, later) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|(at, _, _)| *at <= due);
            self.pending = later;
            ready.into_iter().map(|(_, g, p)| (g, p)).collect()
        }
        fn view(&self) -> HostView {
            HostView::default()
        }
        fn crash_processor(&mut self, _index: usize) -> bool {
            false
        }
        fn recover_processor(&mut self, _index: usize) -> bool {
            false
        }
        fn bind_stats(&mut self, _registry: Arc<Registry>) {}
    }

    struct Harness {
        service: DomainService,
        log: Arc<Mutex<Vec<Seen>>>,
        feedback: Arc<OnceLock<DomainLink>>,
        operational: Arc<AtomicBool>,
    }

    fn start(pump_time: Duration, delay: u32) -> Harness {
        let log = Arc::new(Mutex::new(Vec::new()));
        let feedback = Arc::new(OnceLock::new());
        let operational = Arc::new(AtomicBool::new(true));
        let (thread_log, thread_feedback, thread_operational) =
            (log.clone(), feedback.clone(), operational.clone());
        let factory = move || {
            Ok(Scripted {
                log: thread_log,
                feedback: thread_feedback,
                operational: thread_operational,
                pump_time,
                delay,
                pumps: 0,
                pending: Vec::new(),
            })
        };
        let service =
            DomainService::start(Arc::new(Registry::new()), factory, None).expect("domain starts");
        Harness {
            service,
            log,
            feedback,
            operational,
        }
    }

    #[test]
    fn multicasts_queued_during_a_pump_are_applied_before_the_next_pump() {
        // Pumps longer than TICK_REAL: the loop comes around already past
        // the tick boundary, with input waiting.
        let mut h = start(Duration::from_millis(2), 0);
        assert!(h.feedback.set(h.service.link()).is_ok(), "set once");
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.log.lock().unwrap().len() < 80 {
            assert!(Instant::now() < deadline, "domain thread stalled");
            thread::sleep(Duration::from_millis(1));
        }
        h.service.shutdown();
        let log = h.log.lock().unwrap();
        let mut fed_back = 0;
        for (i, seen) in log.iter().enumerate() {
            let Seen::Pump(n) = seen else { continue };
            let Some(next) = log[i + 1..].iter().position(|s| matches!(s, Seen::Pump(_))) else {
                break;
            };
            let between = &log[i + 1..i + 1 + next];
            if between.is_empty() && fed_back == 0 {
                continue; // pumps before the feedback link was set
            }
            let expected: Vec<Seen> = (0..3u8)
                .map(|k| Seen::Multicast(vec![*n as u8, k]))
                .collect();
            assert_eq!(between, expected, "input applied after pump {n}");
            fed_back += 1;
        }
        assert!(fed_back >= 10, "only {fed_back} pumps checked");
    }

    #[test]
    fn an_idle_service_pumps_about_once_per_tick() {
        let mut h = start(Duration::ZERO, 0);
        let pumps = |h: &Harness| h.log.lock().unwrap().len() as u128;
        let (t0, n0) = (Instant::now(), pumps(&h));
        thread::sleep(Duration::from_millis(100));
        let (elapsed, n) = (t0.elapsed(), pumps(&h) - n0);
        // The idle pumps keep re-reading the backend's health.
        let link = h.service.link();
        for operational in [false, true] {
            h.operational.store(operational, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while link.healthy() != operational {
                assert!(
                    Instant::now() < deadline,
                    "health never became {operational}"
                );
                thread::sleep(Duration::from_millis(1));
            }
        }
        h.service.shutdown();
        // Never faster than the tick; slower only as far as a loaded
        // test machine delays the wake-ups.
        assert!(
            n <= elapsed.as_millis() + 1,
            "{n} pumps in {elapsed:?}: the idle loop spins"
        );
        assert!(n >= 20, "{n} pumps in {elapsed:?}: the idle loop stalls");
    }

    #[test]
    fn quiesce_pumps_until_in_flight_deliveries_are_routed() {
        let mut h = start(Duration::ZERO, 4);
        let link = h.service.link();
        let (tx, rx) = mpsc::channel();
        link.register_sink(Box::new(move |batch| {
            let _ = tx.send(batch);
        }));
        link.multicast(GroupId(9), b"in flight".to_vec());
        link.quiesce(Duration::from_secs(10));
        // No waiting here: the delivery was routed before the ack.
        assert_eq!(rx.try_recv(), Ok(vec![(GroupId(9), b"in flight".to_vec())]));
        h.service.shutdown();
    }
}
