//! Integration tests for the simulated transports: TCP lifecycle, ordering,
//! crash/recovery, partitions, multicast loss, and whole-run determinism.

use ftd_sim::*;

/// Echo server: accepts connections, echoes every chunk back.
struct Echo {
    port: u16,
    accepted: u32,
    closed: u32,
}

impl Echo {
    fn new(port: u16) -> Self {
        Echo {
            port,
            accepted: 0,
            closed: 0,
        }
    }
}

impl Actor for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.tcp_listen(self.port).expect("port free");
    }
    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Accepted { .. } => self.accepted += 1,
            TcpEvent::Data { conn, bytes } => {
                let _ = ctx.tcp_send(conn, bytes);
            }
            TcpEvent::Closed { .. } => self.closed += 1,
            _ => {}
        }
    }
}

/// Client that sends `n` numbered chunks on connect and records replies.
struct Burst {
    server: NetAddr,
    n: u8,
    received: Vec<Vec<u8>>,
    connect_failed: bool,
    closed: bool,
}

impl Burst {
    fn new(server: NetAddr, n: u8) -> Self {
        Burst {
            server,
            n,
            received: Vec::new(),
            connect_failed: false,
            closed: false,
        }
    }
}

impl Actor for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.tcp_connect(self.server).expect("not self");
    }
    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Connected { conn } => {
                for i in 0..self.n {
                    let _ = ctx.tcp_send(conn, vec![i; 3]);
                }
            }
            TcpEvent::ConnectFailed { .. } => self.connect_failed = true,
            TcpEvent::Data { .. } if self.closed => panic!("data after close"),
            TcpEvent::Data { bytes, .. } => self.received.push(bytes),
            TcpEvent::Closed { .. } => self.closed = true,
            TcpEvent::Accepted { .. } => {}
        }
    }
}

fn duo(seed: u64) -> (World, ProcessorId, ProcessorId) {
    let mut world = World::new(seed);
    let lan = world.add_lan(LanConfig::default());
    let server = world.add_processor("server", lan, |_| Box::new(Echo::new(4000)));
    let addr = NetAddr::new(server, 4000);
    let client = world.add_processor("client", lan, move |_| Box::new(Burst::new(addr, 5)));
    (world, server, client)
}

#[test]
fn tcp_echo_round_trip_preserves_order() {
    let (mut world, server, client) = duo(1);
    world.run_for(SimDuration::from_millis(50));
    let echo: &Echo = world.actor(server).unwrap();
    assert_eq!(echo.accepted, 1);
    let burst: &Burst = world.actor(client).unwrap();
    let flat: Vec<u8> = burst.received.iter().flatten().copied().collect();
    assert_eq!(flat, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]);
}

#[test]
fn connect_to_missing_listener_fails() {
    let mut world = World::new(2);
    let lan = world.add_lan(LanConfig::default());
    let silent = world.add_processor("silent", lan, |_| Box::new(Echo::new(9)));
    // Connect to a port nobody listens on.
    let addr = NetAddr::new(silent, 4321);
    let client = world.add_processor("client", lan, move |_| Box::new(Burst::new(addr, 1)));
    world.run_for(SimDuration::from_millis(50));
    let burst: &Burst = world.actor(client).unwrap();
    assert!(burst.connect_failed);
    assert!(burst.received.is_empty());
}

#[test]
fn connect_to_crashed_processor_fails() {
    let (mut world, server, client) = duo(3);
    world.crash(server);
    world.run_for(SimDuration::from_millis(50));
    let burst: &Burst = world.actor(client).unwrap();
    assert!(burst.connect_failed || burst.closed);
}

#[test]
fn server_crash_closes_client_connection() {
    let (mut world, server, client) = duo(4);
    world.run_for(SimDuration::from_millis(5));
    world.crash(server);
    world.run_for(SimDuration::from_millis(50));
    let burst: &Burst = world.actor(client).unwrap();
    assert!(burst.closed, "client must observe the break");
}

#[test]
fn crashed_actor_state_is_lost_and_rebuilt_on_recover() {
    let (mut world, server, _client) = duo(5);
    world.run_for(SimDuration::from_millis(20));
    assert_eq!(world.actor::<Echo>(server).unwrap().accepted, 1);
    world.crash(server);
    assert!(world.actor::<Echo>(server).is_none());
    assert!(world.is_crashed(server));
    world.recover(server);
    assert!(!world.is_crashed(server));
    // Fresh instance: counter reset, listener re-established by on_start.
    world.run_for(SimDuration::from_millis(1));
    assert_eq!(world.actor::<Echo>(server).unwrap().accepted, 0);
}

#[test]
fn partition_breaks_connection_and_heal_allows_new_ones() {
    let (mut world, server, client) = duo(6);
    world.run_for(SimDuration::from_millis(5));
    world.partition(&[&[server], &[client]]);
    // Client sends more data: post triggers nothing, but the echo in flight
    // breaks the connection on the next send attempt. Reconnect after heal.
    world.run_for(SimDuration::from_millis(50));
    world.heal();
    let addr = NetAddr::new(server, 4000);
    let client2 = world.add_processor("client2", world_lan(&world), move |_| {
        Box::new(Burst::new(addr, 2))
    });
    world.run_for(SimDuration::from_millis(50));
    let burst: &Burst = world.actor(client2).unwrap();
    assert_eq!(burst.received.iter().flatten().count(), 6);
}

/// All processors share LAN 0 in these tests.
fn world_lan(_world: &World) -> LanId {
    LanId(0)
}

struct Beacon {
    heard: Vec<(ProcessorId, Vec<u8>)>,
    chirp: bool,
}

impl Actor for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.chirp {
            ctx.set_timer(SimDuration::from_micros(10), 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        ctx.lan_multicast(b"beacon".to_vec());
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, dgram: Datagram) {
        self.heard.push((dgram.from, dgram.payload.to_vec()));
    }
}

#[test]
fn multicast_reaches_all_lan_members_including_sender() {
    let mut world = World::new(7);
    let lan = world.add_lan(LanConfig::default());
    let mk = |chirp: bool| {
        move |_| -> Box<dyn Actor> {
            Box::new(Beacon {
                heard: Vec::new(),
                chirp,
            })
        }
    };
    let a = world.add_processor("a", lan, mk(true));
    let b = world.add_processor("b", lan, mk(false));
    let c = world.add_processor("c", lan, mk(false));
    world.run_for(SimDuration::from_millis(5));
    for p in [a, b, c] {
        let beacon: &Beacon = world.actor(p).unwrap();
        assert_eq!(beacon.heard.len(), 1, "{p} heard {:?}", beacon.heard);
        assert_eq!(beacon.heard[0].0, a);
    }
}

#[test]
fn multicast_does_not_cross_lan_segments() {
    let mut world = World::new(8);
    let lan1 = world.add_lan(LanConfig::default());
    let lan2 = world.add_lan(LanConfig::default());
    let mk = |chirp: bool| {
        move |_| -> Box<dyn Actor> {
            Box::new(Beacon {
                heard: Vec::new(),
                chirp,
            })
        }
    };
    world.add_processor("a", lan1, mk(true));
    let far = world.add_processor("far", lan2, mk(false));
    world.run_for(SimDuration::from_millis(5));
    assert!(world.actor::<Beacon>(far).unwrap().heard.is_empty());
}

#[test]
fn lossy_lan_drops_a_predictable_fraction() {
    let mut world = World::new(9);
    let lan = world.add_lan(LanConfig {
        loss_probability: 0.5,
        ..LanConfig::default()
    });
    struct Spammer;
    impl Actor for Spammer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            ctx.lan_multicast(vec![0]);
            if tag < 999 {
                ctx.set_timer(SimDuration::from_micros(1), tag + 1);
            }
        }
    }
    world.add_processor("tx", lan, |_| Box::new(Spammer));
    let rx = world.add_processor("rx", lan, |_| {
        Box::new(Beacon {
            heard: Vec::new(),
            chirp: false,
        })
    });
    world.run_for(SimDuration::from_millis(100));
    let heard = world.actor::<Beacon>(rx).unwrap().heard.len();
    assert!(
        (300..700).contains(&heard),
        "expected ~500 of 1000 datagrams, got {heard}"
    );
    assert!(world.stats().counter("net.datagrams_lost") > 0);
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let run = |seed: u64| -> (u64, Vec<Vec<u8>>, u64) {
        let (mut world, _server, client) = duo(seed);
        world.run_for(SimDuration::from_millis(50));
        let burst: &Burst = world.actor(client).unwrap();
        (
            world.events_dispatched(),
            burst.received.clone(),
            world.stats().counter("net.tcp_chunks_delivered"),
        )
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn different_seeds_still_deliver_everything() {
    for seed in 0..5 {
        let (mut world, _server, client) = duo(seed);
        world.run_for(SimDuration::from_millis(50));
        let burst: &Burst = world.actor(client).unwrap();
        assert_eq!(burst.received.iter().flatten().count(), 15);
    }
}

#[test]
fn timers_cancelled_do_not_fire() {
    struct Canceller {
        fired: bool,
    }
    impl Actor for Canceller {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let t = ctx.set_timer(SimDuration::from_millis(1), 7);
            ctx.cancel_timer(t);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {
            self.fired = true;
        }
    }
    let mut world = World::new(10);
    let lan = world.add_lan(LanConfig::default());
    let p = world.add_processor("p", lan, |_| Box::new(Canceller { fired: false }));
    world.run_for(SimDuration::from_millis(10));
    assert!(!world.actor::<Canceller>(p).unwrap().fired);
}

#[test]
fn post_delivers_user_events() {
    struct Sink {
        tags: Vec<u64>,
    }
    impl Actor for Sink {
        fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
            self.tags.push(tag);
        }
    }
    let mut world = World::new(11);
    let lan = world.add_lan(LanConfig::default());
    let p = world.add_processor("p", lan, |_| Box::new(Sink { tags: Vec::new() }));
    world.post(p, 1);
    world.post_at(SimTime::from_millis(2), p, 2);
    world.run_for(SimDuration::from_millis(10));
    assert_eq!(world.actor::<Sink>(p).unwrap().tags, vec![1, 2]);
}

#[test]
fn self_connect_is_rejected() {
    struct SelfConn {
        err: Option<TcpError>,
    }
    impl Actor for SelfConn {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.err = ctx.tcp_connect(NetAddr::new(ctx.me(), 80)).err();
        }
    }
    let mut world = World::new(12);
    let lan = world.add_lan(LanConfig::default());
    let p = world.add_processor("p", lan, |_| Box::new(SelfConn { err: None }));
    world.run_for(SimDuration::from_millis(1));
    assert_eq!(
        world.actor::<SelfConn>(p).unwrap().err,
        Some(TcpError::SelfConnect)
    );
}

#[test]
fn stale_events_do_not_reach_recovered_incarnation() {
    // A timer set by the first incarnation must not fire in the second.
    struct TimerHolder {
        fired: u32,
    }
    impl Actor for TimerHolder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {
            self.fired += 1;
        }
    }
    let mut world = World::new(13);
    let lan = world.add_lan(LanConfig::default());
    let p = world.add_processor("p", lan, |_| Box::new(TimerHolder { fired: 0 }));
    world.run_for(SimDuration::from_millis(1));
    world.crash(p);
    world.recover(p);
    world.run_for(SimDuration::from_millis(30));
    // Only the recovered incarnation's own timer fires (once).
    assert_eq!(world.actor::<TimerHolder>(p).unwrap().fired, 1);
}

#[test]
fn data_sent_before_close_still_drains() {
    // TCP half-close: a sender that writes then immediately closes must
    // not lose the written bytes (the gateway's MessageError-then-close
    // path depends on this).
    struct SendThenClose {
        peer: NetAddr,
    }
    impl Actor for SendThenClose {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.tcp_connect(self.peer).expect("not self");
        }
        fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
            if let TcpEvent::Connected { conn } = ev {
                let _ = ctx.tcp_send(conn, b"parting words".to_vec());
                let _ = ctx.tcp_close(conn);
            }
        }
    }
    struct Sink {
        got: Vec<u8>,
        closed: bool,
    }
    impl Actor for Sink {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.tcp_listen(80).expect("fresh");
        }
        fn on_tcp(&mut self, _ctx: &mut Context<'_>, ev: TcpEvent) {
            match ev {
                TcpEvent::Data { bytes, .. } => {
                    assert!(!self.closed, "data after close event");
                    self.got.extend(bytes);
                }
                TcpEvent::Closed { .. } => self.closed = true,
                _ => {}
            }
        }
    }
    let mut world = World::new(20);
    let lan = world.add_lan(LanConfig::default());
    let sink = world.add_processor("sink", lan, |_| {
        Box::new(Sink {
            got: Vec::new(),
            closed: false,
        })
    });
    let peer = NetAddr::new(sink, 80);
    world.add_processor("tx", lan, move |_| Box::new(SendThenClose { peer }));
    world.run_for(SimDuration::from_millis(20));
    let s = world.actor::<Sink>(sink).unwrap();
    assert_eq!(s.got, b"parting words");
    assert!(s.closed, "close must follow the data");
}

#[test]
fn sender_cannot_write_after_its_own_close() {
    struct Loud {
        peer: NetAddr,
        second_send: Option<Result<(), TcpError>>,
    }
    impl Actor for Loud {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.tcp_connect(self.peer).expect("not self");
        }
        fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
            if let TcpEvent::Connected { conn } = ev {
                let _ = ctx.tcp_close(conn);
                self.second_send = Some(ctx.tcp_send(conn, vec![1]));
            }
        }
    }
    let mut world = World::new(21);
    let lan = world.add_lan(LanConfig::default());
    let sink = world.add_processor("sink", lan, |_| Box::new(Echo::new(80)));
    let peer = NetAddr::new(sink, 80);
    let tx = world.add_processor("tx", lan, move |_| {
        Box::new(Loud {
            peer,
            second_send: None,
        })
    });
    world.run_for(SimDuration::from_millis(20));
    let loud = world.actor::<Loud>(tx).unwrap();
    assert!(matches!(
        loud.second_send,
        Some(Err(TcpError::NotConnected(_)))
    ));
}

#[test]
fn peer_can_keep_sending_after_half_close() {
    // The side that did NOT close may keep writing until it closes too.
    struct HalfCloser {
        peer: NetAddr,
        pub received: Vec<u8>,
    }
    impl Actor for HalfCloser {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.tcp_connect(self.peer).expect("not self");
        }
        fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
            match ev {
                TcpEvent::Connected { conn } => {
                    let _ = ctx.tcp_send(conn, b"request".to_vec());
                    let _ = ctx.tcp_close(conn); // write side closed
                }
                TcpEvent::Data { bytes, .. } => self.received.extend(bytes),
                _ => {}
            }
        }
    }
    let mut world = World::new(22);
    let lan = world.add_lan(LanConfig::default());
    let server = world.add_processor("server", lan, |_| Box::new(Echo::new(80)));
    let peer = NetAddr::new(server, 80);
    let client = world.add_processor("client", lan, move |_| {
        Box::new(HalfCloser {
            peer,
            received: Vec::new(),
        })
    });
    world.run_for(SimDuration::from_millis(20));
    // The echo server answered even though the client closed its write
    // side before the echo arrived.
    let c = world.actor::<HalfCloser>(client).unwrap();
    assert_eq!(c.received, b"request");
}
