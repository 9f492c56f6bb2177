//! Integration tests of the Totem ring: total order, reliability under
//! datagram loss, membership reformation on crash and recovery, the group
//! directory, and safe delivery.

use ftd_sim::*;
use ftd_totem::*;

const APP_GROUP: GroupId = GroupId(100);

/// Host actor: joins `APP_GROUP`, sends `to_send` numbered messages spread
/// over time, records all deliveries and membership views.
struct Host {
    totem: TotemNode,
    to_send: u32,
    sent: u32,
    delivered: Vec<(u64, ProcessorId, Vec<u8>)>,
    memberships: Vec<MembershipView>,
    gaps: u32,
    /// Fault injection: discard the next `Regular` datagram that reaches
    /// this host (as if the LAN lost this one receiver's copy).
    drop_next_regular: bool,
}

impl Host {
    fn new(me: ProcessorId, config: TotemConfig, to_send: u32) -> Self {
        Host {
            totem: TotemNode::new(me, config, 1 << 48),
            to_send,
            sent: 0,
            delivered: Vec::new(),
            memberships: Vec::new(),
            gaps: 0,
            drop_next_regular: false,
        }
    }

    fn drain(&mut self) {
        for ev in self.totem.take_events() {
            match ev {
                TotemEvent::Deliver(m) => {
                    self.delivered.push((m.seq, m.sender, m.payload.to_vec()))
                }
                TotemEvent::Membership(v) => self.memberships.push(v),
                TotemEvent::Gap { .. } => self.gaps += 1,
            }
        }
    }
}

const SEND_TICK: u64 = 1;
const EXTRA_TICK: u64 = 2;

impl Actor for Host {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.totem.start(ctx);
        self.totem.join_group(APP_GROUP);
        if self.to_send > 0 {
            ctx.set_timer(SimDuration::from_micros(500), SEND_TICK);
        }
        self.drain();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if self.totem.on_timer(ctx, tag) {
            self.drain();
            return;
        }
        if tag == EXTRA_TICK {
            self.totem
                .multicast(APP_GROUP, format!("extra:{}", ctx.me().0).into_bytes());
        }
        if tag == SEND_TICK && self.sent < self.to_send {
            let payload = format!("{}:{}", ctx.me().0, self.sent).into_bytes();
            self.totem.multicast(APP_GROUP, payload);
            self.sent += 1;
            if self.sent < self.to_send {
                ctx.set_timer(SimDuration::from_micros(200), SEND_TICK);
            }
        }
        self.totem.release_hold(ctx);
        self.drain();
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        if self.drop_next_regular
            && matches!(TotemMsg::decode(&dgram.payload), Ok(TotemMsg::Regular(_)))
        {
            self.drop_next_regular = false;
            return;
        }
        self.totem.on_datagram(ctx, &dgram);
        self.drain();
    }
}

fn build(
    n: u32,
    seed: u64,
    loss: f64,
    config: TotemConfig,
    to_send: u32,
) -> (World, Vec<ProcessorId>) {
    let mut world = World::new(seed);
    let lan = world.add_lan(LanConfig {
        loss_probability: loss,
        ..LanConfig::default()
    });
    let procs: Vec<ProcessorId> = (0..n)
        .map(|i| {
            world.add_processor(&format!("p{i}"), lan, move |me| {
                Box::new(Host::new(me, config, to_send))
            })
        })
        .collect();
    (world, procs)
}

fn sequences(world: &World, procs: &[ProcessorId]) -> Vec<Vec<(u64, ProcessorId, Vec<u8>)>> {
    procs
        .iter()
        .map(|&p| world.actor::<Host>(p).expect("alive").delivered.clone())
        .collect()
}

#[test]
fn ring_forms_and_becomes_operational() {
    let (mut world, procs) = build(3, 1, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert!(host.totem.is_operational(), "{p} not operational");
        assert_eq!(host.totem.ring(), procs.as_slice());
        assert!(!host.memberships.is_empty());
    }
}

#[test]
fn all_members_deliver_identical_total_order() {
    let (mut world, procs) = build(4, 2, 0.0, TotemConfig::default(), 10);
    world.run_for(SimDuration::from_millis(200));
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 40, "all 40 messages delivered");
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other, "delivery sequences diverge");
    }
    // Sequence numbers are strictly increasing.
    for w in seqs[0].windows(2) {
        assert!(w[0].0 < w[1].0);
    }
}

#[test]
fn total_order_survives_heavy_datagram_loss() {
    let (mut world, procs) = build(3, 3, 0.15, TotemConfig::default(), 8);
    world.run_for(SimDuration::from_secs(3));
    let seqs = sequences(&world, &procs);
    assert_eq!(
        seqs[0].len(),
        24,
        "reliable delivery despite 15% loss (got {})",
        seqs[0].len()
    );
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other);
    }
    assert!(world.stats().counter("totem.retransmissions") > 0);
}

#[test]
fn lossless_ring_never_retransmits() {
    // On a jittered but lossless LAN the token regularly overtakes the
    // broadcast it follows. A message that is merely still in flight must
    // not be requested: no retransmissions, no duplicate receipts.
    // Counted from a formed ring on: formation itself rebroadcasts.
    let (mut world, procs) = build(4, 12, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    let before = world.stats().clone();
    let since = |world: &World, name: &str| world.stats().counter(name) - before.counter(name);
    for &p in &procs {
        world.actor_mut::<Host>(p).unwrap().to_send = 75;
        world.post(p, SEND_TICK);
    }
    world.run_for(SimDuration::from_millis(200));
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 300, "all 300 messages delivered");
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other, "delivery sequences diverge");
    }
    assert_eq!(since(&world, "totem.broadcasts"), 300);
    assert_eq!(since(&world, "totem.retransmissions"), 0);
    // The LAN loops a multicast back to its sender, which already holds
    // the message: those copies are the only duplicates.
    assert_eq!(since(&world, "totem.duplicate_regulars"), 300);
}

#[test]
fn single_lost_datagram_is_recovered_within_two_rotations() {
    let (mut world, procs) = build(4, 13, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    let victim = procs[2];
    world.actor_mut::<Host>(victim).unwrap().drop_next_regular = true;
    world.post(procs[1], EXTRA_TICK);
    // Step finely to the moment the victim's copy is discarded, then to
    // the moment the retransmitted copy is delivered there.
    let step = SimDuration::from_micros(10);
    for _ in 0..1_000 {
        if !world.actor::<Host>(victim).unwrap().drop_next_regular {
            break;
        }
        world.run_for(step);
    }
    assert!(!world.actor::<Host>(victim).unwrap().drop_next_regular);
    let rotations_at_loss = world.stats().counter("totem.token_rotations");
    for _ in 0..1_000 {
        if !world.actor::<Host>(victim).unwrap().delivered.is_empty() {
            break;
        }
        world.run_for(step);
    }
    let rotations_to_recover = world.stats().counter("totem.token_rotations") - rotations_at_loss;
    assert!(
        rotations_to_recover <= 2,
        "recovery took {rotations_to_recover} rotations"
    );
    assert_eq!(world.stats().counter("totem.retransmissions"), 1);
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 1);
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other);
    }
}

#[test]
fn retained_messages_stay_bounded_by_the_retention_slack() {
    let config = TotemConfig::default();
    let per_node = 3 * config.retention_slack as u32 / 4;
    let (mut world, procs) = build(4, 14, 0.0, config, 0);
    world.run_for(SimDuration::from_millis(20));
    for &p in &procs {
        inject_burst(&mut world, p, per_node);
    }
    world.run_for(SimDuration::from_millis(200));
    let total = 4 * u64::from(per_node);
    let one_rotation = (procs.len() * config.max_messages_per_token) as u64;
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert_eq!(host.delivered.len() as u64, total, "{p} delivered");
        let retained = host.totem.retained() as u64;
        assert!(
            retained <= config.retention_slack + one_rotation,
            "{p} retains {retained} messages"
        );
        assert!(
            host.totem.gc_floor() + config.retention_slack + one_rotation >= total,
            "{p} gc floor stuck at {}",
            host.totem.gc_floor()
        );
        // Exactly the window above the floor is kept: nothing at or
        // below it survives, nothing above it was dropped.
        assert_eq!(
            retained,
            host.totem.received_up_to() - host.totem.gc_floor(),
            "{p} retained set"
        );
    }
}

#[test]
fn group_directory_converges() {
    let (mut world, procs) = build(3, 4, 0.0, TotemConfig::default(), 1);
    world.run_for(SimDuration::from_millis(50));
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert_eq!(
            host.totem.group_members(APP_GROUP),
            procs.clone(),
            "directory at {p}"
        );
    }
}

#[test]
fn crash_of_member_reforms_ring_and_delivery_continues() {
    let (mut world, procs) = build(4, 5, 0.0, TotemConfig::default(), 4);
    world.run_for(SimDuration::from_millis(30)); // everything delivered
    world.crash(procs[2]);
    world.run_for(SimDuration::from_millis(60)); // reformation
    let survivors = [procs[0], procs[1], procs[3]];
    for &p in &survivors {
        let host: &Host = world.actor(p).unwrap();
        assert!(host.totem.is_operational());
        assert_eq!(host.totem.ring(), &survivors);
    }
    // Survivors can still multicast and deliver identically.
    for &p in &survivors {
        world.post(p, EXTRA_TICK);
    }
    world.run_for(SimDuration::from_millis(60));
    let seqs: Vec<_> = survivors
        .iter()
        .map(|&p| world.actor::<Host>(p).unwrap().delivered.clone())
        .collect();
    assert_eq!(seqs[0], seqs[1]);
    assert_eq!(seqs[0], seqs[2]);
    assert_eq!(seqs[0].len(), 16 + 3);
}

#[test]
fn crash_during_traffic_loses_no_survivor_messages() {
    // Crash a member mid-burst; every message a survivor delivered must be
    // delivered by all survivors, in the same order.
    let (mut world, procs) = build(4, 6, 0.05, TotemConfig::default(), 30);
    world.run_for(SimDuration::from_millis(3));
    world.crash(procs[1]);
    world.run_for(SimDuration::from_secs(3));
    let survivors = [procs[0], procs[2], procs[3]];
    let seqs: Vec<_> = survivors
        .iter()
        .map(|&p| world.actor::<Host>(p).unwrap().delivered.clone())
        .collect();
    assert_eq!(seqs[0], seqs[1]);
    assert_eq!(seqs[0], seqs[2]);
    // The three survivors' 90 messages all make it; the crashed member's
    // messages may or may not, but whatever was delivered is consistent.
    let from_survivors = seqs[0]
        .iter()
        .filter(|(_, sender, _)| *sender != procs[1])
        .count();
    assert_eq!(from_survivors, 90);
}

#[test]
fn recovered_processor_rejoins_the_ring() {
    let (mut world, procs) = build(3, 7, 0.0, TotemConfig::default(), 2);
    world.run_for(SimDuration::from_millis(30));
    world.crash(procs[0]);
    world.run_for(SimDuration::from_millis(60));
    world.recover(procs[0]);
    world.run_for(SimDuration::from_millis(60));
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert!(host.totem.is_operational(), "{p}");
        assert_eq!(host.totem.ring(), procs.as_slice(), "{p} ring");
    }
    // The recovered node's fresh incarnation skipped history but new
    // messages reach it.
    for &p in &procs {
        world.post(p, EXTRA_TICK);
    }
    world.run_for(SimDuration::from_millis(60));
    let recovered: &Host = world.actor(procs[0]).unwrap();
    assert!(
        !recovered.delivered.is_empty(),
        "recovered node must deliver post-rejoin traffic"
    );
    // Its deliveries must be a contiguous suffix-consistent subsequence of
    // a survivor's.
    let survivor: &Host = world.actor(procs[1]).unwrap();
    let surv = &survivor.delivered;
    let rec = &recovered.delivered;
    let start = surv
        .iter()
        .position(|e| Some(e) == rec.first())
        .expect("recovered deliveries must appear in survivor order");
    assert_eq!(&surv[start..start + rec.len()], rec.as_slice());
}

#[test]
fn safe_delivery_is_total_ordered_too() {
    let config = TotemConfig {
        delivery: DeliveryMode::Safe,
        ..TotemConfig::default()
    };
    let (mut world, procs) = build(3, 8, 0.02, config, 6);
    world.run_for(SimDuration::from_secs(2));
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 18);
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other);
    }
}

#[test]
fn single_member_ring_self_delivers() {
    let (mut world, procs) = build(1, 9, 0.0, TotemConfig::default(), 5);
    world.run_for(SimDuration::from_millis(100));
    let host: &Host = world.actor(procs[0]).unwrap();
    assert!(host.totem.is_operational());
    assert_eq!(host.delivered.len(), 5);
}

#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| {
        let (mut world, procs) = build(3, seed, 0.1, TotemConfig::default(), 6);
        world.run_for(SimDuration::from_secs(1));
        (
            world.events_dispatched(),
            sequences(&world, &procs),
            world.stats().counter("totem.token_hops"),
        )
    };
    assert_eq!(run(77), run(77));
}

#[test]
fn flow_control_backlog_drains() {
    // Queue far more messages than one token visit allows.
    let (mut world, procs) = build(2, 10, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    {
        // Inject 100 messages at once via direct access.
        let host = world.actor_mut::<Host>(procs[0]).unwrap();
        host.to_send = 0;
        for i in 0..100u32 {
            host.totem.multicast(APP_GROUP, i.to_be_bytes().to_vec());
        }
    }
    world.run_for(SimDuration::from_millis(200));
    let a: &Host = world.actor(procs[0]).unwrap();
    let b: &Host = world.actor(procs[1]).unwrap();
    assert_eq!(a.totem.backlog(), 0, "backlog must drain");
    assert_eq!(a.delivered.len(), 100);
    assert_eq!(a.delivered, b.delivered);
}

/// Injects a burst of `n` messages into `proc`'s send queue at once — the
/// backlog pattern that makes token visits emit packed ring frames.
fn inject_burst(world: &mut World, proc: ProcessorId, n: u32) {
    let host = world.actor_mut::<Host>(proc).expect("alive");
    for i in 0..n {
        let payload = format!("{}:{i}", proc.0).into_bytes();
        host.totem.multicast(APP_GROUP, payload);
    }
}

#[test]
fn packed_bursts_keep_identical_total_order_and_sender_fifo() {
    // Concurrent bursts from every member, under loss, with packing on
    // (the default): all members deliver the identical total order, each
    // sender's messages stay in FIFO order, and the bursts actually
    // shared datagrams.
    let (mut world, procs) = build(3, 31, 0.02, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    for &p in &procs {
        inject_burst(&mut world, p, 40);
    }
    world.run_for(SimDuration::from_secs(3));
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 120, "every burst message delivered");
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other, "delivery sequences diverge");
    }
    for &p in &procs {
        let from_p: Vec<&Vec<u8>> = seqs[0]
            .iter()
            .filter(|(_, sender, _)| *sender == p)
            .map(|(_, _, payload)| payload)
            .collect();
        let expected: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("{}:{i}", p.0).into_bytes())
            .collect();
        assert_eq!(
            from_p,
            expected.iter().collect::<Vec<_>>(),
            "sender {p} FIFO order violated"
        );
    }
    let frames = world.stats().counter("totem.pack_frames");
    let packed = world.stats().counter("totem.pack_messages");
    assert!(frames > 0, "bursts must pack");
    assert!(
        packed >= 2 * frames,
        "packing must amortize: {packed} messages over {frames} frames"
    );
}

#[test]
fn pack_boundaries_do_not_change_what_is_delivered() {
    // The same seeded workload under different packing bounds (including
    // packing disabled) delivers the same multiset of messages, with
    // every configuration internally consistent across members. Pack
    // boundaries decide datagram sharing, never delivery content.
    let run = |max_pack_count: usize, max_pack_bytes: usize| {
        let config = TotemConfig {
            max_pack_count,
            max_pack_bytes,
            ..TotemConfig::default()
        };
        let (mut world, procs) = build(3, 32, 0.0, config, 0);
        world.run_for(SimDuration::from_millis(20));
        for &p in &procs {
            inject_burst(&mut world, p, 30);
        }
        world.run_for(SimDuration::from_secs(1));
        let seqs = sequences(&world, &procs);
        for other in &seqs[1..] {
            assert_eq!(
                &seqs[0], other,
                "members diverge at pack bounds ({max_pack_count}, {max_pack_bytes})"
            );
        }
        let mut multiset: Vec<(ProcessorId, Vec<u8>)> = seqs[0]
            .iter()
            .map(|(_, sender, payload)| (*sender, payload.clone()))
            .collect();
        multiset.sort();
        (multiset, world.stats().counter("totem.pack_frames"))
    };
    let (baseline, baseline_frames) = run(1, 8 * 1024);
    assert_eq!(baseline_frames, 0, "max_pack_count=1 disables packing");
    assert_eq!(baseline.len(), 90);
    for (count, bytes) in [(4, 8 * 1024), (16, 8 * 1024), (16, 64), (7, 100)] {
        let (delivered, frames) = run(count, bytes);
        assert_eq!(
            delivered, baseline,
            "pack bounds ({count}, {bytes}) changed delivery content"
        );
        assert!(frames > 0, "pack bounds ({count}, {bytes}) never packed");
    }
}

#[test]
fn lossy_formation_converges_without_thrash() {
    // The membership protocol must converge to one stable ring under loss
    // instead of thrashing through endless reformations.
    let (mut world, procs) = build(3, 3, 0.15, TotemConfig::default(), 8);
    world.run_for(SimDuration::from_secs(3));
    let epochs: Vec<_> = procs
        .iter()
        .map(|&p| world.actor::<Host>(p).unwrap().totem.epoch())
        .collect();
    assert_eq!(epochs[0], epochs[1]);
    assert_eq!(epochs[0], epochs[2]);
    assert!(
        world.stats().counter("totem.rings_installed") < 30,
        "membership thrash: {} installs",
        world.stats().counter("totem.rings_installed")
    );
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert_eq!(host.delivered.len(), 24);
        assert_eq!(host.gaps, 0, "no gap expected with default retention");
    }
}

#[test]
fn long_exclusion_yields_gap_event() {
    // With a tiny retention slack, a node cut off for a while cannot be
    // caught up by rebroadcast and must observe an explicit Gap.
    let config = TotemConfig {
        retention_slack: 2,
        ..TotemConfig::default()
    };
    let mut world = World::new(11);
    let lan = world.add_lan(LanConfig::default());
    let procs: Vec<ProcessorId> = (0..3)
        .map(|i| {
            world.add_processor(&format!("p{i}"), lan, move |me| {
                Box::new(Host::new(me, config, 0))
            })
        })
        .collect();
    world.run_for(SimDuration::from_millis(30));
    // Cut off p2 (it keeps running, but nothing reaches it).
    world.partition(&[&[procs[0], procs[1]], &[procs[2]]]);
    world.run_for(SimDuration::from_millis(50));
    // Traffic it will miss, well beyond the retention slack.
    inject_burst(&mut world, procs[0], 100);
    for _ in 0..30 {
        for &p in &[procs[0], procs[1]] {
            world.post(p, EXTRA_TICK);
        }
        world.run_for(SimDuration::from_millis(5));
    }
    world.heal();
    // From the Gap on, the rejoined node's receive window spans no more
    // than the retention slack plus one rotation, however far it skipped.
    let one_rotation = (procs.len() * config.max_messages_per_token) as u64;
    let mut widest = 0;
    for _ in 0..2_000 {
        world.run_for(SimDuration::from_micros(100));
        let rejoined: &Host = world.actor(procs[2]).unwrap();
        if rejoined.gaps > 0 {
            widest = widest.max(rejoined.totem.window_slots() as u64);
        }
    }
    assert!(
        widest <= config.retention_slack + one_rotation,
        "the rejoined window spans {widest} slots"
    );
    let rejoined: &Host = world.actor(procs[2]).unwrap();
    assert!(rejoined.totem.is_operational());
    assert_eq!(rejoined.totem.ring().len(), 3);
    assert!(
        rejoined.gaps > 0,
        "expected a Gap event after long exclusion"
    );
    // After the gap, new traffic flows normally.
    let before = rejoined.delivered.len();
    for &p in procs.iter() {
        world.post(p, EXTRA_TICK);
    }
    world.run_for(SimDuration::from_millis(300));
    let rejoined: &Host = world.actor(procs[2]).unwrap();
    eprintln!(
        "op={} ring={:?} epoch={} delivered={} before={} gaps={} backlog={}",
        rejoined.totem.is_operational(),
        rejoined.totem.ring(),
        rejoined.totem.epoch(),
        rejoined.delivered.len(),
        before,
        rejoined.gaps,
        rejoined.totem.backlog()
    );
    assert_eq!(rejoined.delivered.len(), before + 3);
}

#[test]
fn leave_group_stops_delivery_and_updates_directory() {
    let (mut world, procs) = build(3, 21, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(30));
    // p2 leaves the app group.
    world
        .actor_mut::<Host>(procs[2])
        .unwrap()
        .totem
        .leave_group(APP_GROUP);
    world.run_for(SimDuration::from_millis(20));
    // Directory converges on the remaining members everywhere.
    for &p in &procs {
        let host: &Host = world.actor(p).unwrap();
        assert_eq!(
            host.totem.group_members(APP_GROUP),
            vec![procs[0], procs[1]],
            "directory at {p}"
        );
    }
    // New traffic reaches only the remaining subscribers.
    world.post(procs[0], EXTRA_TICK);
    world.run_for(SimDuration::from_millis(20));
    assert_eq!(world.actor::<Host>(procs[0]).unwrap().delivered.len(), 1);
    assert_eq!(world.actor::<Host>(procs[1]).unwrap().delivered.len(), 1);
    assert_eq!(
        world.actor::<Host>(procs[2]).unwrap().delivered.len(),
        0,
        "departed member must not receive group traffic"
    );
}

#[test]
fn directory_lists_joined_groups() {
    let (mut world, procs) = build(2, 22, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(30));
    let host: &Host = world.actor(procs[0]).unwrap();
    assert!(host.totem.directory_groups().contains(&APP_GROUP));
    assert!(host.totem.subscriptions().any(|g| g == APP_GROUP));
}

#[test]
fn sequence_numbers_never_regress_across_reformations() {
    // Crash and recover a member repeatedly; observed delivery sequence
    // numbers must be strictly increasing at every survivor (the property
    // the paper's operation identifiers rely on).
    let (mut world, procs) = build(3, 23, 0.0, TotemConfig::default(), 3);
    world.run_for(SimDuration::from_millis(40));
    for round in 0..2 {
        world.crash(procs[2]);
        world.run_for(SimDuration::from_millis(60));
        for &p in &procs[..2] {
            world.post(p, EXTRA_TICK);
        }
        world.run_for(SimDuration::from_millis(40));
        world.recover(procs[2]);
        world.run_for(SimDuration::from_millis(60));
        let _ = round;
    }
    let host: &Host = world.actor(procs[0]).unwrap();
    let seqs: Vec<u64> = host.delivered.iter().map(|d| d.0).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "sequence numbers regressed: {seqs:?}"
    );
    assert!(
        seqs.len() >= 13,
        "traffic flowed every round: {}",
        seqs.len()
    );
}

/// Forms an idle 4-node ring and steps it, event by event, until the
/// ring leader (`procs[0]`) holds the token.
fn held_ring(seed: u64) -> (World, Vec<ProcessorId>) {
    let (mut world, procs) = build(4, seed, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    for _ in 0..100_000 {
        if world.actor::<Host>(procs[0]).unwrap().totem.holds_token() {
            return (world, procs);
        }
        world.step();
    }
    panic!("the leader of an idle ring never held the token");
}

#[test]
fn idle_token_hold_cuts_rotations_without_tripping_timers() {
    let (mut world, procs) = build(4, 41, 0.0, TotemConfig::default(), 0);
    world.run_for(SimDuration::from_millis(20));
    let before = world.stats().clone();
    let since = |world: &World, name: &str| world.stats().counter(name) - before.counter(name);
    world.run_for(SimDuration::from_secs(1));
    // An unheld token needs at most 4 × (latency + jitter) = 240 µs per
    // rotation, so it would rotate at least 1 s / 240 µs ≈ 4,166 times.
    let lan = LanConfig::default();
    let unheld = SimDuration::from_secs(1).as_nanos() / ((lan.latency + lan.jitter) * 4).as_nanos();
    let (rotations, holds) = (
        since(&world, "totem.token_rotations"),
        since(&world, "totem.token_holds"),
    );
    eprintln!("idle second: {rotations} rotations (unheld >= {unheld}), {holds} holds");
    assert!(
        rotations * 3 <= unheld,
        "{rotations} rotations in 1 s: less than 3× below the unheld {unheld}"
    );
    assert!(holds > 0);
    for timer in [
        "totem.token_retransmits",
        "totem.token_loss_timeouts",
        "totem.gathers",
    ] {
        assert_eq!(since(&world, timer), 0, "{timer} fired on an idle ring");
    }
    for &p in &procs {
        assert!(world.actor::<Host>(p).unwrap().totem.is_operational());
    }
}

#[test]
fn a_leader_send_during_a_hold_is_broadcast_at_the_same_instant() {
    let (mut world, procs) = held_ring(42);
    let broadcasts = world.stats().counter("totem.broadcasts");
    let at = world.now();
    world.post(procs[0], EXTRA_TICK);
    world.run_for(SimDuration::ZERO);
    assert_eq!(world.now(), at);
    assert_eq!(world.stats().counter("totem.broadcasts"), broadcasts + 1);
    assert!(!world.actor::<Host>(procs[0]).unwrap().totem.holds_token());
    world.run_for(SimDuration::from_millis(5));
    let seqs = sequences(&world, &procs);
    assert_eq!(seqs[0].len(), 1);
    for other in &seqs[1..] {
        assert_eq!(&seqs[0], other);
    }
}

#[test]
fn a_non_leader_send_waits_at_most_the_hold() {
    let config = TotemConfig::default();
    let (mut world, procs) = held_ring(43);
    let broadcasts = world.stats().counter("totem.broadcasts");
    let at = world.now();
    world.post(procs[2], EXTRA_TICK);
    let step = SimDuration::from_micros(10);
    while world.stats().counter("totem.broadcasts") == broadcasts {
        assert!(
            world.now() - at < SimDuration::from_millis(10),
            "never sent"
        );
        world.run_for(step);
    }
    // The hold plus the rest of one rotation stays under the retransmit
    // interval the hold is derived from.
    let waited = world.now() - at;
    assert!(
        waited <= config.token_retransmit,
        "a non-leader send waited {waited}"
    );
}

#[test]
fn crashing_a_member_during_a_hold_reforms_the_ring() {
    // The leader itself (the held token dies with it) and its successor
    // (the released token is forwarded into the void).
    for victim in [0, 1] {
        let (mut world, procs) = held_ring(44 + victim as u64);
        world.crash(procs[victim]);
        world.run_for(SimDuration::from_millis(60));
        let survivors: Vec<ProcessorId> = procs
            .iter()
            .copied()
            .filter(|&p| p != procs[victim])
            .collect();
        for &p in &survivors {
            let host: &Host = world.actor(p).unwrap();
            assert!(host.totem.is_operational(), "{p} after crashing {victim}");
            assert_eq!(host.totem.ring(), survivors.as_slice());
        }
        for &p in &survivors {
            world.post(p, EXTRA_TICK);
        }
        world.run_for(SimDuration::from_millis(60));
        let seqs = sequences(&world, &survivors);
        assert_eq!(seqs[0].len(), 3, "after crashing {victim}");
        for other in &seqs[1..] {
            assert_eq!(&seqs[0], other);
        }
    }
}
