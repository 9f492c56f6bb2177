//! Property-based tests on the Totem wire formats and on the total-order
//! invariant across randomized workloads and loss rates.

use ftd_check::{check, Gen};
use ftd_sim::ProcessorId;
use ftd_totem::*;

fn arb_procs(g: &mut Gen) -> Vec<ProcessorId> {
    (0..g.range(1, 7)).map(|_| ProcessorId(g.u32())).collect()
}

fn arb_msg(g: &mut Gen) -> TotemMsg {
    match g.below(5) {
        0 => TotemMsg::Regular(Regular {
            epoch: RingEpoch(g.u64()),
            seq: g.u64(),
            sender: ProcessorId(g.u32()),
            group: GroupId(g.u32()),
            control: g.bool(),
            payload: g.bytes(63).into(),
        }),
        1 => TotemMsg::Token(Token {
            epoch: RingEpoch(g.u64()),
            token_id: g.u64(),
            seq: g.u64(),
            aru: g.u64(),
            aru_id: if g.bool() {
                Some(ProcessorId(g.u32()))
            } else {
                None
            },
            members: arb_procs(g),
            rtr: g.vec(7, Gen::u64),
        }),
        2 => TotemMsg::Join(Join {
            sender: ProcessorId(g.u32()),
            epoch: RingEpoch(g.u64()),
            aru: g.u64(),
            high_seq: g.u64(),
            retained_from: g.u64(),
            fresh: g.bool(),
        }),
        3 => TotemMsg::Commit(Commit {
            epoch: RingEpoch(g.u64()),
            representative: ProcessorId(g.u32()),
            members: arb_procs(g),
            start_seq: g.u64(),
            recovery_floor: g.u64(),
            directory: g.vec(3, |g| (GroupId(g.u32()), arb_procs(g))),
        }),
        _ => TotemMsg::Beacon(Beacon {
            epoch: RingEpoch(g.u64()),
            sender: ProcessorId(g.u32()),
        }),
    }
}

#[test]
fn totem_messages_round_trip() {
    check("totem messages round-trip", 512, |g| {
        let msg = arb_msg(g);
        let wire = msg.encode();
        assert_eq!(TotemMsg::decode(&wire).unwrap(), msg);
    });
}

#[test]
fn totem_decoder_never_panics() {
    check("totem decoder never panics", 512, |g| {
        let _ = TotemMsg::decode(&g.bytes(255));
    });
}

#[test]
fn aru_id_none_survives_round_trip() {
    check("aru_id none survives round-trip", 128, |g| {
        let t = TotemMsg::Token(Token {
            epoch: RingEpoch(g.u64()),
            token_id: 1,
            seq: 2,
            aru: 1,
            aru_id: None,
            members: vec![ProcessorId(0)],
            rtr: vec![],
        });
        assert_eq!(TotemMsg::decode(&t.encode()).unwrap(), t);
    });
}

#[test]
fn epoch_next_round_is_strictly_increasing() {
    check("epoch next_round is strictly increasing", 256, |g| {
        let seen = RingEpoch(g.u32() as u64);
        let next = RingEpoch::next_round(seen, g.u32());
        assert!(next > seen);
        assert_eq!(next.round(), seen.round() + 1);
    });
}

#[test]
fn epoch_ties_are_broken_by_representative() {
    check("epoch ties are broken by representative", 256, |g| {
        let seen = RingEpoch(g.u32() as u64);
        let a = g.u8();
        let b = g.u8();
        if a == b {
            return;
        }
        let ea = RingEpoch::next_round(seen, a as u32);
        let eb = RingEpoch::next_round(seen, b as u32);
        assert_ne!(ea, eb, "same round, different reps must differ");
    });
}

// ---------------------------------------------------------------------
// Randomized end-to-end total-order property
// ---------------------------------------------------------------------

mod end_to_end {
    use ftd_check::check;
    use ftd_sim::*;
    use ftd_totem::*;

    const GROUP: GroupId = GroupId(5);

    struct Host {
        totem: TotemNode,
        delivered: Vec<(u64, ProcessorId, Vec<u8>)>,
    }

    impl Actor for Host {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.totem.start(ctx);
            self.totem.join_group(GROUP);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            if !self.totem.on_timer(ctx, tag) && tag < 1000 {
                self.totem
                    .multicast(GROUP, vec![ctx.me().0 as u8, tag as u8]);
            }
            self.drain();
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
            self.totem.on_datagram(ctx, &dgram);
            self.drain();
        }
    }

    impl Host {
        fn drain(&mut self) {
            for ev in self.totem.take_events() {
                if let TotemEvent::Deliver(m) = ev {
                    self.delivered.push((m.seq, m.sender, m.payload.to_vec()));
                }
            }
        }
    }

    #[test]
    fn all_members_agree_on_the_total_order() {
        check("all members agree on the total order", 12, |g| {
            let seed = g.u64();
            let n = g.range(2, 4) as u32;
            let loss = g.below(12); // percent
            let sends = g.range(1, 9);

            let mut world = World::new(seed);
            let lan = world.add_lan(LanConfig {
                loss_probability: loss as f64 / 100.0,
                ..LanConfig::default()
            });
            let procs: Vec<ProcessorId> = (0..n)
                .map(|i| {
                    world.add_processor(&format!("p{i}"), lan, |me| {
                        Box::new(Host {
                            totem: TotemNode::new(me, TotemConfig::default(), 1 << 48),
                            delivered: Vec::new(),
                        })
                    })
                })
                .collect();
            world.run_for(SimDuration::from_millis(20));
            for k in 0..sends {
                for &p in &procs {
                    world.post(p, k); // tag < 1000 triggers a multicast
                }
                world.run_for(SimDuration::from_millis(3));
            }
            world.run_for(SimDuration::from_secs(2));

            let sequences: Vec<_> = procs
                .iter()
                .map(|&p| world.actor::<Host>(p).unwrap().delivered.clone())
                .collect();
            for other in &sequences[1..] {
                assert_eq!(&sequences[0], other, "delivery sequences diverged");
            }
            assert_eq!(sequences[0].len() as u64, sends * n as u64, "messages lost");
        });
    }
}
