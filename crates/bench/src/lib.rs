//! Shared scenario builders for the `experiments` binary that
//! regenerates every figure/claim of the paper (see DESIGN.md §5 for the
//! experiment index E1–E10), the in-process `Counter` domain the live
//! soaks and sweeps run against, and the harness modules the bench
//! binaries share: [`soak`] (the §3.5 client and verdict) and [`cli`]
//! (arguments and JSON reports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod soak;

use ftd_core::{
    build_domain, connect_domains, DomainDaemon, DomainHandle, DomainSpec, EnhancedClient,
    PlainClient, TAG_FLUSH,
};
use ftd_eternal::{AppObject, Counter, FtProperties, ObjectRegistry, Outcome, ReplicationStyle};
use ftd_net::DomainHost;
use ftd_sim::{ProcessorId, SimDuration, World};
use ftd_totem::GroupId;

/// The server group used by all single-domain scenarios.
pub const SERVER: GroupId = GroupId(10);
/// The orchestrator group for nested-invocation scenarios.
pub const ORCH: GroupId = GroupId(11);

/// An object whose `bump` operation performs a nested invocation on
/// [`SERVER`] (`add 5`) before replying — Fig. 6's parent/child structure.
#[derive(Debug, Default)]
pub struct Orchestrator {
    bumps: u64,
}

impl AppObject for Orchestrator {
    fn invoke(&mut self, operation: &str, _args: &[u8], _entropy: u64) -> Outcome {
        match operation {
            "bump" => Outcome::Call {
                target: SERVER.0,
                operation: "add".into(),
                args: 5u64.to_be_bytes().to_vec(),
                cont: 1,
            },
            _ => Outcome::Reply(b"BAD_OPERATION".to_vec()),
        }
    }
    fn resume(&mut self, _cont: u32, reply: &[u8], _entropy: u64) -> Outcome {
        self.bumps += 1;
        let mut out = self.bumps.to_be_bytes().to_vec();
        out.extend(reply);
        Outcome::Reply(out)
    }
    fn state(&self) -> Vec<u8> {
        self.bumps.to_be_bytes().to_vec()
    }
    fn set_state(&mut self, state: &[u8]) {
        self.bumps = u64::from_be_bytes(state.try_into().unwrap_or([0; 8]));
    }
}

/// The registry every scenario daemon, live domain and replay uses.
pub fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    reg.register("Counter", Box::new(|| Box::new(Counter::new())));
    reg.register("Orchestrator", Box::new(|| Box::<Orchestrator>::default()));
    reg
}

/// The in-process domain the live soaks and sweeps run against: domain
/// `domain` on 4 processors, with a 3-replica active `Counter` in each
/// of `groups`.
pub fn counter_host(
    domain: u32,
    seed: u64,
    groups: impl IntoIterator<Item = GroupId>,
) -> ftd_core::Result<DomainHost> {
    let mut host = DomainHost::try_start(domain, 4, seed, registry)?;
    for group in groups {
        host.create_group(
            group,
            "Counter",
            FtProperties::new(ReplicationStyle::Active).with_initial(3),
        );
    }
    Ok(host)
}

/// Builds one operational domain with a replicated [`SERVER`] counter.
pub fn single_domain(
    seed: u64,
    procs: u32,
    gateways: u32,
    replicas: u32,
    style: ReplicationStyle,
) -> (World, DomainHandle) {
    let mut world = World::new(seed);
    let spec = DomainSpec::new(1, procs, gateways);
    let handle = build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    assert!(handle.is_operational(&world), "ring failed to form");
    handle.create_group(
        &mut world,
        gateways as usize,
        SERVER,
        "Counter",
        FtProperties::new(style)
            .with_initial(replicas)
            .with_min(replicas.min(2)),
    );
    world.run_for(SimDuration::from_millis(10));
    (world, handle)
}

/// Builds the Fig. 1 three-domain topology (wide-area + NY + LA), with a
/// 3-replica counter ([`SERVER`]) in the NY domain and another ([`ORCH`])
/// in LA. Returns (world, wide, ny, la).
pub fn fig1_topology(seed: u64) -> (World, DomainHandle, DomainHandle, DomainHandle) {
    let mut world = World::new(seed);
    let mut specs = vec![
        DomainSpec::new(1, 3, 1),
        DomainSpec::new(2, 4, 1),
        DomainSpec::new(3, 4, 1),
    ];
    connect_domains(&mut specs, 0);
    let wide = build_domain(&mut world, &specs[0], registry);
    let ny = build_domain(&mut world, &specs[1], registry);
    let la = build_domain(&mut world, &specs[2], registry);
    world.run_for(SimDuration::from_millis(30));
    for d in [&wide, &ny, &la] {
        assert!(d.is_operational(&world));
    }
    ny.create_group(
        &mut world,
        1,
        SERVER,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    la.create_group(
        &mut world,
        1,
        ORCH,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    world.run_for(SimDuration::from_millis(15));
    (world, wide, ny, la)
}

/// Adds a plain (§3.4) client for [`SERVER`].
pub fn add_plain_client(world: &mut World, handle: &DomainHandle, reconnect: bool) -> ProcessorId {
    let ior = handle.ior("IDL:Bench/Counter:1.0", SERVER);
    world.add_processor("client", handle.lan, move |_| {
        Box::new(PlainClient::new(&ior, reconnect))
    })
}

/// Adds an enhanced (§3.5) client for [`SERVER`].
pub fn add_enhanced_client(
    world: &mut World,
    handle: &DomainHandle,
    client_id: u32,
) -> ProcessorId {
    let ior = handle.ior("IDL:Bench/Counter:1.0", SERVER);
    world.add_processor("eclient", handle.lan, move |_| {
        Box::new(EnhancedClient::new(&ior, client_id))
    })
}

/// Sends one request from a plain client (enqueue + flush).
pub fn plain_send(world: &mut World, client: ProcessorId, op: &str, args: &[u8]) {
    world
        .actor_mut::<PlainClient>(client)
        .expect("client alive")
        .enqueue(op, args);
    world.post(client, TAG_FLUSH);
}

/// Sends one request from an enhanced client.
pub fn enhanced_send(world: &mut World, client: ProcessorId, op: &str, args: &[u8]) {
    world
        .actor_mut::<EnhancedClient>(client)
        .expect("client alive")
        .enqueue(op, args);
    world.post(client, TAG_FLUSH);
}

/// Runs until the plain client has `n` replies (or the guard expires);
/// returns the virtual time that elapsed.
pub fn run_until_plain_replies(
    world: &mut World,
    client: ProcessorId,
    n: usize,
) -> Option<SimDuration> {
    let start = world.now();
    for _ in 0..200_000 {
        if world
            .actor::<PlainClient>(client)
            .map(|c| c.replies.len() >= n)
            .unwrap_or(false)
        {
            return Some(world.now().saturating_since(start));
        }
        world.run_for(SimDuration::from_micros(20));
    }
    None
}

/// Runs until the enhanced client has `n` replies; returns elapsed virtual
/// time.
pub fn run_until_enhanced_replies(
    world: &mut World,
    client: ProcessorId,
    n: usize,
) -> Option<SimDuration> {
    let start = world.now();
    for _ in 0..200_000 {
        if world
            .actor::<EnhancedClient>(client)
            .map(|c| c.replies.len() >= n)
            .unwrap_or(false)
        {
            return Some(world.now().saturating_since(start));
        }
        world.run_for(SimDuration::from_micros(20));
    }
    None
}

/// Counter replica states across a domain.
pub fn counter_values(world: &World, handle: &DomainHandle, group: GroupId) -> Vec<u64> {
    handle
        .processors
        .iter()
        .filter(|&&p| !world.is_crashed(p))
        .filter_map(|&p| {
            world
                .actor::<DomainDaemon>(p)
                .and_then(|d| d.mech().replica_state(group))
        })
        .map(|s| u64::from_be_bytes(s.try_into().expect("counter state")))
        .collect()
}

/// One complete plain-client round trip; returns virtual RTT.
pub fn one_round_trip(world: &mut World, client: ProcessorId, delta: u64) -> SimDuration {
    let before = world
        .actor::<PlainClient>(client)
        .expect("alive")
        .replies
        .len();
    plain_send(world, client, "add", &delta.to_be_bytes());
    run_until_plain_replies(world, client, before + 1).expect("reply within guard")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_domain_scenario_works() {
        let (mut world, handle) = single_domain(1, 5, 1, 3, ReplicationStyle::Active);
        let client = add_plain_client(&mut world, &handle, false);
        let rtt = one_round_trip(&mut world, client, 5);
        assert!(rtt > SimDuration::ZERO);
        assert_eq!(counter_values(&world, &handle, SERVER), vec![5, 5, 5]);
    }

    #[test]
    fn fig1_scenario_works() {
        let (world, wide, ny, la) = fig1_topology(2);
        assert!(wide.is_operational(&world));
        assert!(ny.is_operational(&world));
        assert!(la.is_operational(&world));
    }
}
