//! The server under test, built from the gateway's public API only, and
//! the `serve` subcommand that hosts it in a child process.
//!
//! The configuration is the same in every workload: 2 shards, an
//! in-flight admission window of 64 per shard, a 4-processor domain,
//! two `Counter` and two `Blob` groups of 3 active replicas each, group
//! `j` of either kind pinned to shard `j`. The child is told which
//! backend stands behind the gateway and a domain seed — nothing that
//! names a workload.

use crate::blob::{Blob, BLOB_TYPE};
use crate::echo::EchoBackend;
use ftd_core::EngineConfig;
use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
use ftd_net::{AdmissionPolicy, DomainBackend, DomainHost, GatewayServer, ServerOptions};
use ftd_totem::GroupId;
use std::io::{BufRead, Write};

/// The fault tolerance domain id.
pub const DOMAIN: u32 = 3;
/// Engine shards (and generator connections: connection `c` talks to
/// the group pinned to shard `c`).
pub const SHARDS: usize = 2;
/// Per-shard admission window.
pub const ADMISSION_WINDOW: usize = 64;
/// Domain processors (the relay plus three replica hosts).
pub const PROCESSORS: u32 = 4;
/// The `Counter` groups, indexed by shard.
pub const COUNTER_GROUPS: [GroupId; SHARDS] = [GroupId(10), GroupId(11)];
/// The `Blob` groups, indexed by shard.
pub const BLOB_GROUPS: [GroupId; SHARDS] = [GroupId(12), GroupId(13)];

/// What stands behind the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The replicated domain: sim world, Totem ring, three replicas.
    Domain,
    /// [`EchoBackend`]: the gateway-only baseline.
    Echo,
}

impl Backend {
    /// The `serve --backend` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Domain => "domain",
            Backend::Echo => "echo",
        }
    }

    /// Parses the `serve --backend` spelling.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "domain" => Some(Backend::Domain),
            "echo" => Some(Backend::Echo),
            _ => None,
        }
    }
}

/// The engine configuration shared by the served gateway and the inline
/// pipeline (response cache of 4096 entries per shard).
pub fn engine_config() -> EngineConfig {
    EngineConfig::new(DOMAIN, GroupId(0x4000_0000 | DOMAIN), 0)
}

fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    reg.register("Counter", Box::new(|| Box::new(Counter::new())));
    reg.register(BLOB_TYPE, Box::new(|| Box::<Blob>::default()));
    reg
}

/// Brings the domain side up: ring formed, the four groups placed.
pub fn start_backend(backend: Backend, seed: u64) -> ftd_core::Result<Box<dyn DomainBackend>> {
    match backend {
        Backend::Echo => Ok(Box::new(EchoBackend::new(DOMAIN))),
        Backend::Domain => {
            let mut host = DomainHost::try_start(DOMAIN, PROCESSORS, seed, registry)?;
            let replicated = || FtProperties::new(ReplicationStyle::Active).with_initial(3);
            for group in COUNTER_GROUPS {
                host.create_group(group, "Counter", replicated());
            }
            for group in BLOB_GROUPS {
                host.create_group(group, BLOB_TYPE, replicated());
            }
            Ok(Box::new(host))
        }
    }
}

/// Builds the serving gateway on ephemeral loopback ports.
pub fn build(backend: Backend, seed: u64) -> ftd_core::Result<GatewayServer> {
    let mut builder = GatewayServer::builder()
        .addr("127.0.0.1:0")
        .config(engine_config())
        .options(ServerOptions::builder().metrics_addr("127.0.0.1:0").build())
        .shards(SHARDS)
        .admission(AdmissionPolicy::inflight_window(ADMISSION_WINDOW))
        .host(move || start_backend(backend, seed));
    for shard in 0..SHARDS {
        builder = builder
            .pin_group(COUNTER_GROUPS[shard], shard)
            .pin_group(BLOB_GROUPS[shard], shard);
    }
    builder.build()
}

/// `serve --backend B --seed N`: serves until standard input closes
/// (so the child can never outlive the benchmark), after printing one
/// `READY <gateway addr> <metrics addr>` line.
pub fn serve(backend: Backend, seed: u64) -> Result<(), String> {
    let gateway = build(backend, seed).map_err(|e| format!("gateway start: {e}"))?;
    let metrics = gateway
        .metrics_addr()
        .ok_or("gateway has no metrics listener")?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {} {metrics}", gateway.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| format!("announce: {e}"))?;
    drop(out);
    // Blocks until the parent closes the pipe or dies.
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
    }
    gateway.shutdown();
    Ok(())
}
