//! Restart recovery: a gateway + domain started with a data dir must
//! survive both a clean shutdown and a kill with §3.5 exactly-once
//! semantics intact — a reissued request the dead incarnation answered
//! is served from the recovered response cache (never re-executed), and
//! no acknowledged reply is lost.

use ftd_core::EngineConfig;
use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
use ftd_net::{DomainHost, DurableHost, GatewayServer, NetClient};
use ftd_store::FsyncPolicy;
use ftd_totem::GroupId;
use std::path::{Path, PathBuf};

const GROUP: GroupId = GroupId(10);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftd-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn objects() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    reg.register("Counter", Box::new(|| Box::new(Counter::new())));
    reg
}

/// A gateway with stable storage under `dir`: the gateway store holds the
/// response cache, the wrapped [`DurableHost`] logs the domain's groups.
fn start_durable(dir: &Path, domain: u32, seed: u64, shards: usize) -> GatewayServer {
    let data_dir = dir.to_path_buf();
    GatewayServer::builder()
        .addr("127.0.0.1:0")
        .config(EngineConfig::new(domain, GroupId(0x4000_0000 | domain), 0))
        .shards(shards)
        .data_dir(dir)
        .host(move || {
            let mut host = DomainHost::try_start(domain, 4, seed, objects)?;
            host.create_group(
                GROUP,
                "Counter",
                FtProperties::new(ReplicationStyle::Active).with_initial(3),
            );
            let (durable, _) = DurableHost::open(host, &data_dir, FsyncPolicy::Always, None)
                .map_err(ftd_core::Error::Io)?;
            Ok::<_, ftd_core::Error>(durable)
        })
        .build()
        .expect("bind loopback")
}

/// Clean restart: shutdown compacts the store into checkpoints; the next
/// incarnation answers a reissued pre-shutdown request from the
/// recovered cache and serves the recovered object state.
#[test]
fn clean_restart_serves_reissue_from_recovered_cache() {
    let dir = tmp("clean");
    let (reply, request_id) = {
        let server = start_durable(&dir, 61, 0xC1EA, 2);
        let ior = server.ior("IDL:Counter:1.0", GROUP);
        let mut client = NetClient::builder()
            .ior(&ior)
            .client_id(0xA1)
            .connect()
            .expect("connect");
        let r = client.invoke("add", &5u64.to_be_bytes()).expect("add");
        assert_eq!(r.body, 5u64.to_be_bytes());
        let id = client.last_request_id();
        drop(client);
        server.shutdown();
        (r.body, id)
    };

    let server = start_durable(&dir, 61, 0xC1EA, 2);
    let ior = server.ior("IDL:Counter:1.0", GROUP);
    // Same client identity, same request id — the §3.5 reissue a client
    // performs when its gateway dies mid-reply.
    let mut client = NetClient::builder()
        .ior(&ior)
        .client_id(0xA1)
        .connect()
        .expect("reconnect");
    let r = client
        .resend(request_id, "add", &5u64.to_be_bytes())
        .expect("reissue");
    assert_eq!(
        r.body, reply,
        "reissue answered with the pre-restart reply, byte for byte"
    );
    // Recovered state is 5; a re-execution would have answered 10.
    let g = client.invoke("get", &[]).expect("get");
    assert_eq!(
        g.body,
        5u64.to_be_bytes(),
        "the add executed exactly once across the restart"
    );
    let stats = server.stats();
    assert!(
        stats.counter("gateway.reissues_served_from_cache") >= 1,
        "the reissue was served from the recovered cache, not the domain"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill (no quiesce, no checkpoint): recovery replays the write-ahead
/// logs — the reply the dead gateway acked is still suppressible, the
/// logged operation re-executes exactly once.
#[test]
fn kill_restart_replays_the_write_ahead_log() {
    let dir = tmp("kill");
    let (reply, request_id) = {
        let server = start_durable(&dir, 62, 0xB11D, 2);
        let ior = server.ior("IDL:Counter:1.0", GROUP);
        let mut client = NetClient::builder()
            .ior(&ior)
            .client_id(0xB2)
            .connect()
            .expect("connect");
        let r = client.invoke("add", &9u64.to_be_bytes()).expect("add");
        assert_eq!(r.body, 9u64.to_be_bytes());
        let id = client.last_request_id();
        drop(client);
        server.kill();
        (r.body, id)
    };

    let server = start_durable(&dir, 62, 0xB00, 2);
    let ior = server.ior("IDL:Counter:1.0", GROUP);
    let mut client = NetClient::builder()
        .ior(&ior)
        .client_id(0xB2)
        .connect()
        .expect("reconnect");
    let r = client
        .resend(request_id, "add", &9u64.to_be_bytes())
        .expect("reissue");
    assert_eq!(r.body, reply, "acked reply survived the kill");
    let g = client.invoke("get", &[]).expect("get");
    assert_eq!(
        g.body,
        9u64.to_be_bytes(),
        "replay re-executed the logged add exactly once"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The domain-side story in isolation: after a kill, reopening the
/// [`DurableHost`] over a fresh domain reports the recovered group and
/// replays the logged operations back into replica state.
#[test]
fn durable_host_reports_recovery_and_rebuilds_state() {
    let dir = tmp("domain");
    {
        let server = start_durable(&dir, 63, 0xD0_03, 1);
        let ior = server.ior("IDL:Counter:1.0", GROUP);
        let mut a = NetClient::builder()
            .ior(&ior)
            .client_id(0xC1)
            .connect()
            .expect("connect a");
        let mut b = NetClient::builder()
            .ior(&ior)
            .client_id(0xC2)
            .connect()
            .expect("connect b");
        assert_eq!(
            a.invoke("add", &3u64.to_be_bytes()).expect("a").body.len(),
            8
        );
        assert_eq!(
            b.invoke("add", &4u64.to_be_bytes()).expect("b").body.len(),
            8
        );
        drop(a);
        drop(b);
        server.kill();
    }

    let mut host = DomainHost::try_start(63, 4, 0xD0_03, objects).expect("domain");
    host.create_group(
        GROUP,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    let (durable, recovery) =
        DurableHost::open(host, &dir, FsyncPolicy::Never, None).expect("reopen");
    assert_eq!(recovery.groups_recovered, 1, "the group left durable state");
    assert_eq!(
        recovery.ops_replayed, 2,
        "both logged adds were re-multicast through the ring"
    );
    let state = durable
        .inner()
        .replica_state(GROUP)
        .expect("recovered replica state");
    assert_eq!(
        u64::from_be_bytes(state.try_into().expect("8-byte counter state")),
        7,
        "replayed state is the sum of both adds"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
