//! The cost ledger: what one request costs the simulated stack, in
//! virtual time, checked against the committed table in `costs.txt`.
//!
//! Each workload builds a six-processor domain with one gateway and a
//! 3-replica `Active` group, warms it up, then drives a fixed sequence of
//! requests from one §3.5 enhanced client, one at a time. Over exactly
//! those requests it measures:
//!
//! - protocol counts (`totem.broadcasts`, `net.multicasts_sent`), which
//!   must match the table exactly: a change in them is a change in what
//!   the ring does, not in how fast the code runs;
//! - duplicate-response suppressions at the replicas
//!   (`eternal.duplicate_responses`) and at the gateway
//!   (`gateway.duplicate_responses_suppressed`), also exact: a §3.3
//!   table that forgets an operation early or accepts one twice moves
//!   them;
//! - heap allocations and allocated bytes on this test's thread, per
//!   request, which must stay within ±2 % of the table. The band covers
//!   toolchain drift (the toolchain is not pinned); the counts are
//!   otherwise exact, run after run.
//!
//! A change that moves a count updates `costs.txt` in the same change and
//! says which counts moved and why. On a mismatch the failure message
//! prints the whole measured table in the file's format.
//!
//! The counting allocator below is the one `unsafe impl` in the
//! workspace's tests: `GlobalAlloc` cannot be implemented safely. It only
//! forwards to the system allocator and bumps thread-local counters.

use ftd_core::{build_domain, DomainSpec, EnhancedClient, TAG_FLUSH};
use ftd_eternal::{AppObject, Counter, FtProperties, ObjectRegistry, Outcome, ReplicationStyle};
use ftd_sim::{ProcessorId, SimDuration, World};
use ftd_totem::GroupId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (and reallocation) made by a thread while its
/// counting flag is on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            BYTES.with(|b| b.set(b.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so the `GlobalAlloc` contract holds exactly as it does for
// `System`; the bookkeeping touches only const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and bytes this thread makes while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

/// `put` stores its argument and replies with the number of puts (8
/// bytes); `get` replies with the stored bytes. The `bulk_mixed` object.
#[derive(Debug, Default)]
struct Blob {
    puts: u64,
    bytes: Vec<u8>,
}

impl AppObject for Blob {
    fn invoke(&mut self, operation: &str, args: &[u8], _entropy: u64) -> Outcome {
        match operation {
            "put" => {
                self.bytes = args.to_vec();
                self.puts += 1;
                Outcome::Reply(self.puts.to_be_bytes().to_vec())
            }
            "get" => Outcome::Reply(self.bytes.clone()),
            _ => Outcome::Reply(b"BAD_OPERATION".to_vec()),
        }
    }

    fn state(&self) -> Vec<u8> {
        let mut state = self.puts.to_be_bytes().to_vec();
        state.extend_from_slice(&self.bytes);
        state
    }

    fn set_state(&mut self, state: &[u8]) {
        let (puts, bytes) = state.split_at(state.len().min(8));
        self.puts = u64::from_be_bytes(puts.try_into().unwrap_or([0; 8]));
        self.bytes = bytes.to_vec();
    }
}

const GROUP: GroupId = GroupId(10);
const SEED: u64 = 7;

fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    reg.register("Counter", Box::new(|| Box::new(Counter::new())));
    reg.register("Blob", Box::new(|| Box::<Blob>::default()));
    reg
}

/// One workload's measured costs, per request.
struct Costs {
    name: &'static str,
    requests: u64,
    broadcasts: u64,
    multicasts: u64,
    replica_duplicates: u64,
    gateway_suppressed: u64,
    allocs: u64,
    bytes: u64,
}

impl Costs {
    fn per_req(total: u64, requests: u64) -> f64 {
        total as f64 / requests as f64
    }

    /// The workload's lines in `costs.txt` format.
    fn lines(&self) -> Vec<(String, String)> {
        let n = self.requests;
        vec![
            (
                format!("{}.totem_broadcasts_per_req", self.name),
                format!("{:.3}", Self::per_req(self.broadcasts, n)),
            ),
            (
                format!("{}.sim_multicasts_per_req", self.name),
                format!("{:.3}", Self::per_req(self.multicasts, n)),
            ),
            (
                format!("{}.eternal_duplicate_responses_per_req", self.name),
                format!("{:.3}", Self::per_req(self.replica_duplicates, n)),
            ),
            (
                format!("{}.gateway_duplicates_suppressed_per_req", self.name),
                format!("{:.3}", Self::per_req(self.gateway_suppressed, n)),
            ),
            (
                format!("{}.allocs_per_req", self.name),
                format!("{:.3}", Self::per_req(self.allocs, n)),
            ),
            (
                format!("{}.alloc_bytes_per_req", self.name),
                format!("{:.1}", Self::per_req(self.bytes, n)),
            ),
        ]
    }
}

/// Builds the domain, warms it up with one of each request, then runs
/// `ops` (operation, argument) requests one at a time and measures them.
fn run(name: &'static str, type_name: &str, ops: &[(&str, Vec<u8>)]) -> Costs {
    let mut world = World::new(SEED);
    let spec = DomainSpec::new(1, 6, 1);
    let handle = build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    handle.create_group(
        &mut world,
        1,
        GROUP,
        type_name,
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    world.run_for(SimDuration::from_millis(10));
    let ior = handle.ior("IDL:Ledger:1.0", GROUP);
    let client = world.add_processor("eclient", handle.lan, move |_| {
        Box::new(EnhancedClient::new(&ior, 0x4000_0042))
    });

    // Warm-up: connection set-up and first-use allocations stay out of
    // the measured window.
    let mut done = 0;
    for (op, args) in ops.iter().take(2) {
        request(&mut world, client, op, args);
        done += 1;
        await_replies(&mut world, client, done);
    }

    let counter = |world: &World, name: &str| world.stats().counter(name);
    let broadcasts0 = counter(&world, "totem.broadcasts");
    let multicasts0 = counter(&world, "net.multicasts_sent");
    let duplicates0 = counter(&world, "eternal.duplicate_responses");
    let suppressed0 = counter(&world, "gateway.duplicate_responses_suppressed");
    let ((), allocs, bytes) = counted(|| {
        for (op, args) in ops {
            request(&mut world, client, op, args);
            done += 1;
            await_replies(&mut world, client, done);
        }
    });
    Costs {
        name,
        requests: ops.len() as u64,
        broadcasts: counter(&world, "totem.broadcasts") - broadcasts0,
        multicasts: counter(&world, "net.multicasts_sent") - multicasts0,
        replica_duplicates: counter(&world, "eternal.duplicate_responses") - duplicates0,
        gateway_suppressed: counter(&world, "gateway.duplicate_responses_suppressed") - suppressed0,
        allocs,
        bytes,
    }
}

fn request(world: &mut World, client: ProcessorId, op: &str, args: &[u8]) {
    world
        .actor_mut::<EnhancedClient>(client)
        .expect("client alive")
        .enqueue(op, args);
    world.post(client, TAG_FLUSH);
}

fn await_replies(world: &mut World, client: ProcessorId, n: usize) {
    for _ in 0..100_000 {
        let c = world.actor::<EnhancedClient>(client).expect("client alive");
        if c.replies.len() >= n {
            return;
        }
        world.run_for(SimDuration::from_micros(20));
    }
    panic!("no reply {n} within the guard");
}

fn measured() -> Vec<Costs> {
    let adds: Vec<(&str, Vec<u8>)> = (0..200u64)
        .map(|i| ("add", (i % 7 + 1).to_be_bytes().to_vec()))
        .collect();
    let blob: Vec<(&str, Vec<u8>)> = (0..100u8)
        .map(|i| {
            if i % 2 == 0 {
                ("put", vec![i; 4096])
            } else {
                ("get", Vec::new())
            }
        })
        .collect();
    vec![
        run("counter_active", "Counter", &adds),
        run("blob_active_4k", "Blob", &blob),
    ]
}

/// `costs.txt`: `name value` lines; `#` starts a comment.
fn committed() -> Vec<(String, f64)> {
    include_str!("costs.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once(char::is_whitespace).expect("name value");
            (
                name.to_owned(),
                value.trim().parse().expect("numeric value"),
            )
        })
        .collect()
}

/// Allocation counts may drift this much (relative) with the toolchain.
const ALLOC_BAND: f64 = 0.02;

#[test]
fn per_request_costs_match_the_committed_table() {
    let costs = measured();
    let lines: Vec<(String, String)> = costs.iter().flat_map(Costs::lines).collect();
    let table: String = lines.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    let table = format!("measured (costs.txt format):\n{table}");
    let committed = committed();
    assert_eq!(
        committed.len(),
        lines.len(),
        "costs.txt lists other metrics than the ledger measures\n{table}"
    );
    for (name, measured) in &lines {
        let Some((_, want)) = committed.iter().find(|(n, _)| n == name) else {
            panic!("{name} is missing from costs.txt\n{table}");
        };
        let got: f64 = measured.parse().expect("formatted number");
        if name.ends_with("_per_req") && (name.contains(".allocs") || name.contains(".alloc_")) {
            let drift = (got - want).abs() / want.max(1.0);
            assert!(
                drift <= ALLOC_BAND,
                "{name}: measured {got}, table {want} ({:+.2} %, band ±{} %)\n{table}",
                (got - want) / want * 100.0,
                ALLOC_BAND * 100.0
            );
        } else {
            assert_eq!(got, *want, "{name}: protocol count moved\n{table}");
        }
    }
}
