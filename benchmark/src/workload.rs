//! The four workloads and the seeded request streams they send.
//!
//! The seed feeds only generated inputs: the domain seed, the client
//! ids, the operation arguments and the open-loop phase. An
//! [`OpStream`] is also the reference model of the object it talks to —
//! it knows the reply every request must get — so the benchmark checks
//! outputs against something other than the program under test.

use crate::server::{Backend, BLOB_GROUPS, COUNTER_GROUPS};
use ftd_sim::{splitmix64, SimRng};
use ftd_totem::GroupId;
use std::sync::Arc;

/// Bytes of a `Blob.put` argument and of a `Blob.get` reply.
pub const BLOB_BYTES: usize = 4096;
/// Distinct `put` payloads a stream draws from.
const BLOB_POOL: usize = 16;

/// Which replicated object a workload invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// `Counter.add` with an 8-byte delta.
    Counter,
    /// `Blob.put` (4 KiB in, 8 B out) alternating with `Blob.get`
    /// (nothing in, 4 KiB out).
    Blob,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each connection keeps `depth` requests outstanding.
    Closed {
        /// Requests in flight per connection.
        depth: usize,
    },
    /// A fixed arrival schedule, `rate` requests/s over all connections.
    Open {
        /// Offered requests per second, all connections together.
        rate: f64,
    },
}

/// One workload. `why` is the one-line rationale recorded in
/// `BENCHMARK.json`; the README has the long form.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The backend the server child is started with.
    pub backend: Backend,
    /// The object invoked.
    pub object: Object,
    /// Closed or open loop.
    pub load: Load,
    /// Requests the inline pipeline runs per second of `--seconds`.
    pub inline_per_second: u64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sat_small",
        backend: Backend::Domain,
        object: Object::Counter,
        load: Load::Closed { depth: 128 },
        inline_per_second: 4000,
    },
    Workload {
        name: "paced_small",
        backend: Backend::Domain,
        object: Object::Counter,
        load: Load::Open { rate: 2000.0 },
        inline_per_second: 4000,
    },
    Workload {
        name: "echo_small",
        backend: Backend::Echo,
        object: Object::Counter,
        load: Load::Closed { depth: 128 },
        inline_per_second: 8000,
    },
    Workload {
        name: "bulk_mixed",
        backend: Backend::Domain,
        object: Object::Blob,
        load: Load::Closed { depth: 16 },
        inline_per_second: 1200,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The group connection `conn` invokes (pinned to shard `conn`).
    pub fn group(&self, conn: usize) -> GroupId {
        match self.object {
            Object::Counter => COUNTER_GROUPS[conn],
            Object::Blob => BLOB_GROUPS[conn],
        }
    }
}

/// The `n`-th independent 64-bit value derived from `seed`.
pub fn derive(seed: u64, n: u64) -> u64 {
    let mut state = seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut state)
}

/// One request and the reply body it must get.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation name.
    pub operation: &'static str,
    /// Marshalled arguments.
    pub args: Arc<[u8]>,
    /// The reply body a correct system returns.
    pub expected: Arc<[u8]>,
}

/// The request stream of one connection and the model of its group.
#[derive(Debug)]
pub struct OpStream {
    rng: SimRng,
    object: Object,
    echo: bool,
    /// Counter model: the sum of every delta issued.
    sum: u64,
    /// Blob model: puts issued and the pool slot last put.
    puts: u64,
    stored: Arc<[u8]>,
    pool: Vec<Arc<[u8]>>,
    issued: u64,
}

impl OpStream {
    /// The stream connection `conn` of `workload` sends under `seed`.
    pub fn new(workload: &Workload, seed: u64, conn: usize) -> OpStream {
        let mut rng = SimRng::seed_from_u64(derive(seed, 100 + conn as u64));
        let pool = match workload.object {
            Object::Counter => Vec::new(),
            Object::Blob => (0..BLOB_POOL)
                .map(|_| {
                    (0..BLOB_BYTES / 8)
                        .flat_map(|_| rng.next_u64().to_be_bytes())
                        .collect()
                })
                .collect(),
        };
        OpStream {
            rng,
            object: workload.object,
            echo: workload.backend == Backend::Echo,
            sum: 0,
            puts: 0,
            stored: Arc::from(Vec::new()),
            pool,
            issued: 0,
        }
    }

    /// The next request. Requests of one connection execute in the order
    /// they are sent, so the model advances at issue time.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        match self.object {
            Object::Counter => {
                let delta = 1 + self.rng.gen_range(1000);
                let args: Arc<[u8]> = Arc::from(delta.to_be_bytes());
                self.sum = self.sum.wrapping_add(delta);
                let expected = if self.echo {
                    args.clone()
                } else {
                    Arc::from(self.sum.to_be_bytes())
                };
                Op {
                    operation: "add",
                    args,
                    expected,
                }
            }
            Object::Blob if self.issued % 2 == 1 => {
                let slot = self.rng.gen_range(self.pool.len() as u64) as usize;
                self.stored = self.pool[slot].clone();
                self.puts += 1;
                Op {
                    operation: "put",
                    args: self.stored.clone(),
                    expected: Arc::from(self.puts.to_be_bytes()),
                }
            }
            Object::Blob => Op {
                operation: "get",
                args: Arc::from(Vec::new()),
                expected: self.stored.clone(),
            },
        }
    }

    /// A read that changes nothing, and the reply the group must give
    /// if every acknowledged request executed exactly once. `None`
    /// behind the echo backend, which keeps no state to read.
    pub fn final_read(&self) -> Option<Op> {
        if self.echo {
            return None;
        }
        Some(Op {
            operation: "get",
            args: Arc::from(Vec::new()),
            expected: match self.object {
                Object::Counter => Arc::from(self.sum.to_be_bytes()),
                Object::Blob => self.stored.clone(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::Blob;
    use ftd_eternal::{AppObject, Counter, Outcome};

    fn run(object: &mut dyn AppObject, op: &Op) -> Vec<u8> {
        match object.invoke(op.operation, &op.args, 0) {
            Outcome::Reply(bytes) => bytes,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_another() {
        let w = Workload::by_name("sat_small").unwrap();
        let ops = |seed| {
            let mut s = OpStream::new(w, seed, 0);
            (0..50)
                .map(|_| s.next_op().args.to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
        let mut other_conn = OpStream::new(w, 5, 1);
        assert_ne!(ops(5)[0], other_conn.next_op().args.to_vec());
    }

    #[test]
    fn the_model_agrees_with_the_real_objects() {
        let counter = Workload::by_name("sat_small").unwrap();
        let mut stream = OpStream::new(counter, 9, 0);
        let mut object = Counter::new();
        for _ in 0..200 {
            let op = stream.next_op();
            assert_eq!(run(&mut object, &op), &*op.expected);
        }
        let read = stream.final_read().unwrap();
        assert_eq!(run(&mut object, &read), &*read.expected);

        let bulk = Workload::by_name("bulk_mixed").unwrap();
        let mut stream = OpStream::new(bulk, 9, 1);
        let mut object = Blob::default();
        for i in 0..200 {
            let op = stream.next_op();
            assert_eq!(op.operation, if i % 2 == 0 { "put" } else { "get" });
            assert_eq!(run(&mut object, &op), &*op.expected);
        }
        let read = stream.final_read().unwrap();
        assert_eq!(read.expected.len(), BLOB_BYTES);
        assert_eq!(run(&mut object, &read), &*read.expected);
    }

    #[test]
    fn echo_expects_its_own_arguments() {
        let echo = Workload::by_name("echo_small").unwrap();
        let mut stream = OpStream::new(echo, 1, 0);
        let op = stream.next_op();
        assert_eq!(op.args, op.expected);
        assert!(stream.final_read().is_none());
    }
}
