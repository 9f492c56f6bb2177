//! `Blob`: the replicated object behind the `bulk_mixed` workload.
//!
//! `put` stores its argument bytes and replies with the number of puts
//! so far (8 bytes); `get` replies with the stored bytes. A 4 KiB `put`
//! followed by a `get` therefore moves the same bytes once in each
//! direction through every layer.

use ftd_eternal::{AppObject, Outcome};

/// The object-registry type name of [`Blob`].
pub const BLOB_TYPE: &str = "Blob";

/// See the module docs.
#[derive(Debug, Default, Clone)]
pub struct Blob {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(outcome: Outcome) -> Vec<u8> {
        match outcome {
            Outcome::Reply(bytes) => bytes,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_returns_the_last_put() {
        let mut blob = Blob::default();
        assert_eq!(reply(blob.invoke("get", &[], 0)), Vec::<u8>::new());
        assert_eq!(reply(blob.invoke("put", &[1; 4096], 0)), 1u64.to_be_bytes());
        assert_eq!(reply(blob.invoke("put", &[2; 4096], 0)), 2u64.to_be_bytes());
        assert_eq!(reply(blob.invoke("get", &[], 0)), vec![2; 4096]);
        assert_eq!(reply(blob.invoke("get", &[], 0)), vec![2; 4096]);
        assert_eq!(reply(blob.invoke("nope", &[], 0)), b"BAD_OPERATION");
    }

    #[test]
    fn state_round_trips() {
        let mut blob = Blob::default();
        blob.invoke("put", b"hello", 0);
        let mut copy = Blob::default();
        copy.set_state(&blob.state());
        assert_eq!(reply(copy.invoke("get", &[], 0)), b"hello");
        assert_eq!(reply(copy.invoke("put", b"x", 0)), 2u64.to_be_bytes());
    }
}
