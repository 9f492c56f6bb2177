//! Readiness-driven I/O for the gateway's connection core.
//!
//! The thread-per-connection front end stops scaling around a few
//! thousand clients: every idle connection costs a blocked reader
//! thread and every reply a cross-thread handoff. This module is the
//! replacement substrate — a minimal, `std`-only poller over
//! nonblocking sockets:
//!
//! * [`Poller`] — level-triggered readiness over `poll(2)`, one
//!   instance per gateway shard. Registration is token-keyed so the
//!   shard can map readiness straight back to its connection table.
//! * [`Waker`] — a self-pipe that makes a sleeping [`Poller::poll`]
//!   return early from another thread (rung whenever another thread
//!   queues an event for the shard, or a partial write on a connection
//!   the shard owns). At most one wake byte is ever in flight.
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE` so a single
//!   process can actually hold tens of thousands of sockets (the C50K
//!   configuration; the default soft limit is typically 1024).
//!
//! The implementation wraps the C library's `poll(2)` and
//! `setrlimit(2)` directly (no external crates), so the crate builds on
//! Unix only.

use std::time::Duration;

#[cfg(not(target_family = "unix"))]
compile_error!("ftd-net needs a Unix poll(2)");

/// What readiness a registered file descriptor is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or hangs up).
    pub read: bool,
    /// Wake when the descriptor becomes writable.
    pub write: bool,
}

impl Interest {
    /// Readable-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest — a connection with queued outbound bytes.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report from [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Bytes (or EOF) are waiting to be read.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; read to completion
    /// and close.
    pub hangup: bool,
}

pub use imp::{raise_nofile_limit, raw_fd, Poller, RawSocket, Waker};

mod imp {
    use super::{Event, Interest};
    use std::collections::BTreeMap;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// The raw descriptor type registrations are keyed on (an `i32`
    /// file descriptor).
    pub type RawSocket = RawFd;

    /// Returns the raw descriptor of a TCP stream, for
    /// [`Poller::register`]. Exists so callers stay `cfg`-free.
    pub fn raw_fd(stream: &TcpStream) -> RawSocket {
        stream.as_raw_fd()
    }

    // The tiny slice of libc the poller needs, declared directly: the
    // workspace links no external crates, and these signatures are
    // stable POSIX. This is the only unsafe in the workspace, kept to
    // two thin wrappers with fully owned arguments.
    #[allow(unsafe_code)]
    mod sys {
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: i32,
            pub events: i16,
            pub revents: i16,
        }

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;

        #[cfg(target_os = "linux")]
        type NfdsT = u64;
        #[cfg(not(target_os = "linux"))]
        type NfdsT = u32;

        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }

        #[cfg(target_os = "linux")]
        const RLIMIT_NOFILE: i32 = 7;
        #[cfg(not(target_os = "linux"))]
        const RLIMIT_NOFILE: i32 = 8;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }

        /// `poll(2)` over a scratch slice. `EINTR` reports as zero
        /// ready descriptors — the caller's loop just polls again.
        pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-layout structs for the duration of
            // the call, and its length is passed alongside it.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            Err(err)
        }

        /// Raises `RLIMIT_NOFILE` to at least `want` descriptors and
        /// returns the resulting soft limit. Root may raise the hard
        /// limit too; an unprivileged process is clamped to it.
        pub fn raise_nofile_limit(want: u64) -> std::io::Result<u64> {
            let mut lim = RLimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a valid, exclusively borrowed
            // `#[repr(C)]` rlimit-layout struct the kernel fills in.
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return Err(std::io::Error::last_os_error());
            }
            if lim.cur >= want {
                return Ok(lim.cur);
            }
            let hard = lim.max.max(want);
            let attempt = RLimit {
                cur: want,
                max: hard,
            };
            // SAFETY: passing a valid `#[repr(C)]` rlimit by pointer.
            if unsafe { setrlimit(RLIMIT_NOFILE, &attempt) } == 0 {
                return Ok(want);
            }
            // Raising the hard limit needs privilege; retry clamped to
            // the hard limit we are actually allowed.
            let clamped = RLimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            // SAFETY: as above.
            if unsafe { setrlimit(RLIMIT_NOFILE, &clamped) } == 0 {
                return Ok(clamped.cur);
            }
            Err(std::io::Error::last_os_error())
        }
    }

    pub use sys::raise_nofile_limit;

    /// The token the poller's own wake pipe occupies; never reported.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// Wakes a sleeping [`Poller`] from another thread by writing one
    /// byte into its self-pipe. Cheap to clone; wakes coalesce: while
    /// one is pending (written but not yet drained by `poll`) further
    /// wakes are a single atomic swap, not a syscall.
    #[derive(Clone)]
    pub struct Waker {
        pipe: Arc<UnixStream>,
        pending: Arc<AtomicBool>,
    }

    impl Waker {
        /// Makes the paired poller's next (or current) `poll` return.
        pub fn wake(&self) {
            if !self.pending.swap(true, Ordering::AcqRel) {
                // A full pipe already guarantees a pending wakeup.
                let _ = (&*self.pipe).write(&[1u8]);
            }
        }
    }

    /// Level-triggered readiness over `poll(2)`, token-keyed.
    ///
    /// One instance per shard thread; `register`/`set_interest`/
    /// `deregister` are called only from that thread ([`Waker`] is the
    /// sole cross-thread surface).
    pub struct Poller {
        entries: BTreeMap<u64, (RawFd, Interest)>,
        wake_rx: UnixStream,
        waker: Waker,
        scratch: Vec<sys::PollFd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        /// Creates a poller and its internal wake pipe.
        pub fn new() -> io::Result<Poller> {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            Ok(Poller {
                entries: BTreeMap::new(),
                wake_rx,
                waker: Waker {
                    pipe: Arc::new(wake_tx),
                    pending: Arc::new(AtomicBool::new(false)),
                },
                scratch: Vec::new(),
                tokens: Vec::new(),
            })
        }

        /// A handle other threads can use to interrupt `poll`.
        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Starts watching `fd` under `token`. The token must be
        /// unused (and not `u64::MAX`, which the wake pipe owns).
        pub fn register(&mut self, token: u64, fd: RawSocket, interest: Interest) {
            debug_assert!(token != WAKE_TOKEN, "u64::MAX is reserved");
            self.entries.insert(token, (fd, interest));
        }

        /// Changes what readiness `token` is watched for.
        pub fn set_interest(&mut self, token: u64, interest: Interest) {
            if let Some(entry) = self.entries.get_mut(&token) {
                entry.1 = interest;
            }
        }

        /// Stops watching `token` (idempotent).
        pub fn deregister(&mut self, token: u64) {
            self.entries.remove(&token);
        }

        /// How many descriptors are currently registered.
        pub fn registered(&self) -> usize {
            self.entries.len()
        }

        /// Blocks until at least one registered descriptor is ready,
        /// the waker fires, or `timeout` elapses; ready tokens are
        /// appended to `events` (cleared first).
        pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            self.scratch.clear();
            self.tokens.clear();
            self.scratch.push(sys::PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            self.tokens.push(WAKE_TOKEN);
            for (&token, &(fd, interest)) in &self.entries {
                let mut mask = 0i16;
                if interest.read {
                    mask |= sys::POLLIN;
                }
                if interest.write {
                    mask |= sys::POLLOUT;
                }
                self.scratch.push(sys::PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                });
                self.tokens.push(token);
            }
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let ready = sys::poll_fds(&mut self.scratch, timeout_ms)?;
            if ready == 0 {
                return Ok(());
            }
            for (slot, &token) in self.scratch.iter().zip(&self.tokens) {
                if slot.revents == 0 {
                    continue;
                }
                if token == WAKE_TOKEN {
                    // Drain the wake byte, then re-arm the waker before
                    // the caller reads whatever queue the wake was for:
                    // a later push then writes a fresh byte, and an
                    // earlier one is already visible to that read (its
                    // producer's swap released the push; this swap
                    // acquires it).
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    self.waker.pending.swap(false, Ordering::AcqRel);
                    continue;
                }
                events.push(Event {
                    token,
                    readable: slot.revents & sys::POLLIN != 0,
                    writable: slot.revents & sys::POLLOUT != 0,
                    hangup: slot.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ftd_obs::{RealClock, Stopwatch};

        #[test]
        fn wakes_coalesce_into_one_byte_and_rearm_after_a_drain() {
            let mut poller = Poller::new().unwrap();
            let wakers: Vec<Waker> = (0..4).map(|_| poller.waker()).collect();
            std::thread::scope(|s| {
                for waker in &wakers {
                    s.spawn(move || (0..250).for_each(|_| waker.wake()));
                }
            });
            // A thousand wakes from four threads left exactly one byte.
            let mut buf = [0u8; 64];
            assert_eq!((&poller.wake_rx).read(&mut buf).unwrap(), 1);
            assert!((&poller.wake_rx).read(&mut buf).is_err(), "pipe drained");
            (&*poller.waker.pipe).write_all(&[1]).unwrap(); // put it back

            let mut events = Vec::new();
            let clock = RealClock::new();
            let timed_poll = |poller: &mut Poller, events: &mut Vec<Event>, timeout| {
                let watch = Stopwatch::start(&clock);
                poller.poll(events, timeout).unwrap();
                Duration::from_micros(watch.elapsed_micros())
            };
            let long = Duration::from_secs(10);
            assert!(timed_poll(&mut poller, &mut events, long) < Duration::from_secs(5));
            // Drained and re-armed: nothing pending, so a poll now waits
            // out its timeout ...
            let short = Duration::from_millis(20);
            assert!(timed_poll(&mut poller, &mut events, short) >= short / 2);
            // ... and a wake after the drain makes the next poll return.
            wakers[0].wake();
            assert!(timed_poll(&mut poller, &mut events, long) < Duration::from_secs(5));
        }
    }
}

/// Upper bound on the poll timeout the gateway shard loop uses; keeps
/// the deferred-admission pass, lingered client GC and the stall reset
/// running even on a completely idle shard.
pub(crate) const MAX_POLL_TIMEOUT: Duration = Duration::from_millis(1);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn readable_socket_is_reported_under_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(7, raw_fd(&server), Interest::READ);
        assert_eq!(poller.registered(), 1);

        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.iter().all(|e| !e.readable));

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut seen = false;
        for _ in 0..100 {
            poller.poll(&mut events, Duration::from_millis(10)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                seen = true;
                break;
            }
        }
        assert!(seen, "written bytes must surface as readiness");

        let mut buf = [0u8; 8];
        let mut server = server;
        assert_eq!(server.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn waker_interrupts_a_long_poll() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            waker.wake();
        });
        let mut events = Vec::new();
        // Returns promptly (well under the 5s timeout) because of the
        // wake; an empty event set is the expected result.
        poller.poll(&mut events, Duration::from_secs(5)).unwrap();
        handle.join().unwrap();
        assert!(events.iter().all(|e| e.token != u64::MAX));
    }

    #[test]
    fn write_interest_fires_on_a_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(1, raw_fd(&client), Interest::READ_WRITE);
        let mut events = Vec::new();
        let mut writable = false;
        for _ in 0..100 {
            poller.poll(&mut events, Duration::from_millis(10)).unwrap();
            if events.iter().any(|e| e.token == 1 && e.writable) {
                writable = true;
                break;
            }
        }
        assert!(writable, "an empty send buffer is writable");
    }

    #[test]
    fn deregistered_tokens_stop_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(9, raw_fd(&server), Interest::READ);
        client.write_all(b"x").unwrap();
        poller.deregister(9);
        assert_eq!(poller.registered(), 0);
        let mut events = Vec::new();
        poller.poll(&mut events, Duration::from_millis(5)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn nofile_limit_is_at_least_what_we_ask_for_small_values() {
        // 256 is below every default soft limit; the call must be able
        // to report a limit at least that high without privilege.
        let got = raise_nofile_limit(256).unwrap();
        assert!(got >= 256);
    }
}
