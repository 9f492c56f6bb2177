//! CPU and memory of a process from `/proc`, by thread-name role.
//!
//! The gateway names its threads (`ftd-domain`, `ftd-gateway-shard-N`,
//! `ftd-gateway-accept`); the kernel keeps the first 15 bytes as the
//! thread's `comm`. Summing `utime + stime` per role at both edges of
//! the measured period says which layer the CPU went to without
//! touching the server.

use std::io;

/// `/proc` reports CPU time in `USER_HZ` ticks, which is 100 on every
/// Linux ABI (it is a userspace constant, independent of the kernel's
/// own `HZ`).
pub const TICK_US: u64 = 10_000;

/// Which gateway layer a thread belongs to, from its `comm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `ftd-domain`: the sim world, the Totem ring and the replicas.
    Domain,
    /// `ftd-gateway-shard-N`: reactor, framing and the engine.
    Shard,
    /// `ftd-gateway-accept`.
    Accept,
    /// Main, metrics and anything else.
    Other,
}

impl Role {
    /// Classifies a (possibly 15-byte-truncated) thread name.
    pub fn of(comm: &str) -> Role {
        if comm == "ftd-domain" {
            Role::Domain
        } else if comm.starts_with("ftd-gateway-sha") {
            Role::Shard
        } else if comm.starts_with("ftd-gateway-acc") {
            Role::Accept
        } else {
            Role::Other
        }
    }
}

/// One `/proc/<pid>/stat` (or `task/<tid>/stat`) line: the name and the
/// CPU ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatLine {
    /// The `comm` field, parentheses removed.
    pub comm: String,
    /// `utime + stime` in ticks.
    pub cpu_ticks: u64,
}

/// Parses a stat line. The `comm` field is wrapped in parentheses and
/// may itself hold spaces and parentheses, so it ends at the *last*
/// `)`; `utime` and `stime` are fields 14 and 15.
pub fn parse_stat(line: &str) -> Option<StatLine> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_owned();
    // After the comm comes field 3 (state), so utime is the 12th.
    let mut rest = line[close + 1..].split_ascii_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(StatLine {
        comm,
        cpu_ticks: utime + stime,
    })
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` body.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// CPU time of one process at one instant, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSample {
    /// Whole process, from `/proc/<pid>/stat`.
    pub total_us: u64,
    /// The `ftd-domain` thread.
    pub domain_us: u64,
    /// All `ftd-gateway-shard-*` threads together.
    pub shards_us: u64,
    /// How many shard threads were seen.
    pub shard_threads: u64,
    /// The `ftd-gateway-accept` thread.
    pub accept_us: u64,
}

impl CpuSample {
    /// Reads the process and every thread of it. `pid` may be `"self"`.
    pub fn read(pid: &str) -> io::Result<CpuSample> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        let process = parse_stat(&stat).ok_or_else(|| bad("unparseable /proc/<pid>/stat"))?;
        let mut sample = CpuSample {
            total_us: process.cpu_ticks * TICK_US,
            ..CpuSample::default()
        };
        for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            // A thread may exit between the listing and the read.
            let Ok(line) = std::fs::read_to_string(entry?.path().join("stat")) else {
                continue;
            };
            let thread = parse_stat(&line).ok_or_else(|| bad("unparseable task stat"))?;
            let us = thread.cpu_ticks * TICK_US;
            match Role::of(&thread.comm) {
                Role::Domain => sample.domain_us += us,
                Role::Shard => {
                    sample.shards_us += us;
                    sample.shard_threads += 1;
                }
                Role::Accept => sample.accept_us += us,
                Role::Other => {}
            }
        }
        Ok(sample)
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            total_us: self.total_us.saturating_sub(earlier.total_us),
            domain_us: self.domain_us.saturating_sub(earlier.domain_us),
            shards_us: self.shards_us.saturating_sub(earlier.shards_us),
            shard_threads: self.shard_threads,
            accept_us: self.accept_us.saturating_sub(earlier.accept_us),
        }
    }
}

/// Peak resident set of `pid` in MiB.
pub fn vm_hwm_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real task stat line with the comm swapped for `name`.
    fn fixture(name: &str, utime: u64, stime: u64) -> String {
        format!(
            "4242 ({name}) S 1 4242 4242 0 -1 4194560 153 0 0 0 {utime} {stime} 0 0 20 0 7 0 \
             8812 283115520 1200 18446744073709551615 1 1 0 0 0 0 0 4096 17474 0 0 0 -1 1 0 0 \
             0 0 0 0 0 0 0 0 0 0 0"
        )
    }

    #[test]
    fn stat_parser_reads_name_and_ticks() {
        let s = parse_stat(&fixture("ftd-domain", 240, 31)).unwrap();
        assert_eq!(s.comm, "ftd-domain");
        assert_eq!(s.cpu_ticks, 271);
    }

    #[test]
    fn comm_may_hold_spaces_and_parentheses() {
        let s = parse_stat(&fixture("tricky) S (name 1 2", 5, 6)).unwrap();
        assert_eq!(s.comm, "tricky) S (name 1 2");
        assert_eq!(s.cpu_ticks, 11);
        assert!(parse_stat("no parens here").is_none());
        assert!(parse_stat("1 (short) S 1 2").is_none());
    }

    #[test]
    fn roles_match_on_the_15_byte_truncation() {
        // What the kernel keeps of "ftd-gateway-shard-0" / "-accept".
        assert_eq!(Role::of("ftd-gateway-sha"), Role::Shard);
        assert_eq!(Role::of("ftd-gateway-acc"), Role::Accept);
        assert_eq!(Role::of("ftd-gateway-met"), Role::Other);
        assert_eq!(Role::of("ftd-domain"), Role::Domain);
        assert_eq!(Role::of("ftd-benchmark"), Role::Other);
    }

    #[test]
    fn vm_hwm_is_found_in_a_status_body() {
        let status = "Name:\tx\nVmPeak:\t  276480 kB\nVmHWM:\t   12344 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12344));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let s = CpuSample::read("self").unwrap();
        assert_eq!(s.shard_threads, 0);
        assert!(vm_hwm_mib(std::process::id()).unwrap() > 0.0);
    }
}
