//! `ftd-benchmark` — the repository's one benchmark. See `README.md`
//! next to this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! ftd-benchmark [run] --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ftd-benchmark [run] --all [--seed N] [--seconds S] [--out FILE] [--out-dir DIR]
//! ftd-benchmark compare A.json B.json
//! ftd-benchmark serve --backend domain|echo --seed N      (the gateway child)
//! ```
//!
//! The first form is what the benchmark driver runs: one workload, one
//! mode, and the last line of standard output is one JSON object. The
//! second runs every workload timed and traced and writes a result file
//! for `compare`. Both exit non-zero on any correctness failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blob;
mod echo;
mod inline;
mod json;
mod loadgen;
mod procfs;
mod report;
mod run;
mod scrape;
mod server;
mod stats;
mod workload;

use report::{Declaration, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  ftd-benchmark [run] --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
  ftd-benchmark [run] --all [--seed N] [--seconds S] [--out FILE] [--out-dir DIR]
  ftd-benchmark compare A.json B.json
  ftd-benchmark serve --backend domain|echo --seed N";

/// Flag/value pairs of one subcommand.
struct Args(Vec<String>);

impl Args {
    /// Removes `--flag VALUE` and returns the value.
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: bad value {v:?}")),
        }
    }

    /// Removes a bare `--flag`.
    fn flag(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unknown argument {extra:?}\n{USAGE}")),
        }
    }
}

fn serve(mut args: Args) -> Result<ExitCode, String> {
    let backend = args
        .value("--backend")?
        .and_then(|b| server::Backend::parse(&b))
        .ok_or("serve needs --backend domain|echo")?;
    let seed = args.parsed("--seed")?.ok_or("serve needs --seed N")?;
    args.finish()?;
    server::serve(backend, seed)?;
    Ok(ExitCode::SUCCESS)
}

fn compare(args: Args) -> Result<ExitCode, String> {
    let [a, b] = &args.0[..] else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, worse) = report::compare(&Declaration::load()?, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run(mut args: Args) -> Result<ExitCode, String> {
    let declaration = Declaration::load()?;
    let all = args.flag("--all");
    let one = args.value("--workload")?;
    let trace: Option<u8> = args.parsed("--trace")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: u64 = args.parsed("--seconds")?.unwrap_or(12);
    let out_dir: PathBuf = args
        .value("--out-dir")?
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    let out_file = args.value("--out")?.map(PathBuf::from);
    args.finish()?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }

    // The jobs: one (workload, mode) pair for the driver, or every
    // workload in both modes.
    let jobs: Vec<(&Workload, bool)> = match (all, one, trace) {
        (true, None, None) => WORKLOADS
            .iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
        (false, Some(name), Some(t @ (0 | 1))) => {
            let workload =
                Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            vec![(workload, t == 1)]
        }
        _ => {
            return Err(format!(
                "give --all, or --workload NAME --trace 0|1\n{USAGE}"
            ))
        }
    };

    let mut outcomes: Vec<Outcome> = Vec::new();
    for &(workload, trace) in &jobs {
        let mut outcome = run::run(&run::RunSpec {
            workload,
            seed,
            seconds,
            trace,
            out_dir: &out_dir,
        })?;
        outcome.problems = declaration.lint(&outcome);
        print!("{}", outcome.table());
        outcomes.push(outcome);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("cores={cores} transport=loopback seed={seed} seconds={seconds}");
    if all || out_file.is_some() {
        let path = out_file.unwrap_or_else(|| out_dir.join("result.json"));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, report::result_file(seed, seconds, cores, &outcomes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let [only] = &outcomes[..] {
        println!("{}", only.driver_line());
    }
    Ok(if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("serve" | "compare" | "run") => argv.remove(0),
        Some(first) if first.starts_with("--") && first != "--help" => "run".to_owned(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "serve" => serve(args),
        "compare" => compare(args),
        _ => run(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ftd-benchmark: {e}");
        ExitCode::from(2)
    })
}
