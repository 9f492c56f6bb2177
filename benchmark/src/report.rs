//! What a run reports and how it is held against `BENCHMARK.json`: the
//! declaration lint, the driver's one-line result, the result file of
//! `run --all`, and the `compare` subcommand.

use crate::json::{self, Json};
use crate::stats::WindowSummary;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Where the declaration lives, relative to the checkout root the
/// benchmark is run from.
pub const DECLARATION_PATH: &str = "BENCHMARK.json";

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The value; a median of window values where `windows` is set.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Samples behind the value (requests, windows, set-ups, ...).
    pub samples: u64,
    /// The per-window values behind a windowed metric.
    pub windows: Option<WindowSummary>,
}

impl Metric {
    /// A metric that is one number.
    pub fn single(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            windows: None,
        }
    }

    /// A metric that is the median of per-window values.
    pub fn windowed(
        name: &'static str,
        windows: WindowSummary,
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            name,
            value: windows.median,
            unit,
            samples,
            windows: Some(windows),
        }
    }
}

/// The result of one (workload, trace mode) run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// `false`: the timed run (end-to-end metrics); `true`: the traced
    /// run (per-layer metrics).
    pub trace: bool,
    /// Operations attempted: every request sent plus every oracle check.
    pub attempted: u64,
    /// Operations that failed (see `failed_share` in the README).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Declaration-lint problems; a run with any is not correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// No failed operation and no lint problem.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable table: every metric by name with its unit,
    /// sample count and window spread.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({} run): attempted={} failed={} failed_share={}\n",
            self.workload,
            if self.trace { "traced" } else { "timed" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            let _ = write!(
                out,
                "  {:<44} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if let Some(w) = m.windows {
                let _ = write!(out, "  windows {:.4}..{:.4}", w.min, w.max);
            }
            out.push('\n');
        }
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }

    /// The one JSON object the driver reads from the last line.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut s = format!(
                    "      {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit),
                    m.samples
                );
                if let Some(w) = m.windows {
                    let _ = write!(
                        s,
                        ", \"min\": {}, \"q1\": {}, \"q3\": {}, \"max\": {}",
                        json::number(w.min),
                        json::number(w.q1),
                        json::number(w.q3),
                        json::number(w.max)
                    );
                }
                s.push('}');
                s
            })
            .collect();
        format!("{{\n{}\n    }}", members.join(",\n"))
    }
}

/// Renders the result file of a set of runs (`run --all --out FILE`).
pub fn result_file(seed: u64, seconds: u64, cores: usize, outcomes: &[Outcome]) -> String {
    let mut by_workload: BTreeMap<&str, Vec<&Outcome>> = BTreeMap::new();
    for o in outcomes {
        by_workload.entry(o.workload).or_default().push(o);
    }
    let workloads: Vec<String> = by_workload
        .iter()
        .map(|(name, runs)| {
            let sections: Vec<String> = runs
                .iter()
                .map(|o| {
                    let (section, prefix) = if o.trace {
                        ("per_layer", "traced")
                    } else {
                        ("end_to_end", "timed")
                    };
                    format!(
                        "    \"{prefix}_attempted\": {}, \"{prefix}_failed\": {},\n    \"{section}\": {}",
                        o.attempted,
                        o.failed,
                        o.metrics_json()
                    )
                })
                .collect();
            format!("  {}: {{\n{}\n  }}", json::quote(name), sections.join(",\n"))
        })
        .collect();
    format!(
        "{{\n\"seed\": {seed}, \"seconds\": {seconds}, \"cores\": {cores}, \"transport\": \"loopback\",\n\"workloads\": {{\n{}\n}}\n}}\n",
        workloads.join(",\n")
    )
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// Declared end-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Declared per-layer metrics.
    pub per_layer: Vec<Declared>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

impl Declaration {
    /// Parses a `BENCHMARK.json` body.
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .ok_or_else(|| format!("declaration: no {key:?}"))?
                .elements()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("declaration: {key} metric without {k:?}"))
                    };
                    let name = text("name")?.to_owned();
                    let better = match text("better")? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("declaration: {name}: better={other:?}")),
                    };
                    let bound = m.get("bound").and_then(Json::as_f64);
                    if bounded != bound.is_some() {
                        return Err(format!("declaration: {name}: bound missing or misplaced"));
                    }
                    Ok(Declared {
                        unit: text("unit")?.to_owned(),
                        name,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Declaration {
            workloads: doc
                .get("workloads")
                .ok_or("declaration: no \"workloads\"")?
                .elements()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Reads the declaration from the checkout root.
    pub fn load() -> Result<Declaration, String> {
        let text = std::fs::read_to_string(DECLARATION_PATH)
            .map_err(|e| format!("{DECLARATION_PATH}: {e} (run from the repository root)"))?;
        Declaration::parse(&text)
    }

    /// The declaration lint: the workload is declared; every emitted
    /// name is well-formed, declared in the run's section and carries
    /// the declared unit and a finite value; every metric the section
    /// declares was emitted exactly once.
    pub fn lint(&self, outcome: &Outcome) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.workloads.iter().any(|w| w == outcome.workload) {
            problems.push(format!("workload {} is not declared", outcome.workload));
        }
        let declared = if outcome.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in &outcome.metrics {
            if !valid_name(m.name) {
                problems.push(format!("{:?} is not a metric name", m.name));
            }
            match declared.iter().find(|d| d.name == m.name) {
                None => problems.push(format!("{} is emitted but not declared", m.name)),
                Some(d) if d.unit != m.unit => problems.push(format!(
                    "{}: emitted in {:?}, declared in {:?}",
                    m.name, m.unit, d.unit
                )),
                Some(_) => {}
            }
            if !m.value.is_finite() {
                problems.push(format!("{} has no finite value", m.name));
            }
        }
        for d in declared {
            let emitted = outcome.metrics.iter().filter(|m| m.name == d.name).count();
            if emitted != 1 {
                problems.push(format!(
                    "{} × {}: declared, emitted {emitted} times",
                    outcome.workload, d.name
                ));
            }
        }
        problems
    }
}

/// One value read back from a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Recorded {
    value: f64,
    /// First and third quartile of the window values, if windowed.
    quartiles: Option<(f64, f64)>,
}

fn recorded(doc: &Json, workload: &str, metric: &str) -> Option<Recorded> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Recorded {
        value: m.get("value")?.as_f64()?,
        quartiles: m
            .get("q1")
            .and_then(Json::as_f64)
            .zip(m.get("q3").and_then(Json::as_f64)),
    })
}

fn failed_ops(doc: &Json, workload: &str) -> u64 {
    let w = doc.get("workloads").and_then(|w| w.get(workload));
    ["timed_failed", "traced_failed"]
        .iter()
        .filter_map(|k| w?.get(k)?.as_u64())
        .sum()
}

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The window spread of A or B — the distance between the first
    /// and third quartile of its window values, as a share of its
    /// median — exceeds the bound: the runs cannot resolve a change of
    /// that size.
    Unresolved,
}

/// Judges B against A for one metric: `worse_by` is the change in the
/// metric's bad direction as a share of A.
pub fn judge(
    better: Better,
    bound: f64,
    a: f64,
    b: f64,
    quartiles: [Option<(f64, f64)>; 2],
) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let widest = quartiles
        .iter()
        .zip([a, b])
        .filter_map(|(q, v)| q.map(|(q1, q3)| (q3 - q1) / v.abs()))
        .fold(0.0, f64::max);
    let verdict = if widest > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `setup_s` is a few milliseconds here, where one scheduler hiccup is a
/// quarter of it: a set-up that got slower by less than this many
/// seconds is never `worse`, whatever its share.
const SETUP_FLOOR_S: f64 = 0.05;

/// `compare A.json B.json`: one row per workload × end-to-end metric,
/// each judged by its declared bound and direction. Returns the table
/// and whether any row is `worse` (or any operation failed in B).
pub fn compare(decl: &Declaration, a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = Json::parse(a_text)?;
    let b = Json::parse(b_text)?;
    let mut table = format!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut any_worse = false;
    for workload in &decl.workloads {
        for d in &decl.end_to_end {
            let bound = d.bound.unwrap_or(0.0);
            let (Some(ra), Some(rb)) = (
                recorded(&a, workload, &d.name),
                recorded(&b, workload, &d.name),
            ) else {
                let _ = writeln!(table, "{workload:<12} {:<24} missing from A or B", d.name);
                any_worse = true;
                continue;
            };
            let (worse_by, verdict) = judge(
                d.better,
                bound,
                ra.value,
                rb.value,
                [ra.quartiles, rb.quartiles],
            );
            let verdict = match verdict {
                Verdict::Worse if d.name == "setup_s" && rb.value - ra.value < SETUP_FLOOR_S => {
                    Verdict::Ok
                }
                other => other,
            };
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                table,
                "{workload:<12} {:<24} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                d.name,
                ra.value,
                rb.value,
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // failed_share has an absolute bound of 0.
        let (fa, fb) = (failed_ops(&a, workload), failed_ops(&b, workload));
        any_worse |= fb > 0;
        let _ = writeln!(
            table,
            "{workload:<12} {:<24} {fa:>14} {fb:>14} {:>9} {:>7}  {}",
            "failed",
            "",
            "0",
            if fb > 0 { "worse" } else { "ok" }
        );
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECL: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 16,
        "workloads": [{"name": "sat_small", "why": "w"}],
        "end_to_end": [
            {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ],
        "per_layer": [{"name": "net.host.pump.ns_per_req", "unit": "ns", "better": "lower"}]
    }"#;

    fn outcome(metrics: Vec<Metric>) -> Outcome {
        Outcome {
            workload: "sat_small",
            trace: false,
            attempted: 10,
            failed: 0,
            metrics,
            problems: Vec::new(),
        }
    }

    fn both() -> Vec<Metric> {
        vec![
            Metric::windowed(
                "throughput_rps",
                WindowSummary {
                    median: 100.0,
                    min: 90.0,
                    max: 130.0,
                    q1: 98.0,
                    q3: 103.0,
                },
                "req/s",
                800,
            ),
            Metric::single("setup_s", 0.5, "s", 3),
        ]
    }

    #[test]
    fn lint_accepts_exactly_the_declared_set() {
        let decl = Declaration::parse(DECL).unwrap();
        assert!(decl.lint(&outcome(both())).is_empty());
    }

    #[test]
    fn lint_reports_missing_undeclared_misnamed_and_wrong_units() {
        let decl = Declaration::parse(DECL).unwrap();
        let missing = decl.lint(&outcome(vec![both().remove(0)]));
        assert!(missing.iter().any(|p| p.contains("setup_s")), "{missing:?}");

        let mut extra = both();
        extra.push(Metric::single("latency p50", 1.0, "us", 1));
        let problems = decl.lint(&outcome(extra));
        assert!(problems.iter().any(|p| p.contains("not a metric name")));
        assert!(problems.iter().any(|p| p.contains("not declared")));

        let mut unit = both();
        unit[1].unit = "ms";
        assert!(decl
            .lint(&outcome(unit))
            .iter()
            .any(|p| p.contains("declared in")));

        let mut nan = both();
        nan[0].value = f64::NAN;
        assert!(decl
            .lint(&outcome(nan))
            .iter()
            .any(|p| p.contains("finite")));

        let mut other = outcome(both());
        other.workload = "nope";
        assert!(decl.lint(&other).iter().any(|p| p.contains("not declared")));

        // A traced run is held against the per-layer section.
        let mut traced = outcome(vec![Metric::single(
            "net.host.pump.ns_per_req",
            9.0,
            "ns",
            1,
        )]);
        traced.trace = true;
        assert!(decl.lint(&traced).is_empty());
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let tight = Some((99.0, 101.0));
        // Throughput down 5 % is inside a 10 % bound, down 20 % is not.
        let (by, v) = judge(Better::Higher, 0.1, 100.0, 95.0, [tight, tight]);
        assert!((by - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        assert_eq!(
            judge(Better::Higher, 0.1, 100.0, 80.0, [tight, tight]).1,
            Verdict::Worse
        );
        // Getting better is never worse.
        assert_eq!(
            judge(Better::Higher, 0.1, 100.0, 150.0, [tight, None]).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 111.0, [None, None]).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 90.0, [None, None]).1,
            Verdict::Ok
        );
        // Windows 30 % apart cannot resolve a 10 % change either way.
        let wide = Some((80.0, 110.0));
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 100.0, [wide, tight]).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 100.0, 150.0, [tight, wide]).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_reads_back_what_result_file_wrote() {
        let decl = Declaration::parse(DECL).unwrap();
        let a = result_file(1, 16, 2, &[outcome(both())]);
        let mut slower = both();
        slower[0].value = 85.0;
        slower[0].windows = Some(WindowSummary {
            median: 85.0,
            min: 60.0,
            max: 90.0,
            q1: 84.0,
            q3: 86.0,
        });
        let b = result_file(1, 16, 2, &[outcome(slower)]);

        let (table, worse) = compare(&decl, &a, &a).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.matches(" ok").count(), 3, "{table}");

        let (table, worse) = compare(&decl, &a, &b).unwrap();
        assert!(worse);
        assert!(table.contains("worse"), "{table}");

        let mut failing = outcome(both());
        failing.failed = 2;
        let c = result_file(1, 16, 2, &[failing]);
        assert!(
            compare(&decl, &a, &c).unwrap().1,
            "a failed operation is worse"
        );
    }

    #[test]
    fn a_setup_change_under_the_absolute_floor_is_not_worse() {
        let decl = Declaration::parse(DECL).unwrap();
        let with_setup = |seconds: f64| {
            let mut metrics = both();
            metrics[1].value = seconds;
            result_file(1, 16, 2, &[outcome(metrics)])
        };
        // Twice as slow, but by 8 ms.
        let (table, worse) = compare(&decl, &with_setup(0.008), &with_setup(0.016)).unwrap();
        assert!(!worse, "{table}");
        // 70 ms slower is past the floor and past the bound.
        assert!(
            compare(&decl, &with_setup(0.008), &with_setup(0.078))
                .unwrap()
                .1
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = outcome(both()).driver_line();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("throughput_rps").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(100.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("req/s"));
        assert!(!line.contains('\n'));
    }
}
