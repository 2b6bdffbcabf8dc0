//! Metric names, the result line the benchmark ends with, and the result
//! record (metadata plus every metric's median and quartiles) printed just
//! before it.

use std::collections::BTreeMap;
use std::path::Path;

use sea_core::trace::json::{self, Json, ObjWriter};

use crate::stats::{median, quantile};

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "runs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("run_ok_frac", "ratio"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("platform.golden_s", "s"),
    ("platform.boot_ms", "ms"),
    ("platform.run_ms", "ms"),
    ("platform.classify_us", "us"),
    ("snapshot.capture_s", "s"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_speedup", "ratio"),
    ("microarch.clone_ms", "ms"),
    ("microarch.advance_ms_per_run", "ms"),
    ("microarch.advance_cycles_per_run", "cycles"),
    ("microarch.suffix_cycles_per_run", "cycles"),
    ("microarch.flip_us", "us"),
    ("microarch.ref_msteps_per_s", "Msteps/s"),
    ("microarch.fast_msteps_per_s", "Msteps/s"),
    ("microarch.host_ns_per_cycle", "ns"),
    ("microarch.uop_hit_rate", "ratio"),
    ("microarch.line_hit_rate", "ratio"),
    ("injection.run_index_ms_p50", "ms"),
    ("injection.run_index_ms_p99", "ms"),
    ("injection.nocursor_run_index_ms_p50", "ms"),
    ("injection.cursor_speedup", "ratio"),
    ("injection.harness_overhead_frac", "ratio"),
    ("injection.cursor_reuse_frac", "ratio"),
    ("injection.prefix_cycles_saved_frac", "ratio"),
    ("injection.masked_suffix_cycles_frac", "ratio"),
    ("durable.append_us_p50", "us"),
    ("durable.append_us_p99", "us"),
    ("durable.fsync_ms", "ms"),
    ("durable.fsyncs_per_run", "count"),
    ("durable.bytes_per_run", "bytes"),
    ("durable.resume_ms", "ms"),
    ("durable.order_inversions", "count"),
    ("beam.residency_s", "s"),
    ("beam.analytic_frac", "ratio"),
    ("fleet.merge_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("counters.warp_handoffs", "count"),
    ("counters.warp_cursor_resets", "count"),
    ("counters.warp_prefix_cycles_saved", "count"),
    ("counters.warp_advance_cycles", "count"),
    ("counters.fastpath_uop_hits", "count"),
    ("counters.fastpath_uop_misses", "count"),
    ("counters.fastpath_latch_hits", "count"),
    ("counters.fastpath_line_hits", "count"),
    ("counters.run_cycles_count", "count"),
    ("counters.run_cycles_sum", "count"),
    ("counters.watchdog_kills", "count"),
    ("counters.snapshot_saves", "count"),
    ("counters.snapshot_restores", "count"),
    ("counters.snapshot_prefix_cycles_saved", "count"),
    ("counters.journal_fsyncs", "count"),
    ("counters.journal_retries", "count"),
];

/// True when `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One metric: every sample a run took of it. The reported value is the
/// median; the record also carries the quartiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit, as declared next to the name.
    pub unit: &'static str,
    /// Samples, one per rep (or per timed call).
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Turns a sample map into metrics in the declared order.
///
/// # Panics
///
/// When a declared metric was not measured or an undeclared one was: the
/// benchmark must print exactly its declared set.
pub fn collect(
    declared: &[(&'static str, &'static str)],
    mut samples: BTreeMap<&'static str, Vec<f64>>,
) -> Vec<Metric> {
    let metrics = declared
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            samples: samples
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured")),
        })
        .collect();
    assert!(
        samples.is_empty(),
        "undeclared metrics: {:?}",
        samples.keys()
    );
    metrics
}

/// Aggregate of one span name over a traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans.
    pub self_s: f64,
}

/// Everything one invocation reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Benchmark workload name.
    pub workload: &'static str,
    /// `"end_to_end"` (tracing off) or `"traced"`.
    pub mode: &'static str,
    /// The `--seed` argument.
    pub seed: u64,
    /// Worker threads the workload runs at.
    pub threads: usize,
    /// Timed reps behind the end-to-end samples.
    pub reps: usize,
    /// Verdict digest every rep agreed on.
    pub digest: u64,
    /// Runs attempted across the timed reps.
    pub attempted: u64,
    /// Runs among them that failed: quarantined, lost, missing from the
    /// journal, or disagreeing with the reference.
    pub failed: u64,
    /// Every correctness check held.
    pub correct: bool,
    /// Human-readable reasons for `correct == false`.
    pub problems: Vec<String>,
    /// The metrics, in declared order.
    pub metrics: Vec<Metric>,
    /// Span aggregates (traced runs only).
    pub spans: Vec<SpanTotal>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision; "unknown" outside a git work tree (the
/// lookup never walks above the current directory).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Per-sample values as a JSON array, formatted like [`ObjWriter`] does.
fn samples_json(xs: &[f64]) -> String {
    let items: Vec<String> = xs
        .iter()
        .map(|x| {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".into()
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Host cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Report {
    /// Failed runs as a share of runs attempted.
    pub fn run_fail_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result record: metadata plus each metric's median and quartiles.
    pub fn record_line(&self) -> String {
        let mut metrics = ObjWriter::new();
        for m in &self.metrics {
            let mut o = ObjWriter::new();
            o.str_field("unit", m.unit)
                .f64_field("median", m.value())
                .f64_field("q1", quantile(&m.samples, 0.25))
                .f64_field("q3", quantile(&m.samples, 0.75))
                .u64_field("n", m.samples.len() as u64)
                .raw_field("samples", &samples_json(&m.samples));
            metrics.raw_field(m.name, &o.finish());
        }
        let mut spans = ObjWriter::new();
        for s in &self.spans {
            let mut o = ObjWriter::new();
            o.u64_field("count", s.count)
                .f64_field("total_s", s.total_s)
                .f64_field("self_s", s.self_s);
            spans.raw_field(s.name, &o.finish());
        }
        let mut w = ObjWriter::new();
        w.str_field("record", "sea-perfbench")
            .str_field("workload", self.workload)
            .str_field("mode", self.mode)
            .str_field("git_rev", &git_rev())
            .u64_field("host_cores", nproc() as u64)
            .str_field("cpu_model", &cpu_model())
            .u64_field("nproc", nproc() as u64)
            .u64_field("threads", self.threads as u64)
            .u64_field("seed", self.seed)
            .str_field(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .u64_field("reps", self.reps as u64)
            .str_field("digest", &format!("{:016x}", self.digest))
            .f64_field("run_fail_frac", self.run_fail_frac())
            .raw_field("metrics", &metrics.finish())
            .raw_field("spans", &spans.finish());
        w.finish()
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = ObjWriter::new();
        for m in &self.metrics {
            let mut o = ObjWriter::new();
            o.f64_field("value", m.value()).str_field("unit", m.unit);
            metrics.raw_field(m.name, &o.finish());
        }
        let mut w = ObjWriter::new();
        w.bool_field("correct", self.correct)
            .u64_field("attempted", self.attempted)
            .u64_field("failed", self.failed)
            .raw_field("metrics", &metrics.finish());
        w.finish()
    }
}

/// A parsed result line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    /// `correct` field.
    pub correct: bool,
    /// `attempted` field.
    pub attempted: u64,
    /// `failed` field.
    pub failed: u64,
    /// `(value, unit)` per metric name.
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses and validates a result line: exactly the four keys, whole
/// counts, `attempted >= 1`, valid metric names, numeric values.
pub fn parse_result(line: &str) -> Result<ParsedResult, String> {
    let j = json::parse(line).map_err(|e| format!("not JSON: {e:?}"))?;
    let Json::Obj(fields) = &j else {
        return Err("not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("keys {keys:?}"));
    }
    let count = |k: &str| -> Result<u64, String> {
        let v = j
            .get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("{k} not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("{k} not a whole number"));
        }
        Ok(v as u64)
    };
    let attempted = count("attempted")?;
    if attempted == 0 {
        return Err("attempted is 0".into());
    }
    let Some(Json::Obj(ms)) = j.get("metrics") else {
        return Err("metrics not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in ms {
        if !valid_name(name) {
            return Err(format!("bad metric name {name:?}"));
        }
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: no value"))?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or(format!("{name}: no unit"))?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(ParsedResult {
        correct: j
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("correct not a bool")?,
        attempted,
        failed: count("failed")?,
        metrics,
    })
}

/// Parses a result record, returning `(workload, seed, metric medians)`.
pub fn parse_record(line: &str) -> Result<(String, u64, BTreeMap<String, f64>), String> {
    let j = json::parse(line).map_err(|e| format!("not JSON: {e:?}"))?;
    if j.get("record").and_then(Json::as_str) != Some("sea-perfbench") {
        return Err("not a sea-perfbench record".into());
    }
    for key in ["git_rev", "cpu_model", "profile", "digest"] {
        j.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("{key} missing"))?;
    }
    for key in ["host_cores", "nproc", "threads", "reps"] {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{key} missing"))?;
    }
    let workload = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("workload missing")?;
    let seed = j.get("seed").and_then(Json::as_u64).ok_or("seed missing")?;
    let Some(Json::Obj(ms)) = j.get("metrics") else {
        return Err("metrics not an object".into());
    };
    let mut medians = BTreeMap::new();
    for (name, m) in ms {
        for key in ["median", "q1", "q3"] {
            m.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: {key} missing"))?;
        }
        medians.insert(
            name.clone(),
            m.get("median").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    Ok((workload.to_string(), seed, medians))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn name_grammar() {
        for ok in ["runs_per_s", "durable.append_us_p99", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "a b", "a/b", "naïve", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_code_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let j = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("{key} is not an array");
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
        let Some(Json::Arr(workloads)) = j.get("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    fn sample_report() -> Report {
        Report {
            workload: "inject_crc32",
            mode: "end_to_end",
            seed: 7,
            threads: 1,
            reps: 3,
            digest: 0xfeed,
            attempted: 360,
            failed: 0,
            correct: true,
            problems: vec![],
            metrics: END_TO_END
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    samples: vec![1.5, 0.25, 3.125],
                })
                .collect(),
            spans: vec![SpanTotal {
                name: "run_index",
                count: 3,
                total_s: 0.5,
                self_s: 0.25,
            }],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = sample_report();
        let p = parse_result(&r.result_line()).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (360, 0));
        assert_eq!(p.metrics.len(), END_TO_END.len());
        assert_eq!(p.metrics["runs_per_s"], (1.5, "runs/s".to_string()));
    }

    #[test]
    fn record_line_round_trips() {
        let r = sample_report();
        let (workload, seed, medians) = parse_record(&r.record_line()).expect("parses");
        assert_eq!((workload.as_str(), seed), ("inject_crc32", 7));
        assert_eq!(medians["setup_s"], 1.5);
    }

    #[test]
    fn malformed_results_are_rejected() {
        for bad in [
            "not json",
            r#"{"correct":true,"attempted":1,"failed":0}"#,
            r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a b":{"value":1,"unit":"s"}}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"unit":"s"}}}"#,
            r#"{"attempted":1,"correct":true,"failed":0,"metrics":{}}"#,
        ] {
            assert!(parse_result(bad).is_err(), "{bad}");
        }
        assert!(parse_record(r#"{"record":"other"}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn collect_insists_on_every_declared_metric() {
        collect(END_TO_END, BTreeMap::new());
    }
}
