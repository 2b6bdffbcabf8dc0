//! `sea-perfbench` — the repository's benchmark: injection campaigns and
//! beam sessions run end to end through `sea-core`, with a separate traced
//! run that splits them into per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload beam_qsort --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints a result record (metadata, every metric's median and quartiles)
//! and, as the last line, `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when a verdict digest or a replay disagrees. See README.md.

mod record;
mod span;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use record::{collect, Report, END_TO_END};
use workloads::{all, by_name, digest, peak_rss_mb, run_rep, setup, Def, Rep};

/// Timed reps per run at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-ups before each rep take about this share of the previous rep's
/// time, so a 2 ms set-up is sampled as often as a 250 ms one is, across
/// the whole run.
const SETUP_SHARE: f64 = 0.1;

struct Args {
    def: &'static Def,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = all().map(|w| w.name).collect();
    format!(
        "usage: sea-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("{k} is required"));
    let name = get("--workload")?;
    let def = by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        def,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// A scratch directory for journals under `.bench_work/` in the current
/// directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Verdict bookkeeping over a run's reps: every rep must reach the first
/// rep's verdicts, and every run must be clean.
pub struct Tally {
    reference: Vec<String>,
    want: u64,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed: failed in their rep, or disagreeing with the first rep.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Starts from the first rep, whose verdicts the others must reach.
    pub fn new(first: &Rep) -> Tally {
        Tally {
            reference: first.verdicts.clone(),
            want: digest(&first.verdicts),
            attempted: first.total,
            failed: first.failed.len() as u64,
            problems: first.problems.clone(),
        }
    }

    /// Adds a later rep.
    pub fn add(&mut self, label: &str, rep: &Rep) {
        self.attempted += rep.total;
        self.failed += rep.failed.len() as u64;
        self.problems.extend(rep.problems.iter().cloned());
        let got = digest(&rep.verdicts);
        if got != self.want {
            // Runs that failed in either rep are counted already.
            let differ = self
                .reference
                .iter()
                .zip(&rep.verdicts)
                .filter(|(a, b)| !a.is_empty() && !b.is_empty() && a != b)
                .count()
                + self.reference.len().abs_diff(rep.verdicts.len());
            self.failed += differ as u64;
            self.problems.push(format!(
                "{label}: verdict digest {got:016x} != {:016x} ({differ} runs differ)",
                self.want
            ));
        }
    }

    /// The verdict digest every rep must reach.
    pub fn digest(&self) -> u64 {
        self.want
    }

    /// `(attempted, failed, problems)`, with a summary line when runs failed.
    pub fn finish(mut self) -> (u64, u64, Vec<String>) {
        if self.failed > 0 {
            self.problems
                .push(format!("{} of {} runs failed", self.failed, self.attempted));
        }
        (self.attempted, self.failed, self.problems)
    }
}

/// The untraced run: set up, then run one timed rep, over and over for
/// `seconds` (at least [`MIN_REPS`] times), so set-ups and reps sample the
/// same stretch of host time; then one rep at the other thread count,
/// which must reach the same verdicts.
fn end_to_end(def: &Def, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let threads = def.threads();
    let study = def.study(seed, threads, work);
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut tally: Option<Tally> = None;
    let mut last_rep_s = 0.0;
    let t0 = Instant::now();
    let built = loop {
        let t = Instant::now();
        let mut s = setup(def, &study)?;
        loop {
            setup_s.push(s.total_s());
            if t.elapsed().as_secs_f64() >= SETUP_SHARE * last_rep_s {
                break;
            }
            s = setup(def, &study)?;
        }
        let rep = run_rep(def, &study, &s.built)?;
        last_rep_s = rep.wall_s;
        rates.push(rep.runs_per_s());
        match &mut tally {
            None => tally = Some(Tally::new(&rep)),
            Some(t) => t.add(&format!("rep {}", rates.len() - 1), &rep),
        }
        if rates.len() >= MIN_REPS && t0.elapsed().as_secs_f64() >= seconds {
            break s.built;
        }
    };
    let mut tally = tally.expect("at least one rep");
    // Read before the cross-check: it runs at another thread count.
    let peak = peak_rss_mb()?;
    let other = def.other_threads();
    let cross = run_rep(def, &def.study(seed, other, work), &built)?;
    tally.add(&format!("{other} threads"), &cross);

    let digest = tally.digest();
    let (attempted, failed, problems) = tally.finish();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    samples.insert("runs_per_s", rates);
    samples.insert("setup_s", setup_s);
    samples.insert("peak_rss_mb", vec![peak]);
    samples.insert(
        "run_ok_frac",
        vec![1.0 - stats::ratio(failed as f64, attempted as f64)],
    );
    Ok(Report {
        workload: def.name,
        mode: "end_to_end",
        seed,
        threads,
        reps: samples["runs_per_s"].len(),
        digest,
        attempted,
        failed,
        correct: problems.is_empty(),
        problems,
        metrics: collect(END_TO_END, samples),
        spans: Vec::new(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("sea-perfbench: {e}\n{}", usage());
        std::process::exit(2);
    });
    let result = WorkDir::create(args.def.name).and_then(|work| {
        if args.trace {
            traced::run(args.def, args.seed, args.seconds, &work.0)
        } else {
            end_to_end(args.def, args.seed, args.seconds, &work.0)
        }
    });
    let report = result.unwrap_or_else(|e| {
        eprintln!("sea-perfbench: {}: {e}", args.def.name);
        std::process::exit(1);
    });
    for p in &report.problems {
        eprintln!("sea-perfbench: {}: {p}", report.workload);
    }
    for m in &report.metrics {
        eprintln!("{:>40} {:>14.6} {}", m.name, m.value(), m.unit);
    }
    eprintln!(
        "{:>40} {:>14.6} ratio",
        "run_fail_frac",
        report.run_fail_frac()
    );
    // Both lines are checked against their own parsers before they go out.
    let record = report.record_line();
    record::parse_record(&record).expect("result record is well-formed");
    let result = report.result_line();
    record::parse_result(&result).expect("result line is well-formed");
    println!("{record}");
    println!("{result}");
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload beam_qsort --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.def.name, a.seed, a.seconds, a.trace),
            ("beam_qsort", 9, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload beam_qsort --seed x --seconds 1 --trace 0",
            "--workload beam_qsort --seed 1 --seconds 1 --trace 2",
            "--workload beam_qsort --seed 1 --seconds 1",
            "--workload beam_qsort --seed 1 --seconds 1 --trace",
            "--workload beam_qsort --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn rep(verdicts: &[&str]) -> Rep {
        Rep {
            wall_s: 1.0,
            total: verdicts.len() as u64,
            verdicts: verdicts.iter().map(|v| v.to_string()).collect(),
            failed: verdicts
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_empty())
                .map(|(i, _)| i as u64)
                .collect(),
            analytic: 0,
            counters: Default::default(),
            journal: None,
            problems: Vec::new(),
        }
    }

    fn tally(reps: &[&Rep]) -> (u64, u64, Vec<String>) {
        let mut t = Tally::new(reps[0]);
        for r in &reps[1..] {
            t.add("rep", r);
        }
        t.finish()
    }

    #[test]
    fn equal_digests_pass_and_a_changed_verdict_fails() {
        let a = rep(&["0,Masked,data,true", "1,SDC,data,true"]);
        let b = rep(&["0,Masked,data,true", "1,SDC,data,true"]);
        assert_eq!(tally(&[&a, &b]), (4, 0, vec![]));
        let c = rep(&["0,Masked,data,true", "1,AppCrash,data,true"]);
        let (attempted, failed, problems) = tally(&[&a, &c]);
        assert_eq!((attempted, failed), (4, 1));
        assert!(problems[0].contains("1 runs differ"), "{problems:?}");
    }

    #[test]
    fn failed_runs_count_even_when_digests_agree() {
        let a = rep(&["0,Masked,data,true", ""]);
        let (attempted, failed, problems) = tally(&[&a, &a]);
        assert_eq!((attempted, failed), (4, 2));
        assert_eq!(problems.len(), 1);
    }
}
