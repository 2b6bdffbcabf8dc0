//! Strike-log contracts of a beam session at one thread.
//!
//! Strikes run in strike-cycle order (so the warp cursor only moves
//! forward), and the log records them in that order. The log is still a
//! deterministic function of the session's physics: it does not depend on
//! the execution tiers, a truncated log resumes to the same bytes, and a
//! margin-stopped session (which runs in index order) leaves a byte-prefix
//! of the log it writes when its margin is never reached.

use sea_beam::{run_session, BeamConfig};
use sea_injection::supervisor::journal_file;
use sea_injection::{JournalFormat, JournalSpec};
use sea_trace::json::{parse, Json};
use sea_workloads::{BuiltWorkload, Scale, Workload};
use std::fs;
use std::path::{Path, PathBuf};

const STRIKES: u32 = 120;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_strike_log_{}_{}", name, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn qsort() -> BuiltWorkload {
    Workload::Qsort.build(Scale::Tiny)
}

fn cfg(dir: &Path) -> BeamConfig {
    BeamConfig {
        threads: 1,
        journal: Some(JournalSpec::new(dir)),
        ..BeamConfig::default()
    }
}

fn log_path(dir: &Path, format: JournalFormat) -> PathBuf {
    journal_file(dir, "beam", "Qsort", format)
}

/// Strike indices of a JSONL strike log, in log order (the first line is
/// the identity header and carries no index).
fn logged_indices(bytes: &[u8]) -> Vec<u64> {
    std::str::from_utf8(bytes)
        .unwrap()
        .lines()
        .skip(1)
        .map(|l| parse(l).unwrap().get("i").and_then(Json::as_u64).unwrap())
        .collect()
}

#[test]
fn strike_log_is_identical_with_warp_and_fast_path_on_and_off() {
    let w = qsort();
    let plain_dir = scratch("plain");
    let fast_dir = scratch("fast");

    let a = run_session("Qsort", &w, &cfg(&plain_dir), STRIKES).unwrap();
    let fast = BeamConfig {
        warp: true,
        fast_path: true,
        ..cfg(&fast_dir)
    };
    let b = run_session("Qsort", &w, &fast, STRIKES).unwrap();

    assert_eq!(a.counts, b.counts);
    let la = fs::read(log_path(&plain_dir, JournalFormat::Binary)).unwrap();
    let lb = fs::read(log_path(&fast_dir, JournalFormat::Binary)).unwrap();
    assert!(!la.is_empty());
    assert_eq!(la, lb, "strike log depends on the execution tiers");

    let _ = fs::remove_dir_all(&plain_dir);
    let _ = fs::remove_dir_all(&fast_dir);
}

#[test]
fn truncated_strike_log_resumes_to_identical_bytes() {
    let w = qsort();
    let full_dir = scratch("full");
    let full = run_session("Qsort", &w, &cfg(&full_dir), STRIKES).unwrap();
    let bytes = fs::read(log_path(&full_dir, JournalFormat::Binary)).unwrap();

    // Cuts land mid-record (a torn tail) and past the identity header.
    for (k, cut) in [bytes.len() / 4, bytes.len() / 2 + 7, bytes.len() - 1]
        .into_iter()
        .enumerate()
    {
        let dir = scratch(&format!("cut{k}"));
        fs::write(log_path(&dir, JournalFormat::Binary), &bytes[..cut]).unwrap();
        let mut resumed_cfg = cfg(&dir);
        resumed_cfg.journal.as_mut().unwrap().resume = true;
        let r = run_session("Qsort", &w, &resumed_cfg, STRIKES).unwrap();

        assert!(r.supervision.resumed > 0, "cut at {cut} resumed nothing");
        assert_eq!(r.counts, full.counts);
        let resumed = fs::read(log_path(&dir, JournalFormat::Binary)).unwrap();
        assert!(
            resumed == bytes,
            "log resumed from a cut at byte {cut} differs from the finished log"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&full_dir);
}

#[test]
fn margin_stopped_log_is_an_index_ordered_prefix() {
    let w = qsort();
    let jsonl = |dir: &Path, margin: Option<f64>| {
        let mut c = cfg(dir);
        c.journal.as_mut().unwrap().format = JournalFormat::Jsonl;
        c.stop_at_margin = margin;
        c
    };

    // Without a margin the log follows strike cycles, not indices.
    let cycle_dir = scratch("cycle_order");
    run_session("Qsort", &w, &jsonl(&cycle_dir, None), STRIKES).unwrap();
    let cycle_order =
        logged_indices(&fs::read(log_path(&cycle_dir, JournalFormat::Jsonl)).unwrap());
    assert!(cycle_order.windows(2).any(|p| p[0] > p[1]));

    // Adjusted margins are strictly positive at any finite sample size,
    // so a zero margin is never reached and every strike runs.
    let never_dir = scratch("never");
    run_session("Qsort", &w, &jsonl(&never_dir, Some(0.0)), STRIKES).unwrap();
    let never = fs::read(log_path(&never_dir, JournalFormat::Jsonl)).unwrap();
    assert_eq!(
        logged_indices(&never),
        (0..STRIKES as u64).collect::<Vec<_>>(),
        "a margin-stop session must run in strike-index order"
    );

    let stopped_dir = scratch("stopped");
    let r = run_session("Qsort", &w, &jsonl(&stopped_dir, Some(0.2)), STRIKES).unwrap();
    let stopped = fs::read(log_path(&stopped_dir, JournalFormat::Jsonl)).unwrap();
    assert!(
        r.counts.total() < STRIKES as u64,
        "the margin never stopped the session"
    );
    assert!(
        never.starts_with(&stopped),
        "margin-stopped log is not a byte-prefix of the unstopped one"
    );

    for dir in [cycle_dir, never_dir, stopped_dir] {
        let _ = fs::remove_dir_all(&dir);
    }
}
