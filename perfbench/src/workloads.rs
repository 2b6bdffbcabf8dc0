//! The benchmark's named workloads and one timed rep of each: a whole
//! `run_campaign` / `run_session` call, its verdicts, and the program's
//! exported counters read around it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sea_core::beam::{measure_kernel_residency, run_session, StrikeOrigin};
use sea_core::durable::{scan, FsyncPolicy, RECORD_OVERHEAD};
use sea_core::injection::supervisor::journal_file;
use sea_core::injection::{
    generate_specs, run_campaign, run_cycles_snapshot, warp, InjectionOutcome,
};
use sea_core::platform::{golden_run, snapshot_metrics, watchdog_kills, GoldenRun};
use sea_core::trace::json::{self, Json};
use sea_core::workloads::BuiltWorkload;
use sea_core::{JournalAudit, Scale, Study, Workload};

use crate::record::nproc;

/// What one rep of a workload runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// A `fig4`-shaped campaign over all six components.
    Inject {
        /// Faults per component.
        samples_per_component: u32,
    },
    /// A `fig3`-shaped beam session.
    Beam {
        /// Strikes sampled (simulated SRAM strikes and analytic ones).
        strikes: u32,
    },
}

/// Worker threads of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Threads {
    /// One worker.
    One,
    /// One worker per host core.
    All,
}

/// A named benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Guest program.
    pub workload: Workload,
    /// Input size.
    pub scale: Scale,
    /// Campaign or beam session, with its size.
    pub kind: Kind,
    /// Worker threads.
    pub threads: Threads,
    /// Journal fsync policy (None = no journal).
    pub journal: Option<FsyncPolicy>,
}

/// The workloads `BENCHMARK.json` lists, in its order. The doc in this
/// directory says why each was chosen.
pub const WORKLOADS: [Def; 2] = [
    Def {
        name: "inject_tiny_journal",
        workload: Workload::Crc32,
        scale: Scale::Tiny,
        kind: Kind::Inject {
            samples_per_component: 200,
        },
        threads: Threads::All,
        journal: Some(FsyncPolicy::EveryN(1)),
    },
    Def {
        name: "beam_qsort",
        workload: Workload::Qsort,
        scale: Scale::Default,
        kind: Kind::Beam { strikes: 320 },
        threads: Threads::All,
        // The session reports only per-origin tallies; its strike log is
        // the one place per-strike verdicts are public, so the digest reads
        // it. Unsynced, it costs microseconds against ~16 ms per strike.
        journal: Some(FsyncPolicy::None),
    },
];

/// Workloads run by name only, for paired comparisons: `BENCHMARK.json`
/// leaves them out because their runs spread past its bounds on a shared
/// 2-core host. The doc in this directory has the figures.
pub const BY_NAME_ONLY: [Def; 1] = [Def {
    name: "inject_crc32",
    workload: Workload::Crc32,
    scale: Scale::Default,
    kind: Kind::Inject {
        samples_per_component: 20,
    },
    threads: Threads::One,
    journal: None,
}];

/// Every workload the command line accepts.
pub fn all() -> impl Iterator<Item = &'static Def> {
    WORKLOADS.iter().chain(BY_NAME_ONLY.iter())
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Def> {
    all().find(|d| d.name == name)
}

impl Def {
    /// Worker threads the workload runs at on this host.
    pub fn threads(&self) -> usize {
        match self.threads {
            Threads::One => 1,
            Threads::All => nproc(),
        }
    }

    /// The thread count of the cross-check rep: the verdict digest must not
    /// depend on it.
    pub fn other_threads(&self) -> usize {
        match self.threads {
            Threads::One => nproc().max(2),
            Threads::All => 1,
        }
    }

    /// The study settings of one rep at `threads` workers, journaling into
    /// `work` when the workload journals.
    pub fn study(&self, seed: u64, threads: usize, work: &Path) -> Study {
        let (samples_per_component, beam_strikes) = match self.kind {
            Kind::Inject {
                samples_per_component,
            } => (samples_per_component, 0),
            Kind::Beam { strikes } => (0, strikes),
        };
        Study {
            scale: self.scale,
            seed,
            threads,
            samples_per_component,
            beam_strikes,
            journal_dir: self.journal.map(|_| work.join("journal")),
            journal_fsync: self.journal.unwrap_or_default(),
            // Today's best setting, `--fast-path --warp`: the execution fast
            // path plus the per-thread cursor. Delete this line once both
            // are the program's default.
            fast_path: true,
            warp: true,
            ..Study::default()
        }
    }

    /// Whether this is a beam session.
    pub fn is_beam(&self) -> bool {
        matches!(self.kind, Kind::Beam { .. })
    }
}

/// One set-up: what has to happen before the first injected run starts.
pub struct Setup {
    /// The built guest program.
    pub built: BuiltWorkload,
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// `Workload::build` time.
    pub build_s: f64,
    /// `golden_run` time.
    pub golden_s: f64,
    /// `measure_kernel_residency` time (beam only, else 0).
    pub residency_s: f64,
}

impl Setup {
    /// Total set-up time.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.golden_s + self.residency_s
    }
}

/// Builds the workload, runs it fault-free and, for beam, measures kernel
/// residency, timing each public call.
pub fn setup(def: &Def, study: &Study) -> Result<Setup, String> {
    let t = Instant::now();
    let built = def.workload.build(def.scale);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let golden = golden_run(
        study.machine,
        &built.image,
        &study.kernel,
        study.golden_budget_cycles,
    )
    .map_err(|e| format!("golden run: {e}"))?;
    let golden_s = t.elapsed().as_secs_f64();
    let mut residency_s = 0.0;
    if def.is_beam() {
        let t = Instant::now();
        measure_kernel_residency(&built, &study.beam_config())
            .map_err(|e| format!("kernel residency: {e}"))?;
        residency_s = t.elapsed().as_secs_f64();
    }
    Ok(Setup {
        built,
        golden,
        build_s,
        golden_s,
        residency_s,
    })
}

/// The program's exported counters. All are process-wide and monotone, so
/// a rep's share is the difference of two reads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub warp_handoffs: u64,
    pub warp_cursor_resets: u64,
    pub warp_prefix_cycles_saved: u64,
    pub warp_advance_cycles: u64,
    pub fastpath_uop_hits: u64,
    pub fastpath_uop_misses: u64,
    pub fastpath_latch_hits: u64,
    pub fastpath_line_hits: u64,
    pub run_cycles_count: u64,
    pub run_cycles_sum: u64,
    pub watchdog_kills: u64,
    pub snapshot_saves: u64,
    pub snapshot_restores: u64,
    pub snapshot_prefix_cycles_saved: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn read() -> Counters {
        let hist = run_cycles_snapshot();
        let (saves, restores, prefix_saved) = snapshot_metrics();
        Counters {
            warp_handoffs: warp::WARP_HANDOFFS.get(),
            warp_cursor_resets: warp::WARP_CURSOR_RESETS.get(),
            warp_prefix_cycles_saved: warp::WARP_PREFIX_CYCLES_SAVED.get(),
            warp_advance_cycles: warp::WARP_ADVANCE_CYCLES.get(),
            fastpath_uop_hits: warp::FASTPATH_UOP_HITS.get(),
            fastpath_uop_misses: warp::FASTPATH_UOP_MISSES.get(),
            fastpath_latch_hits: warp::FASTPATH_LATCH_HITS.get(),
            fastpath_line_hits: warp::FASTPATH_LINE_HITS.get(),
            run_cycles_count: hist.count,
            run_cycles_sum: hist.sum,
            watchdog_kills: watchdog_kills(),
            snapshot_saves: saves,
            snapshot_restores: restores,
            snapshot_prefix_cycles_saved: prefix_saved,
        }
    }

    /// `(metric name, value)` for every counter.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("counters.warp_handoffs", self.warp_handoffs),
            ("counters.warp_cursor_resets", self.warp_cursor_resets),
            (
                "counters.warp_prefix_cycles_saved",
                self.warp_prefix_cycles_saved,
            ),
            ("counters.warp_advance_cycles", self.warp_advance_cycles),
            ("counters.fastpath_uop_hits", self.fastpath_uop_hits),
            ("counters.fastpath_uop_misses", self.fastpath_uop_misses),
            ("counters.fastpath_latch_hits", self.fastpath_latch_hits),
            ("counters.fastpath_line_hits", self.fastpath_line_hits),
            ("counters.run_cycles_count", self.run_cycles_count),
            ("counters.run_cycles_sum", self.run_cycles_sum),
            ("counters.watchdog_kills", self.watchdog_kills),
            ("counters.snapshot_saves", self.snapshot_saves),
            ("counters.snapshot_restores", self.snapshot_restores),
            (
                "counters.snapshot_prefix_cycles_saved",
                self.snapshot_prefix_cycles_saved,
            ),
        ]
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            warp_handoffs: d(self.warp_handoffs, earlier.warp_handoffs),
            warp_cursor_resets: d(self.warp_cursor_resets, earlier.warp_cursor_resets),
            warp_prefix_cycles_saved: d(
                self.warp_prefix_cycles_saved,
                earlier.warp_prefix_cycles_saved,
            ),
            warp_advance_cycles: d(self.warp_advance_cycles, earlier.warp_advance_cycles),
            fastpath_uop_hits: d(self.fastpath_uop_hits, earlier.fastpath_uop_hits),
            fastpath_uop_misses: d(self.fastpath_uop_misses, earlier.fastpath_uop_misses),
            fastpath_latch_hits: d(self.fastpath_latch_hits, earlier.fastpath_latch_hits),
            fastpath_line_hits: d(self.fastpath_line_hits, earlier.fastpath_line_hits),
            run_cycles_count: d(self.run_cycles_count, earlier.run_cycles_count),
            run_cycles_sum: d(self.run_cycles_sum, earlier.run_cycles_sum),
            watchdog_kills: d(self.watchdog_kills, earlier.watchdog_kills),
            snapshot_saves: d(self.snapshot_saves, earlier.snapshot_saves),
            snapshot_restores: d(self.snapshot_restores, earlier.snapshot_restores),
            snapshot_prefix_cycles_saved: d(
                self.snapshot_prefix_cycles_saved,
                earlier.snapshot_prefix_cycles_saved,
            ),
        }
    }
}

/// The canonical text of one injection verdict, `i,class,array,valid`.
pub fn inject_verdict(i: u64, class: &str, array: &str, valid: bool) -> String {
    format!("{i},{class},{array},{valid}")
}

/// The canonical verdict of a campaign outcome.
pub fn outcome_verdict(i: u64, o: &InjectionOutcome) -> String {
    inject_verdict(i, &o.class.to_string(), o.array.name(), o.was_valid)
}

/// The canonical text of one beam verdict, `i,origin,class`; SRAM origins
/// carry their component.
pub fn beam_verdict(i: u64, origin: &str, component: Option<&str>, class: &str) -> String {
    match component {
        Some(c) => format!("{i},{origin}:{c},{class}"),
        None => format!("{i},{origin},{class}"),
    }
}

/// FNV-1a 64 over the verdicts in index order (each line-terminated).
/// Verdicts are kept in index order, so this is the digest of the sorted
/// tuples whatever order the runs completed in.
pub fn digest(verdicts: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in verdicts {
        for b in v.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A journal read back after a rep.
pub struct JournalRead {
    /// `(index, canonical verdict)` in file order; None for an anomaly.
    pub verdicts: Vec<(u64, Option<String>)>,
    /// Records whose index is below an index written before them.
    pub order_inversions: u64,
    /// Framed bytes of the record region.
    pub record_bytes: u64,
}

/// Reads a `.seaj` journal: CRC-walks it and decodes every record.
pub fn read_journal(path: &Path, beam: bool) -> Result<JournalRead, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let s = scan(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut verdicts = Vec::with_capacity(s.records.len());
    let mut order_inversions = 0;
    let mut record_bytes = 0u64;
    let mut max_seen: Option<u64> = None;
    for payload in &s.records {
        let line = std::str::from_utf8(payload).map_err(|e| format!("record: {e}"))?;
        let j = json::parse(line).map_err(|e| format!("record {line}: {e:?}"))?;
        let i = j
            .get("i")
            .and_then(Json::as_u64)
            .ok_or(format!("record without index: {line}"))?;
        if max_seen.is_some_and(|m| i < m) {
            order_inversions += 1;
        }
        max_seen = Some(max_seen.map_or(i, |m| m.max(i)));
        record_bytes += (payload.len() + RECORD_OVERHEAD) as u64;
        verdicts.push((i, journal_verdict(beam, i, &j)));
    }
    Ok(JournalRead {
        verdicts,
        order_inversions,
        record_bytes,
    })
}

/// The canonical verdict of a journal record, or None for an anomaly (a
/// quarantined or flaky run).
pub fn journal_verdict(beam: bool, i: u64, j: &Json) -> Option<String> {
    if j.get("anomaly").is_some() || j.get("flaky").is_some() {
        return None;
    }
    let s = |k: &str| j.get(k).and_then(Json::as_str);
    if beam {
        Some(beam_verdict(i, s("origin")?, s("component"), s("class")?))
    } else {
        Some(inject_verdict(
            i,
            s("class")?,
            s("array")?,
            j.get("valid")?.as_bool()?,
        ))
    }
}

/// Journal facts of one rep.
pub struct JournalStats {
    /// The program's write-side audit.
    pub audit: JournalAudit,
    /// Records in the file.
    pub records: u64,
    /// Records written out of index order.
    pub order_inversions: u64,
    /// Framed bytes of the record region.
    pub record_bytes: u64,
}

/// One timed rep.
pub struct Rep {
    /// Wall time of the whole `run_campaign` / `run_session` call.
    pub wall_s: f64,
    /// Runs planned (and attempted).
    pub total: u64,
    /// Canonical verdict per index; empty where the run failed.
    pub verdicts: Vec<String>,
    /// Indices that failed: quarantined, lost, or missing or different in
    /// the journal.
    pub failed: BTreeSet<u64>,
    /// Beam strikes decided analytically, without simulation.
    pub analytic: u64,
    /// Counter deltas over the call.
    pub counters: Counters,
    /// Journal facts, when the workload journals.
    pub journal: Option<JournalStats>,
    /// Inconsistencies that are not tied to one run.
    pub problems: Vec<String>,
}

impl Rep {
    /// Simulated runs per second of the whole call. A beam strike decided
    /// analytically is no simulated run: counting it would tie the rate to
    /// how many of the seed's strikes happen to miss the modelled SRAM.
    pub fn runs_per_s(&self) -> f64 {
        (self.total - self.analytic) as f64 / self.wall_s
    }
}

/// Where a study journals this workload's runs.
pub fn journal_path(def: &Def, study: &Study) -> Option<PathBuf> {
    let dir = study.journal_dir.as_ref()?;
    let kind = if def.is_beam() { "beam" } else { "inject" };
    Some(journal_file(
        dir,
        kind,
        def.workload.name(),
        study.journal_format,
    ))
}

/// Runs one rep through the public entry point and checks its outputs.
pub fn run_rep(def: &Def, study: &Study, built: &BuiltWorkload) -> Result<Rep, String> {
    let name = def.workload.name();
    let before = Counters::read();
    let mut failed = BTreeSet::new();
    let mut problems = Vec::new();
    let (wall_s, mut verdicts, analytic, audit) = match def.kind {
        Kind::Inject { .. } => {
            let cfg = study.injection_config();
            let t = Instant::now();
            let res = run_campaign(name, built, &cfg).map_err(|e| format!("campaign: {e}"))?;
            let wall_s = t.elapsed().as_secs_f64();
            // The result lists outcomes per component in index order;
            // the seeded spec sequence gives each its index back.
            let specs = generate_specs(&cfg, res.golden_cycles);
            let mut verdicts = vec![String::new(); specs.len()];
            for comp in &res.per_component {
                let mut outs = comp.outcomes.iter().peekable();
                for (i, spec) in specs.iter().enumerate() {
                    if spec.component != comp.component {
                        continue;
                    }
                    if let Some(o) = outs.next_if(|o| o.spec == *spec) {
                        verdicts[i] = outcome_verdict(i as u64, o);
                    }
                }
            }
            failed.extend(res.anomalies.iter().map(|a| a.index));
            (wall_s, verdicts, 0, res.journal)
        }
        Kind::Beam { strikes } => {
            let cfg = study.beam_config();
            let t = Instant::now();
            let res =
                run_session(name, built, &cfg, strikes).map_err(|e| format!("session: {e}"))?;
            let wall_s = t.elapsed().as_secs_f64();
            let analytic = res
                .by_origin
                .iter()
                .filter(|(o, _)| !matches!(o, StrikeOrigin::Sram(_)))
                .map(|(_, c)| c.total())
                .sum();
            failed.extend(res.anomalies.iter().map(|a| a.index));
            // A flaky strike has both an outcome and an anomaly record.
            let lost = res.anomalies.iter().filter(|a| a.deterministic).count() as u64;
            if res.counts.total() + lost != u64::from(strikes) {
                problems.push(format!(
                    "session tallied {} strikes of {strikes}",
                    res.counts.total()
                ));
            }
            (
                wall_s,
                vec![String::new(); strikes as usize],
                analytic,
                res.journal,
            )
        }
    };
    let counters = Counters::read().since(&before);

    let journal = match (journal_path(def, study), audit) {
        (Some(path), Some(audit)) => {
            let read = read_journal(&path, def.is_beam())?;
            let mut journaled = vec![false; verdicts.len()];
            for (i, v) in &read.verdicts {
                let idx = *i as usize;
                if idx >= verdicts.len() || std::mem::replace(&mut journaled[idx], true) {
                    problems.push(format!("journal record {i} is out of range or repeated"));
                    continue;
                }
                match v {
                    // Beam verdicts exist only here; injection verdicts
                    // must match the campaign result.
                    Some(v) if def.is_beam() => verdicts[idx] = v.clone(),
                    Some(v) if verdicts[idx] == *v => {}
                    _ => {
                        failed.insert(*i);
                    }
                }
            }
            failed.extend((0..verdicts.len() as u64).filter(|&i| !journaled[i as usize]));
            Some(JournalStats {
                audit,
                records: read.verdicts.len() as u64,
                order_inversions: read.order_inversions,
                record_bytes: read.record_bytes,
            })
        }
        (None, None) => None,
        _ => return Err("journal configured but not reported, or the reverse".into()),
    };
    failed.extend((0..verdicts.len() as u64).filter(|&i| verdicts[i as usize].is_empty()));
    for &i in &failed {
        verdicts[i as usize].clear();
    }
    Ok(Rep {
        wall_s,
        total: verdicts.len() as u64,
        verdicts,
        failed,
        analytic,
        counters,
        journal,
        problems,
    })
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = vec![
            inject_verdict(0, "Masked", "data", true),
            inject_verdict(1, "SDC", "tag", false),
        ];
        // Pinned: a digest recorded by an earlier run must still mean the
        // same verdicts, so the canonical text and the hash may not drift.
        assert_eq!(digest(&a), 0xaca6_0f58_3d31_b130);
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(digest(&a), digest(&swapped));
        assert_ne!(digest(&a), digest(&a[..1]));
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn journal_records_and_results_canonicalise_alike() {
        let j = json::parse(r#"{"i":3,"class":"SDC","array":"data","valid":true}"#).unwrap();
        assert_eq!(
            journal_verdict(false, 3, &j).as_deref(),
            Some(inject_verdict(3, "SDC", "data", true).as_str())
        );
        let b =
            json::parse(r#"{"i":4,"origin":"sram","component":"L1D","class":"Masked"}"#).unwrap();
        assert_eq!(
            journal_verdict(true, 4, &b).as_deref(),
            Some("4,sram:L1D,Masked")
        );
        let flaky =
            json::parse(r#"{"i":5,"class":"SDC","array":"data","valid":true,"flaky":true}"#)
                .unwrap();
        assert_eq!(journal_verdict(false, 5, &flaky), None);
    }

    #[test]
    fn workload_names_are_unique_and_valid() {
        let mut names: Vec<_> = all().map(|w| w.name).collect();
        assert!(names.iter().all(|n| crate::record::valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len() + BY_NAME_ONLY.len());
        assert!(by_name("inject_crc32").is_some_and(|d| d.threads() == 1));
        assert!(by_name("beam_qsort").is_some_and(Def::is_beam));
        assert!(by_name("nope").is_none());
    }
}
