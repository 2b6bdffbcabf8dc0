//! The campaign daemon: study queue, block scheduler, worker supervisor,
//! deterministic merge.
//!
//! One daemon process owns the study registry and a local TCP socket.
//! Worker *processes* (spawned `fleet worker` children, or any process
//! calling [`crate::run_worker`]) connect, get a shard number plus the
//! canonical study spec, and claim contiguous blocks of the injection
//! index space. The daemon never executes a run, and full verdict
//! records live only in the workers' shard journals — but it is not
//! blind: `done` messages carry `(stratum, class)` observation pairs
//! that feed a live [`ConvergenceTracker`] (margins in status documents,
//! and the fleet-wide `stop_at_margin` early stop), and telemetry frames
//! feed the [`TelemetryBoard`] metrics plane. Its job reduces to
//! bookkeeping ([`Ledger`]), supervision (watchdog requeue, child
//! respawn with jittered backoff), aggregation and, once a workload's
//! index space is covered (or its margins converge), the deterministic
//! merge that folds the shard journals into one file — byte-identical to
//! a single-process campaign's when coverage was exhaustive.

use crate::ledger::Ledger;
use crate::merge::{merge_shard_journals, scan_done};
use crate::proto::{self, ToDaemon, ToWorker};
use crate::registry::{study_id, Registry};
use crate::telemetry::{Frame, TelemetryBoard};
use crate::worker::{canonicalize_spec, install_stop_signals};
use sea_core::{FaultClass, StudySpec};
use sea_injection::convergence::strata_json;
use sea_injection::stats::Z_99;
use sea_injection::supervisor::{fnv1a, lock};
use sea_injection::{stop_requested, ConvergenceTracker, JournalFormat};
use sea_microarch::{NullDevice, System};
use sea_profile::PromWriter;
use sea_trace::json::ObjWriter;
use sea_trace::{event, Level, Subsystem};
use sea_workloads::Workload;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scheduler poll interval (stall sweep, child reaping, completion check).
const POLL: Duration = Duration::from_millis(50);

/// How long `wind_down` waits for workers to exit cleanly before killing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Registry root: studies, shard journals and merged journals live
    /// under `<root>/<study-id>/`.
    pub root: PathBuf,
    /// Worker processes to spawn per study (0 = spawn none; external
    /// workers may still connect).
    pub workers: u32,
    /// Optional HTTP bind address (e.g. `127.0.0.1:0`) for the
    /// `sea-observe` surface (`/studies`, `/status`, `/metrics`, ...).
    pub serve: Option<String>,
    /// A granted block whose worker has not reported for this long is
    /// requeued for another shard to steal.
    pub watchdog_ms: u64,
    /// Worker-process respawn budget per study.
    pub max_respawns: u32,
    /// Worker command line; `--connect <addr>` is appended. Empty means
    /// re-exec the current executable with a `worker` argument.
    pub worker_cmd: Vec<String>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            root: PathBuf::from("out/fleet"),
            workers: 2,
            serve: None,
            watchdog_ms: 120_000,
            max_respawns: 4,
            worker_cmd: Vec::new(),
        }
    }
}

/// Lifecycle of one study.
#[derive(Clone, Debug)]
enum Phase {
    Queued,
    Running(u32),
    Done,
    Failed(String),
}

impl Phase {
    fn state(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running(_) => "running",
            Phase::Done => "done",
            Phase::Failed(_) => "failed",
        }
    }
}

struct StudyRec {
    id: String,
    canonical: String,
    spec: StudySpec,
    phase: Phase,
}

/// The workload currently being sharded out.
struct Active {
    study_id: String,
    canonical: String,
    dir: PathBuf,
    wl: u32,
    workload: String,
    ledger: Ledger,
    tracker: ConvergenceTracker,
    shard_runs: BTreeMap<u32, u64>,
    /// The spec's `stop_at_margin`: stop granting once every stratum's
    /// adjusted margin is below this threshold.
    stop_at_margin: Option<f64>,
    /// Latched once the margin threshold is reached; claims get `exit`
    /// from then on and the scheduler merges the partial journals.
    stopped: bool,
}

/// State shared between the scheduler, worker connections and the HTTP
/// surface. Lock order where both are held: `studies` before `active`.
struct Shared {
    cfg: DaemonConfig,
    reg: Registry,
    addr: SocketAddr,
    studies: Mutex<Vec<StudyRec>>,
    active: Mutex<Option<Active>>,
    /// Telemetry aggregation (leaf lock; see `telemetry` module docs).
    board: TelemetryBoard,
    draining: AtomicBool,
    next_shard: AtomicU32,
    blocks_granted: AtomicU64,
    requeued_death: AtomicU64,
    requeued_stall: AtomicU64,
    child_respawns: AtomicU64,
    respawn_backoff_ms: AtomicU64,
    runs_done: AtomicU64,
    studies_done: AtomicU64,
}

/// Total injection indices of one workload under a spec — the worker-side
/// [`sea_injection::CampaignPlan`] will arrive at the same number.
fn total_runs(spec: &StudySpec, w: Workload) -> u64 {
    let icfg = spec.study.injection_config_for(w);
    u64::from(icfg.samples_per_component) * icfg.components.len() as u64
}

/// Jittered exponential backoff before a worker-process respawn:
/// uniform-ish in `[base/2, base)` with `base = (10 << nth) ms`, capped at
/// half a second. Deterministic in `(nth, salt)` like the in-process
/// supervisor's, so respawn storms de-synchronize without a clock-seeded
/// RNG.
fn child_backoff_ms(nth: u64, salt: u64) -> u64 {
    let base = (10u64 << nth.min(6)).min(500);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&nth.to_le_bytes());
    key[8..].copy_from_slice(&salt.to_le_bytes());
    base / 2 + fnv1a(&key) % (base / 2).max(1)
}

fn ack(id: &str, state: &str) -> String {
    let mut o = ObjWriter::new();
    o.str_field("id", id).str_field("state", state);
    o.finish()
}

impl Shared {
    // ---- worker socket ---------------------------------------------------

    /// Serve one worker connection until EOF/`bye`. Any abrupt end
    /// requeues everything granted to the connection's shard.
    fn serve_worker(&self, sock: TcpStream) {
        let Ok(clone) = sock.try_clone() else { return };
        let mut r = BufReader::new(clone);
        let mut w = sock;
        let mut shard: Option<u32> = None;
        let mut study: String = String::new();
        let mut clean = false;
        while let Ok(Some(line)) = proto::recv(&mut r) {
            let Ok(msg) = ToDaemon::decode(&line) else {
                break;
            };
            let reply = match msg {
                ToDaemon::Hello => {
                    if self.draining.load(Ordering::Acquire) {
                        ToWorker::Exit
                    } else {
                        match lock(&self.active).as_ref() {
                            Some(a) => {
                                let k = self.next_shard.fetch_add(1, Ordering::AcqRel);
                                shard = Some(k);
                                study = a.study_id.clone();
                                ToWorker::Welcome {
                                    shard: k,
                                    dir: a.dir.display().to_string(),
                                    spec: a.canonical.clone(),
                                }
                            }
                            // Nothing to hand out yet; the worker retries
                            // its hello without burning a shard number.
                            None => ToWorker::Wait { ms: 200 },
                        }
                    }
                }
                ToDaemon::Claim => {
                    let Some(k) = shard else {
                        // Protocol violation; cut the worker loose.
                        let _ = proto::send(&mut w, &ToWorker::Exit.encode());
                        break;
                    };
                    // With no study queued or running, a welcomed worker
                    // has nothing left to wait for.
                    let idle = {
                        let studies = lock(&self.studies);
                        !studies
                            .iter()
                            .any(|s| matches!(s.phase, Phase::Queued | Phase::Running(_)))
                    };
                    let mut active = lock(&self.active);
                    match active.as_mut() {
                        None => {
                            if self.draining.load(Ordering::Acquire) || idle {
                                ToWorker::Exit
                            } else {
                                ToWorker::Wait { ms: 200 }
                            }
                        }
                        // A worker welcomed under an earlier study must
                        // not execute grants of a different one — its
                        // journal dir and plan would be wrong.
                        Some(a) if a.study_id != study => ToWorker::Exit,
                        Some(a) => {
                            // Fleet-wide convergence early stop: once every
                            // stratum's adjusted margin is under the spec's
                            // threshold, stop granting — workers drain via
                            // `exit` and the scheduler merges what exists.
                            if !a.stopped
                                && a.stop_at_margin.is_some_and(|m| a.tracker.converged(m))
                            {
                                a.stopped = true;
                                event!(Subsystem::Harness, Level::Info, "fleet.margin_stop";
                                       "study" => a.study_id.clone(),
                                       "workload" => a.workload.clone(),
                                       "done" => a.ledger.done_count(),
                                       "total" => a.ledger.total(),
                                       "margin_adjusted" => a.tracker.max_adjusted_margin());
                            }
                            if a.stopped {
                                ToWorker::Exit
                            } else if a.ledger.complete() {
                                ToWorker::Wait { ms: 100 }
                            } else {
                                match a.ledger.claim(k, u64::from(self.cfg.workers.max(1))) {
                                    Some((start, end)) => {
                                        self.blocks_granted.fetch_add(1, Ordering::Relaxed);
                                        ToWorker::Grant {
                                            wl: a.wl,
                                            start,
                                            end,
                                        }
                                    }
                                    None => ToWorker::Wait { ms: 150 },
                                }
                            }
                        }
                    }
                }
                ToDaemon::Done {
                    wl,
                    start,
                    end,
                    obs,
                } => {
                    if let Some(k) = shard {
                        let mut active = lock(&self.active);
                        if let Some(a) = active.as_mut() {
                            if a.study_id == study && a.wl == wl {
                                let fresh = a.ledger.mark_done(k, start, end);
                                if fresh > 0 {
                                    self.runs_done.fetch_add(fresh, Ordering::Relaxed);
                                    *a.shard_runs.entry(k).or_insert(0) += fresh;
                                    // Only first completions feed the live
                                    // margins; a stolen block's duplicate
                                    // re-execution must not double-count.
                                    for (s, c) in obs {
                                        if let Some(&class) = FaultClass::ALL.get(c as usize) {
                                            if (s as usize) < a.tracker.len() {
                                                a.tracker.record(s as usize, class);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    continue; // `done` takes no reply; a `claim` follows
                }
                ToDaemon::Telemetry {
                    seq: _,
                    runs,
                    elapsed_ms,
                    clock_us,
                    counters,
                    hists,
                    health,
                    events,
                } => {
                    if let Some(k) = shard {
                        let fresh = self.board.absorb(
                            k,
                            &study,
                            Frame {
                                runs,
                                elapsed_ms,
                                clock_us,
                                counters,
                                hists,
                                health,
                                events,
                            },
                        );
                        // Relay fresh worker events (tagged with study/
                        // shard/worker) into the shared tail so `/events`
                        // multiplexes the whole fleet.
                        if !fresh.is_empty() {
                            let tail = sea_observe::tail_sink();
                            for line in fresh {
                                tail.push_line(line);
                            }
                        }
                    }
                    continue; // fire-and-forget, like `done`
                }
                ToDaemon::Bye => {
                    clean = true;
                    break;
                }
            };
            if proto::send(&mut w, &reply.encode()).is_err() {
                break;
            }
        }
        if let Some(k) = shard {
            self.board.mark_gone(k, clean);
            let mut active = lock(&self.active);
            if let Some(a) = active.as_mut() {
                if a.study_id == study {
                    let n = a.ledger.requeue_shard(k);
                    if n > 0 {
                        self.requeued_death.fetch_add(n, Ordering::Relaxed);
                        event!(Subsystem::Harness, Level::Warn, "fleet.shard_requeued";
                               "shard" => u64::from(k),
                               "indices" => n,
                               "clean_bye" => clean);
                    }
                }
            }
        }
    }

    // ---- scheduler -------------------------------------------------------

    fn set_phase(&self, id: &str, phase: Phase) {
        let mut studies = lock(&self.studies);
        if let Some(s) = studies.iter_mut().find(|s| s.id == id) {
            s.phase = phase;
        }
    }

    fn spawn_one(&self) -> std::io::Result<Child> {
        let (prog, args) = if self.cfg.worker_cmd.is_empty() {
            (std::env::current_exe()?, vec!["worker".to_string()])
        } else {
            (
                PathBuf::from(&self.cfg.worker_cmd[0]),
                self.cfg.worker_cmd[1..].to_vec(),
            )
        };
        Command::new(prog)
            .args(args)
            .arg("--connect")
            .arg(self.addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }

    fn spawn_fleet(&self, children: &mut Vec<Child>) {
        for _ in 0..self.cfg.workers {
            match self.spawn_one() {
                Ok(c) => {
                    event!(Subsystem::Harness, Level::Info, "fleet.worker_spawned";
                           "pid" => u64::from(c.id()));
                    children.push(c);
                }
                Err(e) => {
                    event!(Subsystem::Harness, Level::Error, "fleet.spawn_failed";
                           "error" => e.to_string());
                }
            }
        }
    }

    /// Reap exited worker processes and respawn them (jittered backoff)
    /// while the per-study budget lasts.
    fn reap(&self, children: &mut [Child], budget: &mut u32) {
        for slot in children.iter_mut() {
            let Ok(Some(status)) = slot.try_wait() else {
                continue;
            };
            if *budget == 0 {
                continue;
            }
            *budget -= 1;
            let nth = self.child_respawns.fetch_add(1, Ordering::Relaxed);
            let pause = child_backoff_ms(nth, self.runs_done.load(Ordering::Relaxed));
            self.respawn_backoff_ms.fetch_add(pause, Ordering::Relaxed);
            event!(Subsystem::Harness, Level::Warn, "fleet.worker_respawn";
                   "exit_code" => status.code().map_or(-1, i64::from),
                   "nth" => nth,
                   "backoff_ms" => pause);
            std::thread::sleep(Duration::from_millis(pause));
            match self.spawn_one() {
                Ok(c) => *slot = c,
                Err(e) => {
                    event!(Subsystem::Harness, Level::Error, "fleet.spawn_failed";
                           "error" => e.to_string());
                }
            }
        }
    }

    /// Drain the fleet: flip the draining flag (claims and hellos now get
    /// `exit`), give workers [`DRAIN_TIMEOUT`] to leave, kill stragglers.
    fn wind_down(&self, mut children: Vec<Child>) {
        self.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            children.retain_mut(|c| !matches!(c.try_wait(), Ok(Some(_))));
            if children.is_empty() {
                break;
            }
            std::thread::sleep(POLL);
        }
        for c in &mut children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.draining.store(false, Ordering::Release);
    }

    /// Drive one study to completion (or to a stop-flag pause / failure).
    fn process_study(&self, id: &str, canonical: &str, spec: &StudySpec) {
        event!(Subsystem::Harness, Level::Info, "fleet.study_start";
               "id" => id.to_string(),
               "workloads" => spec.suite.len() as u64);
        // Never reuse a shard number that already has a journal directory
        // (a restarted daemon would otherwise double-book shard 0).
        if let Some(&max) = self.reg.existing_shards(id).last() {
            let cur = self.next_shard.load(Ordering::Acquire);
            if cur <= max {
                self.next_shard.store(max + 1, Ordering::Release);
            }
        }
        let mut children: Vec<Child> = Vec::new();
        let mut spawned = false;
        let mut respawn_budget = self.cfg.max_respawns;

        for (k, &w) in spec.suite.iter().enumerate() {
            let merged = self.reg.merged_path(id, w.name());
            if merged.exists() {
                continue;
            }
            let total = total_runs(spec, w);
            // Resume: everything any shard journal already holds is done.
            let ledger = Ledger::new(total, self.reg.done_indices(id, w.name()));
            if !ledger.complete() {
                let icfg = spec.study.injection_config_for(w);
                let probe = System::new(icfg.machine, NullDevice);
                let tracker = ConvergenceTracker::with_strata(
                    Z_99,
                    icfg.components
                        .iter()
                        .map(|&c| (c.short_name().to_string(), probe.component_bits(c))),
                );
                self.set_phase(id, Phase::Running(k as u32));
                *lock(&self.active) = Some(Active {
                    study_id: id.to_string(),
                    canonical: canonical.to_string(),
                    dir: self.reg.study_dir(id),
                    wl: k as u32,
                    workload: w.name().to_string(),
                    ledger,
                    tracker,
                    shard_runs: BTreeMap::new(),
                    stop_at_margin: spec.study.stop_at_margin,
                    stopped: false,
                });
                if !spawned {
                    self.spawn_fleet(&mut children);
                    spawned = true;
                }
                let mut margin_stopped = false;
                loop {
                    std::thread::sleep(POLL);
                    if stop_requested() {
                        // Pause, resumable: shard journals keep the done
                        // set; the study re-queues on the next daemon run.
                        *lock(&self.active) = None;
                        self.wind_down(children);
                        self.set_phase(id, Phase::Queued);
                        event!(Subsystem::Harness, Level::Warn, "fleet.study_paused";
                               "id" => id.to_string(),
                               "workload" => w.name());
                        return;
                    }
                    {
                        let mut active = lock(&self.active);
                        if let Some(a) = active.as_mut() {
                            let stale = a.ledger.requeue_stalled(self.cfg.watchdog_ms);
                            if stale > 0 {
                                self.requeued_stall.fetch_add(stale, Ordering::Relaxed);
                                event!(Subsystem::Harness, Level::Warn, "fleet.stall_requeued";
                                       "workload" => w.name(),
                                       "indices" => stale);
                            }
                            if a.stopped {
                                margin_stopped = true;
                                break;
                            }
                            if a.ledger.complete() {
                                break;
                            }
                        }
                    }
                    self.reap(&mut children, &mut respawn_budget);
                }
                *lock(&self.active) = None;
                if margin_stopped {
                    // Drain the fleet before merging: exiting workers
                    // fsync and close their shard journals, so the merge
                    // below reads a quiescent set of files. Later
                    // workloads of the study respawn a fresh fleet.
                    self.wind_down(std::mem::take(&mut children));
                    spawned = false;
                }
            }
            match merge_shard_journals(&self.reg.shard_journals(id, w.name()), &merged) {
                Ok(audit) => {
                    event!(Subsystem::Harness, Level::Info, "fleet.merged";
                           "workload" => w.name(),
                           "shards" => audit.shards as u64,
                           "records_in" => audit.records_in,
                           "duplicates" => audit.duplicates,
                           "merged" => audit.merged,
                           "torn_bytes" => audit.torn_bytes);
                }
                Err(e) => {
                    self.set_phase(id, Phase::Failed(e.to_string()));
                    event!(Subsystem::Harness, Level::Error, "fleet.merge_failed";
                           "id" => id.to_string(),
                           "workload" => w.name(),
                           "error" => e.to_string());
                    self.wind_down(children);
                    return;
                }
            }
        }
        self.wind_down(children);
        self.set_phase(id, Phase::Done);
        self.studies_done.fetch_add(1, Ordering::Relaxed);
        event!(Subsystem::Harness, Level::Info, "fleet.study_done";
               "id" => id.to_string());
    }

    // ---- documents -------------------------------------------------------

    /// The daemon-level `/status` document.
    fn status_doc(&self) -> String {
        let (total, by_state) = {
            let studies = lock(&self.studies);
            let mut by = [0u64; 4];
            for s in studies.iter() {
                let k = match s.phase {
                    Phase::Queued => 0,
                    Phase::Running(_) => 1,
                    Phase::Done => 2,
                    Phase::Failed(_) => 3,
                };
                by[k] += 1;
            }
            (studies.len() as u64, by)
        };
        let mut o = ObjWriter::new();
        o.str_field("state", "fleet")
            .u64_field("studies", total)
            .u64_field("queued", by_state[0])
            .u64_field("running", by_state[1])
            .u64_field("done", by_state[2])
            .u64_field("failed", by_state[3])
            .u64_field("workers", u64::from(self.cfg.workers))
            .u64_field("runs_done", self.runs_done.load(Ordering::Relaxed));
        match lock(&self.active).as_ref() {
            Some(a) => {
                o.raw_field("active", &active_json(a));
            }
            None => {
                o.raw_field("active", "null");
            }
        }
        o.raw_field("workers", &self.board.workers_json(None));
        o.finish()
    }

    /// The daemon-level `/metrics` exposition.
    fn metrics_doc(&self) -> String {
        let mut w = PromWriter::new();
        w.counter(
            "sea_fleet_runs_done_total",
            "Injection runs completed across all shards and studies.",
            self.runs_done.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_blocks_granted_total",
            "Blocks granted to worker shards.",
            self.blocks_granted.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_requeued_death_total",
            "Indices requeued off dead worker connections.",
            self.requeued_death.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_requeued_stall_total",
            "Indices requeued by the grant watchdog.",
            self.requeued_stall.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_worker_respawns_total",
            "Worker processes respawned after exiting mid-study.",
            self.child_respawns.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_respawn_backoff_ms_total",
            "Milliseconds spent backing off before worker respawns.",
            self.respawn_backoff_ms.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_studies_done_total",
            "Studies driven to completion by this daemon.",
            self.studies_done.load(Ordering::Relaxed),
        );
        if let Some(a) = lock(&self.active).as_ref() {
            w.gauge(
                "sea_fleet_active_done",
                "Completed indices of the workload being sharded out.",
                a.ledger.done_count() as f64,
            );
            w.gauge(
                "sea_fleet_active_total",
                "Total indices of the workload being sharded out.",
                a.ledger.total() as f64,
            );
            w.gauge(
                "sea_fleet_active_margin_adjusted",
                "Worst adjusted error margin across the active strata.",
                a.tracker.max_adjusted_margin(),
            );
            w.gauge(
                "sea_fleet_active_margin_stopped",
                "1 once the stop-at-margin threshold halted granting.",
                if a.stopped { 1.0 } else { 0.0 },
            );
        }
        self.board.prom_append(&mut w);
        w.finish()
    }
}

/// Live detail of the active workload (the `active` member of study and
/// daemon status documents).
fn active_json(a: &Active) -> String {
    let mut o = ObjWriter::new();
    o.str_field("workload", &a.workload)
        .u64_field("wl", u64::from(a.wl))
        .u64_field("total", a.ledger.total())
        .u64_field("done", a.ledger.done_count())
        .u64_field("outstanding", a.ledger.outstanding_count());
    let mut shards = ObjWriter::new();
    for (k, n) in &a.shard_runs {
        shards.u64_field(&k.to_string(), *n);
    }
    o.raw_field("shard_runs", &shards.finish())
        .f64_field("margin_adjusted", a.tracker.max_adjusted_margin())
        .bool_field("margin_stopped", a.stopped)
        .raw_field("strata", &strata_json(&a.tracker));
    o.finish()
}

impl sea_observe::StudyApi for Shared {
    fn submit(&self, spec_json: &str) -> Result<String, String> {
        let (canonical, spec) = canonicalize_spec(spec_json)?;
        if spec.study.journal_format != JournalFormat::Binary {
            return Err(
                "fleet studies require \"journal_format\":\"bin\" — the deterministic \
                 merge operates on binary .seaj shard journals"
                    .to_string(),
            );
        }
        let id = study_id(&canonical);
        let mut studies = lock(&self.studies);
        if let Some(existing) = studies.iter().find(|s| s.id == id) {
            // Idempotent: same canonical spec, same study.
            return Ok(ack(&id, existing.phase.state()));
        }
        self.reg
            .persist(&id, &canonical)
            .map_err(|e| format!("cannot persist study: {e}"))?;
        event!(Subsystem::Harness, Level::Info, "fleet.study_submitted";
               "id" => id.clone(),
               "workloads" => spec.suite.len() as u64);
        studies.push(StudyRec {
            id: id.clone(),
            canonical,
            spec,
            phase: Phase::Queued,
        });
        Ok(ack(&id, "queued"))
    }

    fn list(&self) -> String {
        let studies = lock(&self.studies);
        let mut out = String::from("[");
        for (k, s) in studies.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let mut o = ObjWriter::new();
            o.str_field("id", &s.id)
                .str_field("state", s.phase.state())
                .u64_field("workloads", s.spec.suite.len() as u64);
            out.push_str(&o.finish());
        }
        out.push(']');
        out
    }

    fn status(&self, id: &str) -> Option<String> {
        let (spec, phase) = {
            let studies = lock(&self.studies);
            let s = studies.iter().find(|s| s.id == id)?;
            (s.spec.clone(), s.phase.clone())
        };
        let mut suite = String::from("[");
        for (k, w) in spec.suite.iter().enumerate() {
            if k > 0 {
                suite.push(',');
            }
            let total = total_runs(&spec, *w);
            let merged_path = self.reg.merged_path(id, w.name());
            let merged = merged_path.exists();
            // A margin-stopped merge covers less than `total`, so count
            // the merged journal's records instead of assuming coverage.
            let done = if merged {
                scan_done(&merged_path).len() as u64
            } else {
                self.reg.done_indices(id, w.name()).len() as u64
            };
            let mut row = ObjWriter::new();
            row.str_field("workload", w.name())
                .u64_field("total", total)
                .u64_field("done", done)
                .bool_field("merged", merged);
            suite.push_str(&row.finish());
        }
        suite.push(']');
        let mut o = ObjWriter::new();
        o.str_field("id", id).str_field("state", phase.state());
        if let Phase::Running(k) = phase {
            o.u64_field("running_wl", u64::from(k));
        }
        if let Phase::Failed(why) = &phase {
            o.str_field("error", why);
        }
        o.raw_field("suite", &suite);
        match lock(&self.active).as_ref() {
            Some(a) if a.study_id == id => {
                o.raw_field("active", &active_json(a));
                let rate = self.board.fleet_rate(id);
                o.f64_field("rate_per_sec", rate);
                let remaining = a.ledger.total().saturating_sub(a.ledger.done_count());
                // Non-finite (no live throughput yet) renders as null.
                o.f64_field("eta_sec", remaining as f64 / rate);
            }
            _ => {
                o.raw_field("active", "null");
            }
        }
        o.raw_field("workers", &self.board.workers_json(Some(id)));
        Some(o.finish())
    }

    fn journal(&self, id: &str) -> Result<PathBuf, String> {
        let (suite, phase) = {
            let studies = lock(&self.studies);
            let s = studies
                .iter()
                .find(|s| s.id == id)
                .ok_or_else(|| format!("unknown study {id}"))?;
            (s.spec.suite.clone(), s.phase.clone())
        };
        if !matches!(phase, Phase::Done) {
            return Err(format!("study {id} is {}, not done", phase.state()));
        }
        match suite.as_slice() {
            [w] => Ok(self.reg.merged_path(id, w.name())),
            _ => Err(format!(
                "study {id} spans {} workloads; fetch per-workload merged journals \
                 from {}",
                suite.len(),
                self.reg.study_dir(id).join("merged").display()
            )),
        }
    }

    fn trace(&self, id: &str) -> Option<String> {
        let known = lock(&self.studies).iter().any(|s| s.id == id);
        if !known && !self.board.knows_study(id) {
            return None;
        }
        Some(sea_profile::stitch_chrome_trace(&self.board.tracks_for(id)))
    }
}

/// A running fleet daemon.
pub struct Daemon {
    shared: Arc<Shared>,
    http: Option<SocketAddr>,
}

impl Daemon {
    /// Bind the worker socket (ephemeral local port), recover the study
    /// registry from disk, start the accept thread and — when configured
    /// — the HTTP surface.
    ///
    /// # Errors
    ///
    /// Socket binds that fail.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        install_stop_signals();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let reg = Registry::new(&cfg.root);
        let shared = Arc::new(Shared {
            cfg,
            reg,
            addr,
            studies: Mutex::new(Vec::new()),
            active: Mutex::new(None),
            board: TelemetryBoard::new(),
            draining: AtomicBool::new(false),
            next_shard: AtomicU32::new(0),
            blocks_granted: AtomicU64::new(0),
            requeued_death: AtomicU64::new(0),
            requeued_stall: AtomicU64::new(0),
            child_respawns: AtomicU64::new(0),
            respawn_backoff_ms: AtomicU64::new(0),
            runs_done: AtomicU64::new(0),
            studies_done: AtomicU64::new(0),
        });

        // Recover persisted studies: fully merged ones are done, anything
        // else re-queues and resumes off its shard journals.
        {
            let mut studies = lock(&shared.studies);
            for (id, canonical) in shared.reg.load_all() {
                let Ok(spec) = StudySpec::from_json(&canonical) else {
                    continue;
                };
                let done = spec
                    .suite
                    .iter()
                    .all(|w| shared.reg.merged_path(&id, w.name()).exists());
                event!(Subsystem::Harness, Level::Info, "fleet.study_recovered";
                       "id" => id.clone(),
                       "done" => done);
                studies.push(StudyRec {
                    id,
                    canonical,
                    spec,
                    phase: if done { Phase::Done } else { Phase::Queued },
                });
            }
        }

        let accept = shared.clone();
        std::thread::Builder::new()
            .name("fleet-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_requested() {
                        break;
                    }
                    let Ok(c) = conn else { continue };
                    let shared = accept.clone();
                    let _ = std::thread::Builder::new()
                        .name("fleet-conn".into())
                        .spawn(move || shared.serve_worker(c));
                }
            })?;

        let http = match &shared.cfg.serve {
            Some(bind) => {
                let bound = sea_observe::serve(bind)?;
                sea_observe::publish_studies(
                    Some(shared.clone() as Arc<dyn sea_observe::StudyApi>),
                );
                let s = shared.clone();
                sea_observe::publish_status(Some(Arc::new(move || s.status_doc())));
                let s = shared.clone();
                sea_observe::publish_metrics(Some(Arc::new(move || s.metrics_doc())));
                Some(bound)
            }
            None => None,
        };
        event!(Subsystem::Harness, Level::Info, "fleet.daemon_up";
               "worker_addr" => addr.to_string(),
               "http" => http.map_or_else(|| "off".to_string(), |a| a.to_string()));
        Ok(Daemon { shared, http })
    }

    /// The local socket workers connect to.
    pub fn worker_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The HTTP address, when `serve` was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http
    }

    /// Submit a study spec directly (the HTTP `POST /studies` body goes
    /// through the same path).
    ///
    /// # Errors
    ///
    /// The rejection message (bad spec, non-binary journal format,
    /// persistence failure).
    pub fn submit(&self, spec_json: &str) -> Result<String, String> {
        sea_observe::StudyApi::submit(&*self.shared, spec_json)
    }

    /// Status document for one study, `None` when unknown.
    pub fn study_status(&self, id: &str) -> Option<String> {
        sea_observe::StudyApi::status(&*self.shared, id)
    }

    /// Run the scheduler until the process-wide stop flag fires: pick the
    /// first queued study, drive it to completion, repeat. Blocks.
    pub fn run(&self) {
        loop {
            if stop_requested() {
                break;
            }
            let next = {
                let studies = lock(&self.shared.studies);
                studies
                    .iter()
                    .find(|s| matches!(s.phase, Phase::Queued))
                    .map(|s| (s.id.clone(), s.canonical.clone(), s.spec.clone()))
            };
            match next {
                Some((id, canonical, spec)) => {
                    self.shared.process_study(&id, &canonical, &spec);
                }
                None => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        // Let any connected workers drain cleanly before the process goes.
        self.shared.draining.store(true, Ordering::Release);
        event!(Subsystem::Harness, Level::Info, "fleet.daemon_down";
               "runs_done" => self.shared.runs_done.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::scan_done;
    use crate::worker::run_worker;
    use sea_injection::{clear_stop, request_stop, run_campaign};

    fn tiny_spec() -> &'static str {
        r#"{"scale":"tiny","samples_per_component":3,"threads":1,"suite":["CRC32"]}"#
    }

    #[test]
    fn submit_rejects_jsonl_and_is_idempotent() {
        let root = std::env::temp_dir().join(format!("sea-fleet-api-{}", std::process::id()));
        let cfg = DaemonConfig {
            root: root.clone(),
            workers: 0,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        let err = d
            .submit(r#"{"scale":"tiny","journal_format":"jsonl","suite":["CRC32"]}"#)
            .unwrap_err();
        assert!(err.contains("journal_format"), "{err}");
        assert!(d.submit("][").is_err());

        let a = d.submit(tiny_spec()).unwrap();
        let b = d.submit(tiny_spec()).unwrap();
        assert_eq!(a, b, "resubmission is idempotent");
        assert!(a.contains("\"state\":\"queued\""), "{a}");
        let id = sea_trace::json::parse(&a)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let st = d.study_status(&id).unwrap();
        assert!(st.contains("\"state\":\"queued\""), "{st}");
        assert!(d.study_status("ffffffffffffffff").is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn two_in_process_workers_reproduce_the_single_process_journal() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // the test drives run_worker() on threads instead
            watchdog_ms: 60_000,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        let ackd = d.submit(tiny_spec()).unwrap();
        let id = sea_trace::json::parse(&ackd)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let addr = d.worker_addr().to_string();
        let daemon = std::thread::spawn(move || d.run());
        let ws: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || run_worker(&addr))
            })
            .collect();
        for w in ws {
            w.join().unwrap().unwrap();
        }

        // Reference: the same spec, single process, one thread.
        let spec = StudySpec::from_json(tiny_spec()).unwrap();
        let w = spec.suite[0];
        let built = w.build(spec.study.scale);
        let mut icfg = spec.study.injection_config_for(w);
        icfg.journal = Some(sea_injection::JournalSpec {
            dir: root.join("ref"),
            resume: false,
            format: JournalFormat::Binary,
            fsync: Default::default(),
        });
        run_campaign(w.name(), &built, &icfg).unwrap();
        let reference = std::fs::read(sea_injection::supervisor::journal_file(
            &root.join("ref"),
            "inject",
            w.name(),
            JournalFormat::Binary,
        ))
        .unwrap();

        let reg = Registry::new(root.join("fleet"));
        let merged_path = reg.merged_path(&id, w.name());
        for _ in 0..600 {
            if merged_path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let merged = std::fs::read(&merged_path).expect("merged journal exists");
        assert_eq!(
            merged, reference,
            "merged shard journals are byte-identical"
        );
        assert_eq!(
            scan_done(&merged_path).len(),
            18,
            "3 samples x 6 components"
        );
        assert!(reg.existing_shards(&id).len() >= 2, "both shards journaled");

        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_at_margin_halts_granting_and_merges_a_clean_partial_journal() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-margin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // in-process run_worker() threads below
            watchdog_ms: 60_000,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        // 40 samples x 6 components = 240 planned runs; specs are ordered
        // by injection cycle, so strata interleave and every stratum
        // accumulates samples from the first blocks on. A loose 0.5
        // margin is reached long before the plan is exhausted.
        let spec_json = concat!(
            r#"{"scale":"tiny","samples_per_component":40,"threads":1,"#,
            r#""suite":["CRC32"],"stop_at_margin":0.5}"#
        );
        let ack = d.submit(spec_json).unwrap();
        let id = sea_trace::json::parse(&ack)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let shared = d.shared.clone();
        let addr = d.worker_addr().to_string();
        let daemon = std::thread::spawn(move || d.run());
        let ws: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || run_worker(&addr))
            })
            .collect();
        for w in ws {
            w.join().unwrap().unwrap();
        }

        let reg = Registry::new(root.join("fleet"));
        let merged_path = reg.merged_path(&id, "crc32");
        for _ in 0..600 {
            if merged_path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let done = scan_done(&merged_path);
        assert!(!done.is_empty(), "early stop still journals something");
        assert!(
            (done.len() as u64) < 240,
            "margin stop left the plan unfinished: {} of 240",
            done.len()
        );
        let mut uniq = done.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), done.len(), "merged journal has no duplicates");

        // The telemetry plane saw the fleet: the study status carries a
        // per-worker array, and the stitched trace parses as a chrome doc
        // with one thread-name metadata record per worker.
        let status = sea_observe::StudyApi::status(&*shared, &id).unwrap();
        let doc = sea_trace::json::parse(&status).unwrap();
        assert_eq!(doc.get("state").and_then(|s| s.as_str()), Some("done"));
        let workers = doc.get("workers").expect("status lists workers");
        match workers {
            sea_trace::json::Json::Arr(items) => assert!(
                items.len() >= 2,
                "both in-process workers reported telemetry"
            ),
            other => panic!("workers is not an array: {other:?}"),
        }
        let trace = sea_observe::StudyApi::trace(&*shared, &id).expect("stitched trace");
        let tdoc = sea_trace::json::parse(&trace).expect("trace parses as JSON");
        let events = tdoc.get("traceEvents").expect("traceEvents member");
        if let sea_trace::json::Json::Arr(evs) = events {
            let tids: std::collections::BTreeSet<u64> = evs
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
                .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
                .collect();
            assert!(tids.len() >= 2, "one tid track per worker: {tids:?}");
        } else {
            panic!("traceEvents is not an array");
        }

        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
