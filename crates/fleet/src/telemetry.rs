//! Daemon-side aggregation of worker [`Telemetry`](crate::proto::ToDaemon)
//! frames: the fleet's metrics plane.
//!
//! Each worker pushes throttled frames over its existing daemon socket;
//! the board folds them into per-worker state that backs three views:
//!
//! * **`/metrics`** — per-worker-labeled Prometheus series plus rolled-up
//!   `sea_fleet_*` aggregates ([`TelemetryBoard::prom_append`]);
//! * **study status** — a `workers` array with liveness, lag, throughput
//!   and supervisor health per shard ([`TelemetryBoard::workers_json`]);
//! * **stitched traces** — each worker's recent trace events on its own
//!   `tid` track of one Chrome trace document, timestamps shifted onto
//!   the daemon's span clock ([`TelemetryBoard::tracks_for`]).
//!
//! The board is strictly best-effort bookkeeping: it never influences
//! scheduling, and it is a **leaf lock** — nothing is called while it is
//! held, so it can be taken from worker-connection threads and HTTP
//! worker threads alike without ordering concerns.

use sea_injection::supervisor::lock;
use sea_profile::{labels, ChromeTrack, PromWriter};
use sea_trace::json::{self, Json};
use sea_trace::HistSnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Most recent trace-event lines retained per worker (the stitched trace
/// shows a sliding window, not a full-campaign archive).
const EVENT_CAP: usize = 256;

/// Liveness of one shard as the daemon saw it last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Connection open, frames flowing.
    Alive,
    /// Connection ended without a clean `bye` — crash or kill; shard
    /// numbers are never reused, so a respawn shows up as a *new* alive
    /// shard next to this dead one.
    Dead,
    /// Clean `bye` (drain, study exhausted, daemon-initiated exit).
    Exited,
}

impl WorkerState {
    /// Stable lowercase name for status documents.
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Alive => "alive",
            WorkerState::Dead => "dead",
            WorkerState::Exited => "exited",
        }
    }
}

/// Everything the daemon knows about one shard's telemetry.
struct WorkerTelemetry {
    study: String,
    state: WorkerState,
    last_seen: Instant,
    frames: u64,
    runs: u64,
    elapsed_ms: u64,
    /// Daemon span-clock minus worker span-clock at the last frame: add
    /// it to the worker's `ts_us` values to land on the daemon timeline.
    shift_us: i64,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnapshot>,
    health: [u64; 5],
    /// Tagged event lines, oldest first, capped at [`EVENT_CAP`].
    events: VecDeque<(u64, String)>,
    /// Highest event sequence absorbed (guards against replays).
    seen_event_seq: Option<u64>,
}

/// Append `study`/`shard`/`worker` tags to one JSONL event line so a
/// multiplexed stream stays attributable. Non-object (or non-JSON) lines
/// are wrapped rather than dropped — lossy telemetry must not lose the
/// attribution.
fn tag_line(line: &str, study: &str, shard: u32) -> String {
    match json::parse(line) {
        Ok(Json::Obj(mut members)) => {
            members.retain(|(k, _)| k != "study" && k != "shard" && k != "worker");
            members.push(("study".to_string(), Json::Str(study.to_string())));
            members.push(("shard".to_string(), Json::Num(f64::from(shard))));
            members.push(("worker".to_string(), Json::Num(f64::from(shard))));
            json::render(&Json::Obj(members))
        }
        _ => {
            let mut o = json::ObjWriter::new();
            o.str_field("ev", "fleet.telemetry_raw")
                .str_field("raw", line)
                .str_field("study", study)
                .u64_field("shard", u64::from(shard))
                .u64_field("worker", u64::from(shard));
            o.finish()
        }
    }
}

/// The health-array slot names, in wire order (see
/// [`crate::proto::ToDaemon::Telemetry`]).
pub const HEALTH_FIELDS: [&str; 5] = [
    "respawns",
    "requeues",
    "watchdog_kills",
    "quarantined",
    "respawn_backoff_ms",
];

/// One decoded telemetry frame, as handed to [`TelemetryBoard::absorb`].
pub struct Frame {
    /// Total runs the worker has executed.
    pub runs: u64,
    /// Worker uptime in milliseconds.
    pub elapsed_ms: u64,
    /// Worker span-clock reading when the frame was built.
    pub clock_us: u64,
    /// Counter deltas since the worker's previous frame.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots as `HistSnapshot::to_json` documents.
    pub hists: Vec<String>,
    /// Supervisor health, [`HEALTH_FIELDS`] order.
    pub health: [u64; 5],
    /// `(worker-local seq, JSONL line)` trace events.
    pub events: Vec<(u64, String)>,
}

/// Cross-worker telemetry aggregation state. See the module docs.
#[derive(Default)]
pub struct TelemetryBoard {
    inner: Mutex<BTreeMap<u32, WorkerTelemetry>>,
}

impl TelemetryBoard {
    /// An empty board.
    pub fn new() -> TelemetryBoard {
        TelemetryBoard::default()
    }

    /// Fold one frame from `shard` (working on `study`) into the board.
    /// Returns the freshly-seen event lines, already tagged with
    /// `{study, shard, worker}`, for the caller to publish (SSE tail).
    pub fn absorb(&self, shard: u32, study: &str, frame: Frame) -> Vec<String> {
        let daemon_clock = sea_trace::clock_us();
        let mut inner = lock(&self.inner);
        let w = inner.entry(shard).or_insert_with(|| WorkerTelemetry {
            study: study.to_string(),
            state: WorkerState::Alive,
            last_seen: Instant::now(),
            frames: 0,
            runs: 0,
            elapsed_ms: 0,
            shift_us: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            health: [0; 5],
            events: VecDeque::new(),
            seen_event_seq: None,
        });
        w.study = study.to_string();
        w.state = WorkerState::Alive;
        w.last_seen = Instant::now();
        w.frames += 1;
        w.runs = frame.runs;
        w.elapsed_ms = frame.elapsed_ms;
        w.shift_us = daemon_clock as i64 - frame.clock_us as i64;
        for (name, delta) in frame.counters {
            *w.counters.entry(name).or_insert(0) += delta;
        }
        for doc in &frame.hists {
            if let Some(snap) = HistSnapshot::parse(doc) {
                w.hists.insert(snap.name.clone(), snap);
            }
        }
        w.health = frame.health;
        let mut fresh = Vec::new();
        for (seq, line) in frame.events {
            if w.seen_event_seq.is_some_and(|s| seq <= s) {
                continue;
            }
            w.seen_event_seq = Some(seq);
            let tagged = tag_line(&line, study, shard);
            if w.events.len() == EVENT_CAP {
                w.events.pop_front();
            }
            w.events.push_back((seq, tagged.clone()));
            fresh.push(tagged);
        }
        fresh
    }

    /// Record that `shard`'s connection ended; `clean` distinguishes a
    /// `bye` from an abrupt EOF. Shards the board never heard telemetry
    /// from are not invented here.
    pub fn mark_gone(&self, shard: u32, clean: bool) {
        let mut inner = lock(&self.inner);
        if let Some(w) = inner.get_mut(&shard) {
            w.state = if clean {
                WorkerState::Exited
            } else {
                WorkerState::Dead
            };
            w.last_seen = Instant::now();
        }
    }

    /// JSON array describing every shard that worked on `study` (pass
    /// `None` for all studies): liveness, frames, runs, lag, throughput
    /// and supervisor health per worker.
    pub fn workers_json(&self, study: Option<&str>) -> String {
        let inner = lock(&self.inner);
        let mut out = String::from("[");
        let mut first = true;
        for (shard, w) in inner.iter() {
            if study.is_some_and(|s| s != w.study) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let rate = if w.elapsed_ms > 0 {
                w.runs as f64 * 1000.0 / w.elapsed_ms as f64
            } else {
                0.0
            };
            let mut h = json::ObjWriter::new();
            for (k, v) in HEALTH_FIELDS.iter().zip(w.health) {
                h.u64_field(k, v);
            }
            // Execution tier actually observed, not configured: a worker
            // that reported warp-cursor handoffs runs the warp cursor.
            let tier = if w
                .counters
                .get("campaign.warp_handoffs")
                .copied()
                .unwrap_or(0)
                > 0
            {
                "warp"
            } else {
                "detailed"
            };
            let mut o = json::ObjWriter::new();
            o.u64_field("shard", u64::from(*shard))
                .str_field("study", &w.study)
                .str_field("state", w.state.name())
                .str_field("tier", tier)
                .u64_field("frames", w.frames)
                .u64_field("runs", w.runs)
                .u64_field("elapsed_ms", w.elapsed_ms)
                .u64_field("lag_ms", w.last_seen.elapsed().as_millis() as u64)
                .f64_field("rate_per_sec", rate)
                .raw_field("health", &h.finish());
            out.push_str(&o.finish());
        }
        out.push(']');
        out
    }

    /// Total runs reported by alive workers of `study` per second —
    /// the fleet-wide throughput estimate behind the status ETA.
    pub fn fleet_rate(&self, study: &str) -> f64 {
        let inner = lock(&self.inner);
        inner
            .values()
            .filter(|w| w.study == study && w.state == WorkerState::Alive && w.elapsed_ms > 0)
            .map(|w| w.runs as f64 * 1000.0 / w.elapsed_ms as f64)
            .sum()
    }

    /// Append the telemetry-derived series to a `/metrics` document:
    /// per-worker labeled counters/gauges plus rolled-up `sea_fleet_*`
    /// aggregates (summed counters, merged run-cycle histogram).
    pub fn prom_append(&self, w: &mut PromWriter) {
        let inner = lock(&self.inner);
        if inner.is_empty() {
            return;
        }
        let mut up = Vec::new();
        let mut runs = Vec::new();
        let mut rate = Vec::new();
        let mut lag = Vec::new();
        let mut health: [Vec<(String, u64)>; 5] = Default::default();
        let mut rollup: BTreeMap<String, u64> = BTreeMap::new();
        let mut per_counter: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        let mut merged_hists: BTreeMap<String, HistSnapshot> = BTreeMap::new();
        for (shard, wt) in inner.iter() {
            let shard_s = shard.to_string();
            let lbl = labels(&[("study", &wt.study), ("worker", &shard_s)]);
            up.push((
                lbl.clone(),
                if wt.state == WorkerState::Alive {
                    1.0
                } else {
                    0.0
                },
            ));
            runs.push((lbl.clone(), wt.runs));
            rate.push((
                lbl.clone(),
                if wt.elapsed_ms > 0 {
                    wt.runs as f64 * 1000.0 / wt.elapsed_ms as f64
                } else {
                    0.0
                },
            ));
            lag.push((lbl.clone(), wt.last_seen.elapsed().as_millis() as u64));
            for (slot, v) in wt.health.iter().enumerate() {
                health[slot].push((lbl.clone(), *v));
            }
            for (name, v) in &wt.counters {
                *rollup.entry(name.clone()).or_insert(0) += v;
                per_counter
                    .entry(name.clone())
                    .or_default()
                    .push((lbl.clone(), *v));
            }
            for (name, snap) in &wt.hists {
                merged_hists
                    .entry(name.clone())
                    .and_modify(|m| m.merge(snap))
                    .or_insert_with(|| snap.clone());
            }
        }
        w.gauge_vec(
            "sea_fleet_worker_up",
            "1 while the shard's connection is alive, else 0.",
            &up,
        );
        w.counter_vec(
            "sea_fleet_worker_runs",
            "Runs executed, as reported by each worker's telemetry.",
            &runs,
        );
        w.gauge_vec(
            "sea_fleet_worker_rate",
            "Per-worker throughput in runs/second.",
            &rate,
        );
        w.counter_vec(
            "sea_fleet_worker_lag_ms",
            "Milliseconds since each worker's last telemetry frame.",
            &lag,
        );
        for (slot, name) in HEALTH_FIELDS.iter().enumerate() {
            w.counter_vec(
                &format!("sea_fleet_worker_{name}"),
                "Per-worker supervisor health counter.",
                &health[slot],
            );
        }
        for (name, series) in &per_counter {
            w.counter_vec(
                &format!("sea_fleet_{name}"),
                "Per-worker counter pushed via fleet telemetry.",
                series,
            );
        }
        for (name, total) in &rollup {
            w.counter(
                &format!("sea_fleet_{name}_total"),
                "Fleet-wide roll-up of the per-worker telemetry counter.",
                *total,
            );
        }
        for (name, snap) in &merged_hists {
            w.histogram(
                &format!("sea_fleet_{name}"),
                "Cross-worker merge of the per-worker telemetry histogram.",
                snap,
            );
        }
    }

    /// One [`ChromeTrack`] per shard that worked on `study`, timestamps
    /// shifted onto the daemon clock, ready for
    /// [`sea_profile::stitch_chrome_trace`].
    pub fn tracks_for(&self, study: &str) -> Vec<ChromeTrack> {
        let inner = lock(&self.inner);
        inner
            .iter()
            .filter(|(_, w)| w.study == study)
            .map(|(shard, w)| ChromeTrack {
                tid: u64::from(*shard),
                name: format!("worker {shard} ({})", w.state.name()),
                shift_us: w.shift_us,
                events: w
                    .events
                    .iter()
                    .filter_map(|(_, line)| json::parse(line).ok())
                    .collect(),
            })
            .collect()
    }

    /// Does the board know `study` at all? (Used to 404 trace requests
    /// for unknown ids without inventing empty documents.)
    pub fn knows_study(&self, study: &str) -> bool {
        lock(&self.inner).values().any(|w| w.study == study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(runs: u64, events: Vec<(u64, String)>) -> Frame {
        Frame {
            runs,
            elapsed_ms: 2_000,
            clock_us: 1_000,
            counters: vec![("fleet.worker_runs".to_string(), runs)],
            hists: vec![],
            health: [1, 0, 0, 0, 0],
            events,
        }
    }

    #[test]
    fn absorb_accumulates_and_tags_fresh_events() {
        let b = TelemetryBoard::new();
        let fresh = b.absorb(
            0,
            "study-a",
            frame(8, vec![(0, r#"{"ev":"fleet.block","runs":8}"#.to_string())]),
        );
        assert_eq!(fresh.len(), 1);
        let j = json::parse(&fresh[0]).unwrap();
        assert_eq!(j.get("study").unwrap().as_str(), Some("study-a"));
        assert_eq!(j.get("shard").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("worker").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("runs").unwrap().as_u64(), Some(8));

        // A replayed event sequence is not re-published.
        let again = b.absorb(
            0,
            "study-a",
            frame(16, vec![(0, r#"{"ev":"fleet.block"}"#.to_string())]),
        );
        assert!(again.is_empty(), "seq 0 already absorbed");

        // Counters accumulate deltas; runs is absolute.
        let doc = b.workers_json(Some("study-a"));
        let j = json::parse(&doc).unwrap();
        let Json::Arr(workers) = j else {
            panic!("{doc}")
        };
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("runs").unwrap().as_u64(), Some(16));
        assert_eq!(workers[0].get("frames").unwrap().as_u64(), Some(2));
        assert_eq!(workers[0].get("state").unwrap().as_str(), Some("alive"));
        assert_eq!(workers[0].get("tier").unwrap().as_str(), Some("detailed"));
        assert_eq!(
            workers[0]
                .get("health")
                .unwrap()
                .get("respawns")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(b.workers_json(Some("other")).starts_with("[]"));
    }

    #[test]
    fn warp_handoffs_flip_the_reported_tier() {
        let b = TelemetryBoard::new();
        let mut f = frame(4, vec![]);
        f.counters.push(("campaign.warp_handoffs".to_string(), 4));
        b.absorb(0, "s", f);
        let doc = b.workers_json(Some("s"));
        let j = json::parse(&doc).unwrap();
        let Json::Arr(workers) = j else {
            panic!("{doc}")
        };
        assert_eq!(workers[0].get("tier").unwrap().as_str(), Some("warp"));
    }

    #[test]
    fn non_json_event_lines_are_wrapped_not_dropped() {
        let b = TelemetryBoard::new();
        let fresh = b.absorb(3, "s", frame(0, vec![(9, "plain text".to_string())]));
        assert_eq!(fresh.len(), 1);
        let j = json::parse(&fresh[0]).unwrap();
        assert_eq!(j.get("ev").unwrap().as_str(), Some("fleet.telemetry_raw"));
        assert_eq!(j.get("raw").unwrap().as_str(), Some("plain text"));
        assert_eq!(j.get("shard").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn gone_states_and_prom_rollup() {
        let b = TelemetryBoard::new();
        b.absorb(0, "s", frame(10, vec![]));
        b.absorb(1, "s", frame(6, vec![]));
        b.mark_gone(1, false);
        b.mark_gone(7, true); // unknown shard: ignored, not invented
        let doc = b.workers_json(None);
        assert!(doc.contains("\"state\":\"dead\""), "{doc}");
        assert!(doc.contains("\"state\":\"alive\""), "{doc}");
        assert!(!doc.contains("\"shard\":7"), "{doc}");

        let mut w = PromWriter::new();
        b.prom_append(&mut w);
        let m = w.finish();
        assert!(
            m.contains("sea_fleet_worker_runs{study=\"s\",worker=\"0\"} 10"),
            "{m}"
        );
        assert!(
            m.contains("sea_fleet_worker_up{study=\"s\",worker=\"1\"} 0"),
            "{m}"
        );
        assert!(
            m.contains("sea_fleet_fleet_worker_runs_total 16"),
            "rolled-up counter: {m}"
        );
        // An empty board appends nothing.
        let mut w = PromWriter::new();
        TelemetryBoard::new().prom_append(&mut w);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn tracks_shift_onto_the_daemon_clock() {
        let b = TelemetryBoard::new();
        let mut f = frame(
            1,
            vec![(
                0,
                r#"{"ev":"fleet.block","sub":"harness","ts_us":500,"dur_us":40}"#.to_string(),
            )],
        );
        f.clock_us = 0; // worker epoch == frame build time
        b.absorb(2, "s", f);
        let tracks = b.tracks_for("s");
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].tid, 2);
        assert_eq!(tracks[0].events.len(), 1);
        assert!(tracks[0].shift_us >= 0, "daemon clock is ahead");
        assert!(b.tracks_for("other").is_empty());
        assert!(b.knows_study("s"));
        assert!(!b.knows_study("other"));

        let doc = sea_profile::stitch_chrome_trace(&tracks);
        let j = json::parse(&doc).unwrap();
        let Some(Json::Arr(items)) = j.get("traceEvents") else {
            panic!("{doc}")
        };
        assert_eq!(items.len(), 2, "thread_name metadata + one slice");
    }

    #[test]
    fn hist_docs_merge_across_workers() {
        let b = TelemetryBoard::new();
        let mut snap_a = HistSnapshot::empty("inject.run_sim_cycles");
        for v in [10, 20] {
            snap_a.record(v);
        }
        let mut snap_b = HistSnapshot::empty("inject.run_sim_cycles");
        snap_b.record(1_000);
        let mut fa = frame(2, vec![]);
        fa.hists = vec![snap_a.to_json()];
        let mut fb = frame(1, vec![]);
        fb.hists = vec![snap_b.to_json()];
        b.absorb(0, "s", fa);
        b.absorb(1, "s", fb);
        let mut w = PromWriter::new();
        b.prom_append(&mut w);
        let m = w.finish();
        assert!(m.contains("sea_fleet_inject_run_sim_cycles_count 3"), "{m}");
        assert!(
            m.contains("sea_fleet_inject_run_sim_cycles_sum 1030"),
            "{m}"
        );
    }
}
