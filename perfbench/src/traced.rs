//! The traced run: the workload re-expressed through the crates' public
//! calls with a span around each, a phase replay that splits runs into
//! acquire / advance / flip / suffix / classify, and the differential
//! check of every shortcut against the reference path.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sea_core::injection::supervisor::journal_file;
use sea_core::injection::{
    open_journal, verdict_line, CampaignConfig, CampaignPlan, InjectionSpec, Journal,
    JournalHeader, JournalSpec, RunVerdict,
};
use sea_core::microarch::{Component, FastPathConfig, System};
use sea_core::platform::{
    boot, classify, golden_run_with_checkpoints, run as run_machine, Board, Checkpoint,
    CheckpointSet, RunLimits,
};
use sea_core::workloads::BuiltWorkload;
use sea_core::{FaultClass, FsyncPolicy, JournalFormat};

use crate::record::{collect, nproc, Report, PER_LAYER};
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::workloads::{
    digest, inject_verdict, outcome_verdict, read_journal, run_rep, setup, Counters, Def,
    JournalStats, Rep,
};
use crate::Tally;

/// Traced set-ups.
const SETUPS: usize = 3;
/// Untraced reps at least, for the trace-overhead baseline and counters.
const BASE_REPS: usize = 2;
/// Strikes the beam phase replay draws.
const BEAM_REPLAY_STRIKES: usize = 48;
/// Runs re-executed on the reference path (and from checkpoints, and
/// without the cursor) per traced run.
const REFERENCE_RUNS: usize = 16;
/// Golden runs per arm of the REF vs FAST step-rate comparison.
const STEP_RATE_PAIRS: usize = 2;
/// Repetitions of the small single-call measurements.
const MICRO_REPS: usize = 16;
/// Indices per shard block in the fleet-merge measurement.
const SHARD_BLOCK: u64 = 64;

type Samples = BTreeMap<&'static str, Vec<f64>>;

/// One traced `run_index` call: index, seconds, verdict.
type TracedRun = (u64, f64, RunVerdict);

/// Deterministic xorshift64* stream for the beam replay's strikes.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
    }
}

/// Strikes for the beam phase replay: component by size, bit and cycle
/// uniform, in draw order — the way the session draws its SRAM strikes.
fn beam_strikes(
    seed: u64,
    golden_cycles: u64,
    machine: sea_core::MachineConfig,
) -> Vec<InjectionSpec> {
    let probe = System::new(machine, sea_core::microarch::NullDevice);
    let bits: Vec<(Component, u64)> = Component::ALL
        .iter()
        .map(|&c| (c, probe.component_bits(c)))
        .collect();
    let total: u64 = bits.iter().map(|b| b.1).sum();
    let mut rng = XorShift::new(seed);
    (0..BEAM_REPLAY_STRIKES)
        .map(|_| {
            let mut pick = rng.below(total);
            let mut spec = InjectionSpec {
                component: Component::L2,
                bit: 0,
                cycle: 0,
            };
            for &(c, b) in &bits {
                if pick < b {
                    spec.component = c;
                    spec.bit = pick;
                    break;
                }
                pick -= b;
            }
            spec.cycle = rng.below(golden_cycles);
            spec
        })
        .collect()
}

/// The verdict a replayed run reached.
struct Replayed {
    index: u64,
    spec: InjectionSpec,
    verdict: String,
    class: FaultClass,
}

/// Sums the phase replay accumulates besides its spans.
#[derive(Default)]
struct ReplayTotals {
    runs: u64,
    suffix_cycles: u64,
    masked_suffix_cycles: u64,
    line_hits: u64,
    l1_accesses: u64,
}

/// Replays `specs` in order on the accelerated path: a fault-free cursor
/// (fast path armed) advanced along the strikes and re-seeded by a boot
/// whenever a strike lies behind it, cloned at each strike cycle.
fn phase_replay(
    tr: &mut Tracer,
    built: &BuiltWorkload,
    cfg: &CampaignConfig,
    limits: RunLimits,
    specs: &[(u64, InjectionSpec)],
    totals: &mut ReplayTotals,
) -> Result<(Vec<Replayed>, System<Board>), String> {
    let mut cursor: Option<System<Board>> = None;
    let mut out = Vec::with_capacity(specs.len());
    for &(index, spec) in specs {
        let whole = tr.enter("replay.run");
        let c = match cursor.take() {
            Some(c) if c.cycles() <= spec.cycle => c,
            _ => {
                let id = tr.enter("platform.boot");
                let (mut sys, _) = boot(cfg.machine, &built.image, &cfg.kernel)
                    .map_err(|e| format!("boot: {e}"))?;
                sys.fastpath_enable(FastPathConfig::default());
                tr.exit(id);
                sys
            }
        };
        let c = cursor.insert(c);
        let id = tr.enter("replay.advance");
        while c.cycles() < spec.cycle {
            c.step();
        }
        tr.exit(id);

        let id = tr.enter("replay.clone");
        let mut sys = c.clone();
        tr.exit(id);
        let fast_before = sys.fastpath_stats().unwrap_or_default();
        let ctr_before = sys.cpu.counters;
        let id = tr.enter("replay.flip");
        let site = sys.flip_bit(spec.component, spec.bit);
        tr.exit(id);
        let id = tr.enter("replay.suffix");
        let outcome = run_machine(&mut sys, limits);
        tr.exit(id);
        let id = tr.enter("replay.classify");
        let class = classify(&outcome, &built.golden);
        tr.exit(id);
        tr.exit(whole);

        let suffix = sys.cycles() - spec.cycle;
        totals.runs += 1;
        totals.suffix_cycles += suffix;
        if class == FaultClass::Masked {
            totals.masked_suffix_cycles += suffix;
        }
        let ctr = sys.cpu.counters.delta(&ctr_before);
        totals.l1_accesses += ctr.l1i_access + ctr.l1d_access;
        totals.line_hits += sys
            .fastpath_stats()
            .unwrap_or_default()
            .line_hits
            .saturating_sub(fast_before.line_hits);
        out.push(Replayed {
            index,
            spec,
            verdict: inject_verdict(index, &class.to_string(), site.array.name(), site.was_valid),
            class,
        });
    }
    let cursor = match cursor {
        Some(c) => c,
        None => {
            boot(cfg.machine, &built.image, &cfg.kernel)
                .map_err(|e| format!("boot: {e}"))?
                .0
        }
    };
    Ok((out, cursor))
}

/// Every `len / n`-th position of `0..len` (all of them when `len <= n`).
fn stride_sample(len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    (0..n).map(|k| k * len / n).collect()
}

/// Re-runs sampled strikes on the reference path — from-reset boot, fast
/// path off, no cursor — and from the nearest checkpoint. The restored
/// machine must equal the reset machine at the strike cycle, and the
/// reference class must equal the replayed one. Returns the disagreements.
fn reference_check(
    tr: &mut Tracer,
    built: &BuiltWorkload,
    cfg: &CampaignConfig,
    limits: RunLimits,
    ckpts: &CheckpointSet,
    replayed: &[Replayed],
    problems: &mut Vec<String>,
) -> Result<(u64, Vec<f64>, Vec<f64>), String> {
    let mut disagreements = 0;
    let mut reset_acquire = Vec::new();
    let mut restore_acquire = Vec::new();
    for k in stride_sample(replayed.len(), REFERENCE_RUNS) {
        let r = &replayed[k];
        let whole = tr.enter("reference.run");
        let id = tr.enter("platform.boot");
        let (mut sys, _) =
            boot(cfg.machine, &built.image, &cfg.kernel).map_err(|e| format!("boot: {e}"))?;
        let boot_s = tr.exit(id);
        let id = tr.enter("reference.advance");
        while sys.cycles() < r.spec.cycle {
            sys.step();
        }
        reset_acquire.push(boot_s + tr.exit(id));

        let id = tr.enter("snapshot.restore");
        let restored = ckpts.restore_at(r.spec.cycle);
        let restore_s = tr.exit(id);
        if let Some(mut rs) = restored {
            let id = tr.enter("restore.advance");
            while rs.cycles() < r.spec.cycle {
                rs.step();
            }
            restore_acquire.push(restore_s + tr.exit(id));
            if rs.state_fingerprint_deep() != sys.state_fingerprint_deep() {
                disagreements += 1;
                problems.push(format!(
                    "run {}: checkpoint restore reached a different machine state",
                    r.index
                ));
            }
        }

        let id = tr.enter("reference.suffix");
        sys.flip_bit(r.spec.component, r.spec.bit);
        let class = classify(&run_machine(&mut sys, limits), &built.golden);
        tr.exit(id);
        tr.exit(whole);
        if class != r.class {
            disagreements += 1;
            problems.push(format!(
                "run {}: reference path says {class}, accelerated replay says {}",
                r.index, r.class
            ));
        }
    }
    Ok((disagreements, reset_acquire, restore_acquire))
}

/// The campaign re-expressed through `CampaignPlan`: `run_index` per index
/// on `threads` workers claiming ascending blocks (as the supervised pool
/// does), each verdict appended to the journal when there is one.
fn traced_campaign<'a>(
    tr: &mut Tracer,
    name: &str,
    built: &'a BuiltWorkload,
    cfg: &'a CampaignConfig,
    threads: usize,
) -> Result<(CampaignPlan<'a>, Vec<TracedRun>, Option<Journal>), String> {
    let id = tr.enter("injection.plan_new");
    let plan = CampaignPlan::new(name, built, cfg).map_err(|e| format!("plan: {e}"))?;
    tr.exit(id);
    let journal = match &cfg.journal {
        Some(spec) => {
            let id = tr.enter("durable.open");
            let (j, _) = open_journal(spec, &plan.header()).map_err(|e| format!("journal: {e}"))?;
            tr.exit(id);
            Some(j)
        }
        None => None,
    };
    let n = plan.total() as usize;
    let block = (n / (threads * 8)).clamp(1, 64);
    let next = AtomicUsize::new(0);
    let t0 = tr.origin();
    let workers: Vec<(Tracer, Vec<TracedRun>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (plan, journal, next) = (&plan, &journal, &next);
                s.spawn(move || {
                    let mut wt = Tracer::new(t0, w + 1);
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start as u64..(start + block).min(n) as u64 {
                            let id = wt.enter("injection.run_index");
                            let v = plan.run_index(i);
                            let dur = wt.exit(id);
                            if let Some(j) = journal {
                                let id = wt.enter("durable.append");
                                j.append(&verdict_line(i, &v));
                                wt.exit(id);
                            }
                            out.push((i, dur, v));
                        }
                    }
                    (wt, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut runs = Vec::with_capacity(n);
    for (wt, out) in workers {
        tr.absorb(wt);
        runs.extend(out);
    }
    runs.sort_by_key(|r| r.0);
    if let Some(j) = &journal {
        let id = tr.enter("durable.sync");
        j.sync();
        tr.exit(id);
    }
    Ok((plan, runs, journal))
}

/// Canonical verdict of a `RunVerdict` (empty for an anomaly).
fn run_verdict(i: u64, v: &RunVerdict) -> String {
    match (&v.outcome, &v.anomaly) {
        (Some(o), None) => outcome_verdict(i, o),
        _ => String::new(),
    }
}

/// Median fsync time: a record appended to an unsynced journal, then a
/// timed `Journal::sync`.
fn fsync_ms(tr: &mut Tracer, work: &Path) -> Result<Vec<f64>, String> {
    let spec = JournalSpec {
        dir: work.join("fsync-probe"),
        resume: false,
        format: JournalFormat::Binary,
        fsync: FsyncPolicy::None,
    };
    let header = JournalHeader {
        kind: "inject",
        workload: "fsync probe".into(),
        seed: 0,
        config_hash: 0,
        golden_hash: 0,
        ckpt: 0,
        total: MICRO_REPS as u64,
    };
    let (j, _) = open_journal(&spec, &header).map_err(|e| format!("probe journal: {e}"))?;
    let mut out = Vec::new();
    for k in 0..MICRO_REPS {
        j.append(&format!("{{\"i\":{k}}}"));
        let id = tr.enter("durable.fsync");
        j.sync();
        out.push(tr.exit(id) * 1e3);
    }
    Ok(out)
}

/// Writes the traced verdicts into `nproc` shard journals (blocks dealt
/// round-robin, as fleet workers claim them) and times
/// `merge_shard_journals`. The merge must come out in index order with
/// every run, carrying the campaign's verdicts.
fn fleet_merge(
    tr: &mut Tracer,
    work: &Path,
    name: &str,
    header: &JournalHeader,
    runs: &[TracedRun],
    want: u64,
    problems: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let shards = nproc().max(2);
    let mut paths = Vec::new();
    let mut journals = Vec::new();
    for s in 0..shards {
        let spec = JournalSpec {
            dir: work.join(format!("fleet/shard-{s}")),
            resume: false,
            format: JournalFormat::Binary,
            fsync: FsyncPolicy::None,
        };
        paths.push(journal_file(&spec.dir, "inject", name, spec.format));
        journals.push(
            open_journal(&spec, header)
                .map_err(|e| format!("shard journal: {e}"))?
                .0,
        );
    }
    for (i, _, v) in runs {
        journals[((i / SHARD_BLOCK) as usize) % shards].append(&verdict_line(*i, v));
    }
    for j in &journals {
        j.sync();
    }
    drop(journals);
    let out = work.join("fleet/merged.seaj");
    let mut times = Vec::new();
    for _ in 0..3 {
        let id = tr.enter("fleet.merge");
        sea_fleet::merge_shard_journals(&paths, &out).map_err(|e| format!("merge: {e}"))?;
        times.push(tr.exit(id) * 1e3);
    }
    let merged = read_journal(&out, false)?;
    let verdicts: Vec<String> = merged
        .verdicts
        .into_iter()
        .map(|(_, v)| v.unwrap_or_default())
        .collect();
    if merged.order_inversions != 0 || verdicts.len() != runs.len() || digest(&verdicts) != want {
        problems.push("fleet merge of the shard journals differs from the campaign".into());
    }
    Ok(times)
}

/// The traced run. See the module doc and README.md for what each metric
/// is measured on.
pub fn run(def: &Def, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let threads = def.threads();
    let study = def.study(seed, threads, work);
    let name = def.workload.name();
    let mut m: Samples = BTreeMap::new();
    let mut tr = Tracer::new(Instant::now(), 0);

    // Set-up, one span per public call.
    let mut last = None;
    for _ in 0..SETUPS {
        let id = tr.enter("setup");
        let s = setup(def, &study)?;
        tr.timed("workloads.build", s.build_s);
        tr.timed("platform.golden_run", s.golden_s);
        if def.is_beam() {
            tr.timed("beam.residency", s.residency_s);
        }
        tr.exit(id);
        last = Some(s);
    }
    let s = last.expect("SETUPS > 0");
    let (built, golden) = (s.built, s.golden);
    m.insert("workloads.build_s", tr.durations("workloads.build"));
    m.insert("platform.golden_s", tr.durations("platform.golden_run"));
    m.insert("beam.residency_s", or_zero(tr.durations("beam.residency")));

    // Untraced reps: the baseline for the trace overhead, and the program's
    // own counters around each.
    let mut base: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    while base.len() < BASE_REPS || t0.elapsed().as_secs_f64() < seconds / 4.0 {
        base.push(run_rep(def, &study, &built)?);
    }
    let mut tally = Tally::new(&base[0]);
    for r in &base[1..] {
        tally.add("untraced rep", r);
    }
    let want = tally.digest();
    let untraced_s = median(&base.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    counter_metrics(&mut m, &base);
    journal_metrics(&mut m, &base);

    let cfg = study.injection_config();
    let beam_cfg = study.beam_config();
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period)
        .with_wall_ms(cfg.supervisor.run_wall_ms);

    // The traced rep.
    let traced_s;
    let replay_specs: Vec<(u64, InjectionSpec)>;
    if def.is_beam() {
        let id = tr.enter("beam.run_session");
        let rep = run_rep(def, &study, &built)?;
        traced_s = tr.exit(id);
        tally.add("traced rep", &rep);
        replay_specs = beam_strikes(seed, golden.cycles, beam_cfg.machine)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        for k in [
            "injection.run_index_ms_p50",
            "injection.run_index_ms_p99",
            "durable.append_us_p50",
            "durable.append_us_p99",
            "durable.resume_ms",
            "fleet.merge_ms",
            "injection.nocursor_run_index_ms_p50",
            "injection.cursor_speedup",
        ] {
            m.insert(k, vec![0.0]);
        }
    } else {
        let id = tr.enter("campaign");
        let (plan, runs, journal) = traced_campaign(&mut tr, name, &built, &cfg, threads)?;
        traced_s = tr.exit(id);
        let verdicts: Vec<String> = runs.iter().map(|(i, _, v)| run_verdict(*i, v)).collect();
        let rep = Rep {
            wall_s: traced_s,
            total: verdicts.len() as u64,
            failed: (0..verdicts.len() as u64)
                .filter(|&i| verdicts[i as usize].is_empty())
                .collect(),
            verdicts,
            analytic: 0,
            counters: Counters::default(),
            journal: None,
            problems: Vec::new(),
        };
        tally.add("traced campaign", &rep);
        let run_ms: Vec<f64> = runs.iter().map(|r| r.1 * 1e3).collect();
        m.insert("injection.run_index_ms_p50", vec![median(&run_ms)]);
        m.insert(
            "injection.run_index_ms_p99",
            vec![percentile(&run_ms, 99.0)],
        );
        let append_us: Vec<f64> = tr
            .durations("durable.append")
            .iter()
            .map(|d| d * 1e6)
            .collect();
        m.insert("durable.append_us_p50", vec![median(&append_us)]);
        m.insert("durable.append_us_p99", vec![percentile(&append_us, 99.0)]);
        let resume_ms = match (&cfg.journal, journal) {
            (Some(spec), Some(j)) => {
                drop(j);
                let spec = JournalSpec {
                    resume: true,
                    ..spec.clone()
                };
                let id = tr.enter("durable.resume");
                let (_, entries) =
                    open_journal(&spec, &plan.header()).map_err(|e| format!("resume: {e}"))?;
                let ms = tr.exit(id) * 1e3;
                if entries.len() != runs.len() {
                    tally.problems.push(format!(
                        "resume found {} of {} records",
                        entries.len(),
                        runs.len()
                    ));
                }
                ms
            }
            _ => 0.0,
        };
        m.insert("durable.resume_ms", vec![resume_ms]);
        m.insert(
            "fleet.merge_ms",
            fleet_merge(
                &mut tr,
                work,
                name,
                &plan.header(),
                &runs,
                want,
                &mut tally.problems,
            )?,
        );

        // Cursor vs no cursor, on the reference sample.
        let nocursor_cfg = CampaignConfig {
            warp: None,
            ..cfg.clone()
        };
        let plan_nc =
            CampaignPlan::new(name, &built, &nocursor_cfg).map_err(|e| format!("plan: {e}"))?;
        let mut nocursor_ms = Vec::new();
        let mut cursor_ms = Vec::new();
        for k in stride_sample(runs.len(), REFERENCE_RUNS) {
            let (i, dur, v) = &runs[k];
            let id = tr.enter("injection.run_index_nocursor");
            let nv = plan_nc.run_index(*i);
            nocursor_ms.push(tr.exit(id) * 1e3);
            cursor_ms.push(dur * 1e3);
            tally.attempted += 1;
            if run_verdict(*i, &nv) != run_verdict(*i, v) {
                tally.failed += 1;
                tally
                    .problems
                    .push(format!("run {i}: verdict differs without the cursor"));
            }
        }
        m.insert(
            "injection.nocursor_run_index_ms_p50",
            vec![median(&nocursor_ms)],
        );
        m.insert(
            "injection.cursor_speedup",
            vec![ratio(nocursor_ms.iter().sum(), cursor_ms.iter().sum())],
        );
        replay_specs = plan
            .specs()
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
    }
    m.insert(
        "bench.trace_overhead_frac",
        vec![traced_s / untraced_s - 1.0],
    );

    // Phase replay on the accelerated path; for injection, every run of
    // the campaign, checked against its verdict.
    let mut totals = ReplayTotals::default();
    let id = tr.enter("replay");
    let (replayed, cursor) =
        phase_replay(&mut tr, &built, &cfg, limits, &replay_specs, &mut totals)?;
    tr.exit(id);
    tally.attempted += replayed.len() as u64;
    if !def.is_beam() {
        for r in &replayed {
            if base[0].verdicts.get(r.index as usize) != Some(&r.verdict) {
                tally.failed += 1;
                tally.problems.push(format!(
                    "run {}: phase replay disagrees with the campaign",
                    r.index
                ));
            }
        }
    }
    let per_run = |name: &str| tr.total(name) / totals.runs.max(1) as f64;
    m.insert(
        "microarch.advance_ms_per_run",
        vec![per_run("replay.advance") * 1e3],
    );
    m.insert(
        "microarch.suffix_cycles_per_run",
        vec![ratio(totals.suffix_cycles as f64, totals.runs as f64)],
    );
    m.insert(
        "microarch.host_ns_per_cycle",
        vec![ratio(
            tr.total("replay.suffix") * 1e9,
            totals.suffix_cycles as f64,
        )],
    );
    m.insert(
        "microarch.line_hit_rate",
        vec![ratio(totals.line_hits as f64, totals.l1_accesses as f64)],
    );
    m.insert(
        "injection.masked_suffix_cycles_frac",
        vec![ratio(
            totals.masked_suffix_cycles as f64,
            totals.suffix_cycles as f64,
        )],
    );
    m.insert("microarch.clone_ms", ms(tr.durations("replay.clone")));
    m.insert("microarch.flip_us", us(tr.durations("replay.flip")));
    m.insert("platform.run_ms", ms(tr.durations("replay.suffix")));
    m.insert("platform.classify_us", us(tr.durations("replay.classify")));

    // Harness overhead: the share of worker time not spent stepping the
    // simulated machine. Two factors, each measured inside one stretch of
    // time so host-speed drift between them cancels: worker time outside
    // `run_index` (journal, claiming; zero for beam, whose session has no
    // public per-strike call), and, inside a run, the share the replay
    // spent outside advance and suffix (acquisition, flip, classify).
    let outside = if def.is_beam() {
        0.0
    } else {
        1.0 - ratio(tr.total("injection.run_index"), traced_s * threads as f64)
    };
    let stepping = ratio(
        tr.total("replay.advance") + tr.total("replay.suffix"),
        tr.total("replay.run"),
    );
    m.insert(
        "injection.harness_overhead_frac",
        vec![1.0 - (1.0 - outside) * stepping],
    );

    // Checkpoints: capture, restore vs reset, encode/decode.
    let id = tr.enter("snapshot.capture");
    let (_, ckpts) = golden_run_with_checkpoints(
        cfg.machine,
        &built.image,
        &cfg.kernel,
        cfg.golden_budget_cycles,
        0,
    )
    .map_err(|e| format!("checkpointed golden run: {e}"))?;
    m.insert("snapshot.capture_s", vec![tr.exit(id)]);
    let (disagree, reset_acq, restore_acq) = reference_check(
        &mut tr,
        &built,
        &cfg,
        limits,
        &ckpts,
        &replayed,
        &mut tally.problems,
    )?;
    tally.attempted += stride_sample(replayed.len(), REFERENCE_RUNS).len() as u64;
    tally.failed += disagree;
    m.insert("platform.boot_ms", ms(tr.durations("platform.boot")));
    m.insert("snapshot.restore_ms", ms(tr.durations("snapshot.restore")));
    m.insert(
        "snapshot.restore_speedup",
        vec![ratio(median(&reset_acq), median(&restore_acq))],
    );
    encode_decode(&mut tr, &mut m, &cursor, &mut tally.problems);

    // REF vs FAST step rate on the golden run.
    step_rates(&mut tr, &mut m, &built, &cfg, &golden, &mut tally.problems)?;

    m.insert(
        "durable.fsync_ms",
        if def.journal.is_some() {
            fsync_ms(&mut tr, work)?
        } else {
            vec![0.0]
        },
    );
    m.insert(
        "beam.analytic_frac",
        base.iter()
            .map(|r| ratio(r.analytic as f64, r.total as f64))
            .collect(),
    );

    let spans_file = Path::new(".bench_work").join(format!("trace-{}-{seed}.json", def.name));
    if std::fs::write(&spans_file, tr.chrome_trace()).is_ok() {
        eprintln!("sea-perfbench: spans written to {}", spans_file.display());
    }
    let (attempted, failed, problems) = tally.finish();
    Ok(Report {
        workload: def.name,
        mode: "traced",
        seed,
        threads,
        reps: base.len(),
        digest: want,
        attempted,
        failed,
        correct: problems.is_empty(),
        problems,
        metrics: collect(PER_LAYER, m),
        spans: tr.totals(),
    })
}

fn or_zero(v: Vec<f64>) -> Vec<f64> {
    if v.is_empty() {
        vec![0.0]
    } else {
        v
    }
}

fn ms(v: Vec<f64>) -> Vec<f64> {
    or_zero(v.into_iter().map(|d| d * 1e3).collect())
}

fn us(v: Vec<f64>) -> Vec<f64> {
    or_zero(v.into_iter().map(|d| d * 1e6).collect())
}

/// Exported counters, one sample per untraced rep, and the ratios built
/// from them.
fn counter_metrics(m: &mut Samples, base: &[Rep]) {
    let deltas: Vec<Counters> = base.iter().map(|r| r.counters).collect();
    for (k, (name, _)) in Counters::default().fields().iter().enumerate() {
        m.insert(
            name,
            deltas.iter().map(|c| c.fields()[k].1 as f64).collect(),
        );
    }
    let per = |f: fn(&Counters) -> f64| deltas.iter().map(f).collect::<Vec<f64>>();
    m.insert(
        "injection.cursor_reuse_frac",
        per(|c| {
            ratio(
                c.warp_handoffs as f64,
                (c.warp_handoffs + c.warp_cursor_resets) as f64,
            )
        }),
    );
    m.insert(
        "injection.prefix_cycles_saved_frac",
        per(|c| {
            ratio(
                c.warp_prefix_cycles_saved as f64,
                (c.warp_prefix_cycles_saved + c.warp_advance_cycles) as f64,
            )
        }),
    );
    m.insert(
        "microarch.advance_cycles_per_run",
        per(|c| ratio(c.warp_advance_cycles as f64, c.warp_handoffs as f64)),
    );
    m.insert(
        "microarch.uop_hit_rate",
        per(|c| {
            ratio(
                c.fastpath_uop_hits as f64,
                (c.fastpath_uop_hits + c.fastpath_uop_misses) as f64,
            )
        }),
    );
}

/// Journal audit and read-back figures of the untraced reps.
fn journal_metrics(m: &mut Samples, base: &[Rep]) {
    let per = |f: &dyn Fn(&JournalStats) -> f64| -> Vec<f64> {
        base.iter()
            .map(|r| r.journal.as_ref().map_or(0.0, f))
            .collect()
    };
    m.insert(
        "durable.fsyncs_per_run",
        per(&|j| ratio(j.audit.fsyncs as f64, j.audit.appended as f64)),
    );
    m.insert(
        "durable.bytes_per_run",
        per(&|j| ratio(j.record_bytes as f64, j.records as f64)),
    );
    m.insert(
        "durable.order_inversions",
        per(&|j| j.order_inversions as f64),
    );
    m.insert("counters.journal_fsyncs", per(&|j| j.audit.fsyncs as f64));
    m.insert("counters.journal_retries", per(&|j| j.audit.retries as f64));
}

/// Checkpoint encode and decode of the replay cursor's final state; the
/// decoded machine must equal it.
fn encode_decode(
    tr: &mut Tracer,
    m: &mut Samples,
    sys: &System<Board>,
    problems: &mut Vec<String>,
) {
    let ckpt = Checkpoint::capture(sys);
    let mut bytes = Vec::new();
    let mut decoded = None;
    for _ in 0..3 {
        let id = tr.enter("snapshot.encode");
        bytes = ckpt.encode(1, 2);
        tr.exit(id);
        let id = tr.enter("snapshot.decode");
        decoded = Checkpoint::decode(&bytes, 1, 2).ok();
        tr.exit(id);
    }
    match decoded {
        Some(d) if d.restore().state_fingerprint_deep() == sys.state_fingerprint_deep() => {}
        _ => problems.push("checkpoint encode/decode did not round-trip".into()),
    }
    m.insert("snapshot.encode_ms", ms(tr.durations("snapshot.encode")));
    m.insert("snapshot.decode_ms", ms(tr.durations("snapshot.decode")));
    m.insert("snapshot.bytes", vec![bytes.len() as f64]);
}

/// Golden-run step rate with the fast path off (REF) and on (FAST), in
/// interleaved pairs; both arms must end in the same state.
fn step_rates(
    tr: &mut Tracer,
    m: &mut Samples,
    built: &BuiltWorkload,
    cfg: &CampaignConfig,
    golden: &sea_core::platform::GoldenRun,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut prints = [0u64; 2];
    for _ in 0..STEP_RATE_PAIRS {
        for (arm, fast) in [false, true].into_iter().enumerate() {
            let (mut sys, _) =
                boot(cfg.machine, &built.image, &cfg.kernel).map_err(|e| format!("boot: {e}"))?;
            if fast {
                sys.fastpath_enable(FastPathConfig::default());
            }
            let id = tr.enter(if fast {
                "microarch.golden_fast"
            } else {
                "microarch.golden_ref"
            });
            run_machine(&mut sys, limits);
            let secs = tr.exit(id);
            rates[arm].push(sys.cpu.counters.instructions as f64 / secs / 1e6);
            prints[arm] = sys.state_fingerprint_deep();
        }
    }
    if prints[0] != prints[1] {
        problems.push("fast path changed the golden run's final state".into());
    }
    let [ref_rates, fast_rates] = rates;
    m.insert("microarch.ref_msteps_per_s", ref_rates);
    m.insert("microarch.fast_msteps_per_s", fast_rates);
    Ok(())
}
