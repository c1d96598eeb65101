//! The four workloads, each run through the program's public entry
//! points: `Simulation`, `Scenario::multiprocess` and `microslip::serve`.
//!
//! One call of [`run_iteration`] is one complete, checked run of a
//! workload. The paper workloads are fixed by the paper and take no seed;
//! the sweep's grid comes from the seed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use microslip::cluster::Scheme;
use microslip::lbm::Simulation;
use microslip::obs::{from_jsonl, Event, JobStage, TraceSummary};
use microslip::runtime::LoadModel;
use microslip::serve::{self, RunJobArgs, ServeConfig, SweepRequest};
use microslip::Scenario;

use crate::check::{self, Reference};
use crate::spans::Tracer;

/// Phases of every paper workload (one fixed count, so serial and
/// decomposed runs share one reference).
pub const PAPER_PHASES: u64 = 12;
/// The paper grid: 2 µm × 1 µm × 0.1 µm at 5 nm spacing.
pub const PAPER_DIMS: (usize, usize, usize) = (400, 200, 20);
/// The sweep's small, LLC-resident jobs.
pub const SWEEP_DIMS: (usize, usize, usize) = (64, 32, 8);
pub const SWEEP_PHASES: u64 = 300;
/// Closed-loop `serve::fetch` calls per sweep iteration (one client).
pub const FETCHES_PER_ITERATION: usize = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperSerial,
    PaperMp2,
    PaperMp2Loaded,
    SweepDedupe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSerial,
        Workload::PaperMp2,
        Workload::PaperMp2Loaded,
        Workload::SweepDedupe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSerial => "paper-serial",
            Workload::PaperMp2 => "paper-mp2",
            Workload::PaperMp2Loaded => "paper-mp2-loaded",
            Workload::SweepDedupe => "sweep-dedupe",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_mp(self) -> bool {
        matches!(self, Workload::PaperMp2 | Workload::PaperMp2Loaded)
    }

    /// Iterations a run makes even past `--seconds`, so set-up is always
    /// measured more than once. The serial iteration is the cheapest (~6 s)
    /// and the most exposed to co-tenants' memory traffic, so it gets a
    /// third: its median then shrugs off one contended iteration.
    pub fn min_iterations(self) -> usize {
        if self == Workload::PaperSerial {
            3
        } else {
            2
        }
    }
}

/// The paper run: the 400×200×20 two-component channel with the `mp`
/// CLI's body force, 2 ranks. The loaded variant throttles rank 1 ×2 (the
/// competing job) under filtered remapping with the synthetic load model,
/// so its decisions and plane counts repeat exactly.
pub fn paper_scenario(w: Workload) -> Scenario {
    let (nx, ny, nz) = PAPER_DIMS;
    let s = Scenario::paper_scaled(nx, ny, nz)
        .workers(2)
        .phases(PAPER_PHASES);
    match w {
        Workload::PaperMp2Loaded => s
            .remap_every(3)
            .predictor_window(2)
            .scheme(Scheme::Filtered)
            .throttle(1, 2.0)
            .load_model(LoadModel::Synthetic { per_point: 1.0 }),
        _ => s.remap_every(0).scheme(Scheme::NoRemap),
    }
}

/// What every iteration of a run shares.
pub struct Ctx {
    /// Per-run scratch, deleted after the run.
    pub scratch: PathBuf,
    /// The `microslip` binary, spawned as rank and job worker.
    pub worker: PathBuf,
    pub seed: u64,
}

/// Program-side data of one iteration, for the per-layer metrics.
#[derive(Default)]
pub struct Layers {
    pub summary: Option<TraceSummary>,
    /// The raw per-rank JSONL (mp) or the daemon's JSONL (sweep).
    pub jsonl: Vec<String>,
    pub outside_s: f64,
    pub serve: Option<ServeStats>,
}

/// Daemon-side counts and timings of one sweep iteration.
#[derive(Default)]
pub struct ServeStats {
    pub jobs: usize,
    pub scheduled: usize,
    pub cache_hits: usize,
    pub respawns: usize,
    /// Started → done seconds of each scheduled job.
    pub job_times: Vec<f64>,
    pub queue_wait_s: f64,
    pub submit_ms: f64,
    pub sweep_s: f64,
    pub artifact: Vec<u8>,
}

/// One checked run of a workload.
#[derive(Default)]
pub struct Iteration {
    pub wall_s: f64,
    pub setup_s: f64,
    pub finish_s: f64,
    /// Phase loop (paper) or cold sweep (sweep) seconds.
    pub solve_s: f64,
    /// Lattice-site updates done in `solve_s`.
    pub updates: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub fetch_ms: Vec<f64>,
    pub layers: Layers,
}

impl Iteration {
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    pub fn mlups(&self) -> f64 {
        if self.solve_s > 0.0 {
            self.updates / self.solve_s / 1e6
        } else {
            0.0
        }
    }
}

/// Runs `w` once. `iter` numbers the iteration within the run.
pub fn run_iteration(
    w: Workload,
    ctx: &Ctx,
    reference: Option<&Reference>,
    tr: &mut Tracer,
    iter: usize,
) -> Iteration {
    let dir = ctx.scratch.join(format!("{}-{iter}", w.name()));
    let it = match (w, reference) {
        (Workload::PaperSerial, Some(r)) => paper_serial(r, tr),
        (Workload::PaperMp2 | Workload::PaperMp2Loaded, Some(r)) => paper_mp(w, ctx, &dir, r, tr),
        (Workload::SweepDedupe, _) => sweep(ctx, &dir, tr, iter == 0),
        _ => {
            let mut it = Iteration::default();
            it.op(Err("paper workload run without its reference".into()));
            it
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    it
}

fn reset_peak_rss() {
    // Resets VmHWM to the current RSS (Linux ≥ 4.0); harmless elsewhere.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn paper_cells() -> f64 {
    let (nx, ny, nz) = PAPER_DIMS;
    (nx * ny * nz) as f64
}

fn paper_serial(reference: &Reference, tr: &mut Tracer) -> Iteration {
    let cfg = paper_scenario(Workload::PaperSerial).channel;
    let mut it = Iteration::default();
    reset_peak_rss();
    let t0 = Instant::now();
    let id = tr.begin("workload", "paper-serial");
    let mut sim = tr.time("lbm", "Simulation::new", || Simulation::new(cfg));
    let t1 = Instant::now();
    tr.time("lbm", "Simulation::run", || sim.run(PAPER_PHASES));
    let t2 = Instant::now();
    let snap = tr.time("lbm", "Simulation::snapshot", || sim.snapshot());
    let verdict = tr.time("check", "Reference::check", || reference.check(&snap));
    tr.end(id);
    let t3 = Instant::now();
    it.peak_rss_mb = peak_rss_mb();
    it.op(verdict);
    it.setup_s = (t1 - t0).as_secs_f64();
    it.solve_s = (t2 - t1).as_secs_f64();
    it.wall_s = (t3 - t0).as_secs_f64();
    it.updates = paper_cells() * PAPER_PHASES as f64;
    it.finish_s = (t3 - t2).as_secs_f64();
    it
}

fn paper_mp(
    w: Workload,
    ctx: &Ctx,
    dir: &Path,
    reference: &Reference,
    tr: &mut Tracer,
) -> Iteration {
    let mut it = Iteration::default();
    let mut mp = match paper_scenario(w).multiprocess() {
        Ok(mp) => mp,
        Err(e) => {
            it.op(Err(e));
            return it;
        }
    };
    let cfg = mp.config_mut();
    cfg.dir = Some(dir.to_path_buf());
    cfg.worker_exe = Some(ctx.worker.clone());

    reset_peak_rss();
    let sys0 = SystemTime::now();
    let t0 = Instant::now();
    let id = tr.begin("mp", "run_multiprocess");
    let result = mp.run();
    tr.end(id);
    let verdict = match &result {
        Ok(o) => tr.time("check", "Reference::check", || reference.check(&o.snapshot)),
        Err(e) => Err(format!("mp run failed: {e}")),
    };
    let wall = t0.elapsed().as_secs_f64();
    it.peak_rss_mb = peak_rss_mb();
    it.op(verdict);
    it.wall_s = wall;
    let Ok(outcome) = result else { return it };

    // The ranks stamp spans on their own clocks, which start when they
    // are spawned; the driver writes config.bin just before spawning, so
    // its mtime places the rank clocks on ours.
    let spawn_at = std::fs::metadata(dir.join("config.bin"))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| m.duration_since(sys0).ok())
        .map_or(0.0, |d| d.as_secs_f64())
        .min(wall);
    let summary = TraceSummary::from_events(&outcome.events);
    let makespan = summary.nodes.iter().map(|n| n.makespan).fold(0.0, f64::max);
    // The coupled phase loop starts once every rank has started phase 1.
    let mut loop_start = 0.0f64;
    for node in 0..summary.nodes.len() {
        let first = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.node == node && s.phase >= 1 => Some(s.start),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        if first.is_finite() {
            loop_start = loop_start.max(first);
        }
    }
    it.setup_s = spawn_at + loop_start;
    it.solve_s = makespan - loop_start;
    it.finish_s = wall - spawn_at - makespan;
    it.updates = paper_cells() * PAPER_PHASES as f64;
    it.layers.outside_s = wall - makespan;
    if tr.enabled() {
        tr.attach(&outcome.events, tr.start_of(id) + spawn_at, Some(id));
        for rank in 0..outcome.reports.len() {
            let text = std::fs::read_to_string(dir.join(format!("rank{rank}.jsonl")));
            it.layers.jsonl.push(text.unwrap_or_default());
        }
    }
    it.layers.summary = Some(summary);
    it
}

// ---------------------------------------------------------------------
// sweep-dedupe
// ---------------------------------------------------------------------

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to `step`.
    pub fn pick(&mut self, lo: f64, hi: f64, step: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) / step).round() * step
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded sweep: a 2 × 4 grid over the tunable-slip reflection and
/// the wall-force amplitude whose amplitude axis lists each of its two
/// values twice, so 4 of the 8 jobs duplicate another. The seed picks the
/// values, the order of the duplicated axis and which axis comes first.
pub struct SweepPlan {
    pub request: SweepRequest,
    /// `(key, scenario)` of each distinct job, in first-seen order.
    pub unique: Vec<(String, Scenario)>,
    pub jobs: usize,
}

pub fn sweep_base() -> Scenario {
    let (nx, ny, nz) = SWEEP_DIMS;
    Scenario::paper_scaled(nx, ny, nz).phases(SWEEP_PHASES)
}

pub fn sweep_plan(seed: u64) -> Result<SweepPlan, String> {
    let mut rng = Rng::new(seed);
    let mut distinct_pair = |lo: f64, hi: f64, step: f64| {
        let a = rng.pick(lo, hi, step);
        let b = rng.pick(lo, hi, step);
        let gap = (hi - lo) / 4.0;
        let b = if (b - a).abs() >= gap {
            b
        } else if a + gap < hi {
            a + gap
        } else {
            a - gap
        };
        (a, b)
    };
    let (r1, r2) = distinct_pair(0.2, 0.9, 0.01);
    let (a1, a2) = distinct_pair(0.05, 0.3, 0.005);
    let mut amplitudes = vec![a1, a2, a1, a2];
    for i in (1..amplitudes.len()).rev() {
        amplitudes.swap(i, rng.below(i + 1));
    }
    let mut axes = vec![
        ("slip-r".to_string(), vec![r1, r2]),
        ("wall-amplitude".to_string(), amplitudes),
    ];
    if rng.below(2) == 1 {
        axes.reverse();
    }
    let request = SweepRequest {
        base: sweep_base(),
        checkpoint_every: None,
        axes,
    };
    let scenarios = request.expand()?;
    let jobs = scenarios.len();
    let mut unique: Vec<(String, Scenario)> = Vec::new();
    for s in scenarios {
        let key = s.key();
        if !unique.iter().any(|(k, _)| *k == key) {
            unique.push((key, s));
        }
    }
    Ok(SweepPlan {
        request,
        unique,
        jobs,
    })
}

fn wait_for_addr(
    dir: &Path,
    daemon: &std::thread::JoinHandle<Result<(), String>>,
) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("serve.addr")) {
            if text.ends_with('\n') {
                return Ok(text.trim().to_string());
            }
        }
        if daemon.is_finished() {
            return Err("serve daemon exited before publishing its address".into());
        }
        if Instant::now() >= deadline {
            return Err("serve daemon did not publish its address within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sweep(ctx: &Ctx, dir: &Path, tr: &mut Tracer, recompute: bool) -> Iteration {
    let mut it = Iteration::default();
    let plan = match sweep_plan(ctx.seed) {
        Ok(p) => p,
        Err(e) => {
            it.op(Err(format!("sweep plan: {e}")));
            return it;
        }
    };
    reset_peak_rss();
    let t0 = Instant::now();
    let id = tr.begin("serve", "sweep-dedupe");
    let cfg = ServeConfig::new(dir, &ctx.worker);
    let daemon = std::thread::spawn(move || serve::run_serve(&cfg));
    let mut stats = ServeStats::default();
    let mut misses: Vec<(String, Vec<u8>)> = Vec::new();
    let body = sweep_client(
        &plan,
        dir,
        &daemon,
        t0,
        tr,
        &mut it,
        &mut stats,
        &mut misses,
    );
    let addr = match body {
        Ok(addr) => Some(addr),
        Err(e) => {
            it.op(Err(e));
            std::fs::read_to_string(dir.join("serve.addr"))
                .ok()
                .map(|a| a.trim().to_string())
        }
    };
    if let Some(addr) = addr {
        let shut = tr.time("serve", "serve::shutdown", || serve::shutdown(&addr));
        it.op(shut.map_err(|e| format!("shutdown: {e}")));
    }
    let joined = tr.time("serve", "daemon join", || daemon.join());
    it.op(match joined {
        Ok(r) => r.map_err(|e| format!("serve daemon: {e}")),
        Err(_) => Err("serve daemon thread panicked".into()),
    });
    tr.end(id);
    it.wall_s = t0.elapsed().as_secs_f64();
    it.peak_rss_mb = peak_rss_mb();

    // Daemon-side job events, written at shutdown.
    if let Ok(text) = std::fs::read_to_string(dir.join("serve.jsonl")) {
        if let Ok(events) = from_jsonl(&text) {
            fill_job_stats(&events, &mut stats);
            // The daemon's clock starts within milliseconds of this span.
            tr.attach(&events, tr.start_of(id), Some(id));
        }
        it.layers.jsonl.push(text);
    }

    // Cached = fresh: one seeded job recomputed by `run_job`, outside the
    // timed run, must give the bytes the cache served (once per run).
    if recompute && !misses.is_empty() {
        let (key, scenario) = &plan.unique[Rng::new(ctx.seed ^ 0xf5e5).below(plan.unique.len())];
        let fresh = fresh_artifact(&dir.join("fresh"), scenario);
        let cached = misses
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, b)| b.as_slice());
        it.op(match (fresh, cached) {
            (Ok(f), Some(c)) => check::check_same("fresh run_job", key, c, &f),
            (Err(e), _) => Err(format!("fresh run_job for {key}: {e}")),
            (_, None) => Err(format!("no fetched artifact for {key}")),
        });
    }
    it.updates = {
        let (nx, ny, nz) = SWEEP_DIMS;
        (plan.unique.len() * nx * ny * nz) as f64 * SWEEP_PHASES as f64
    };
    it.solve_s = stats.sweep_s;
    it.layers.serve = Some(stats);
    it
}

/// The client side of one sweep iteration: cold sweep, verified fetch of
/// each distinct result, all-hit resubmit, closed fetch loop. Returns the
/// daemon address.
#[allow(clippy::too_many_arguments)]
fn sweep_client(
    plan: &SweepPlan,
    dir: &Path,
    daemon: &std::thread::JoinHandle<Result<(), String>>,
    t0: Instant,
    tr: &mut Tracer,
    it: &mut Iteration,
    stats: &mut ServeStats,
    misses: &mut Vec<(String, Vec<u8>)>,
) -> Result<String, String> {
    let addr = tr.time("serve", "daemon up", || wait_for_addr(dir, daemon))?;
    let ts = Instant::now();
    let ticket = tr.time("serve", "serve::submit (cold)", || {
        serve::submit(&addr, &plan.request)
    })?;
    stats.submit_ms = ts.elapsed().as_secs_f64() * 1e3;
    it.setup_s = t0.elapsed().as_secs_f64();
    let want: Vec<&str> = plan.unique.iter().map(|(k, _)| k.as_str()).collect();
    it.op(
        if ticket.jobs == plan.jobs && ticket.scheduled == want.len() {
            Ok(())
        } else {
            Err(format!(
                "cold sweep: {} jobs, {} scheduled; want {} jobs, {} scheduled",
                ticket.jobs,
                ticket.scheduled,
                plan.jobs,
                want.len()
            ))
        },
    );
    tr.time("serve", "serve::wait_idle", || {
        serve::wait_idle(&addr, Duration::from_secs(120))
    })?;
    let t_idle = Instant::now();
    stats.sweep_s = (t_idle - ts).as_secs_f64();

    let fid = tr.begin("serve", "fetch + verify");
    for key in &want {
        let got = serve::fetch(&addr, key).and_then(|b| check::check_artifact(&b, key).map(|()| b));
        match got {
            Ok(bytes) => {
                it.op(Ok(()));
                misses.push((key.to_string(), bytes));
            }
            Err(e) => it.op(Err(format!("fetch {key}: {e}"))),
        }
    }
    let again = serve::submit(&addr, &plan.request)?;
    it.op(if again.scheduled == 0 && again.cached == again.jobs {
        Ok(())
    } else {
        Err(format!(
            "resubmit scheduled {} of {} jobs; want all from cache",
            again.scheduled, again.jobs
        ))
    });
    let keys = &ticket.keys;
    for n in 0..FETCHES_PER_ITERATION {
        let key = &keys[n % keys.len()];
        let tf = Instant::now();
        let got = serve::fetch(&addr, key);
        it.fetch_ms.push(tf.elapsed().as_secs_f64() * 1e3);
        let miss = misses
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, b)| b.as_slice());
        it.op(match (got, miss) {
            (Ok(b), Some(m)) => check::check_same("cache hit", key, m, &b),
            (Err(e), _) => Err(format!("fetch {key}: {e}")),
            (Ok(_), None) => Err(format!("fetched {key}, which never appeared as a miss")),
        });
    }
    tr.end(fid);
    it.finish_s = t_idle.elapsed().as_secs_f64();
    if let Some((_, b)) = misses.first() {
        stats.artifact = b.clone();
    }
    Ok(addr)
}

/// Job counts and timings from the daemon's job events.
fn fill_job_stats(events: &[Event], stats: &mut ServeStats) {
    let summary = TraceSummary::from_events(events);
    stats.jobs = summary.jobs_submitted;
    stats.cache_hits = summary.cache_hits;
    let mut submitted: Vec<(&str, f64)> = Vec::new();
    let mut started: Vec<(&str, f64)> = Vec::new();
    let (mut waits, mut runs) = (Vec::new(), Vec::new());
    for e in events {
        let Event::Job {
            time, key, stage, ..
        } = e
        else {
            continue;
        };
        match stage {
            JobStage::Submitted if !submitted.iter().any(|(k, _)| k == key) => {
                submitted.push((key, *time))
            }
            JobStage::Started => {
                stats.scheduled += 1;
                started.push((key, *time));
                if let Some((_, t)) = submitted.iter().find(|(k, _)| k == key) {
                    waits.push(time - t);
                }
            }
            JobStage::Restarted => stats.respawns += 1,
            JobStage::Done => {
                if let Some((_, t)) = started.iter().find(|(k, _)| k == key) {
                    runs.push(time - t);
                }
            }
            _ => {}
        }
    }
    stats.queue_wait_s = crate::median(&mut waits);
    stats.job_times = runs;
}

/// Runs one scenario through `serve::run_job` in this process and returns
/// the sealed artifact bytes.
fn fresh_artifact(dir: &Path, scenario: &Scenario) -> Result<Vec<u8>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scenario_path = dir.join("scenario.bin");
    std::fs::write(&scenario_path, scenario.canonical_bytes())
        .map_err(|e| format!("write {}: {e}", scenario_path.display()))?;
    let args = RunJobArgs {
        scenario_path,
        out_path: dir.join("result.artifact"),
        checkpoint_dir: dir.join("ckpt"),
        checkpoint_every: 0,
        resume: false,
        die_at_phase: None,
    };
    serve::run_job(&args)?;
    std::fs::read(&args.out_path).map_err(|e| format!("read {}: {e}", args.out_path.display()))
}
