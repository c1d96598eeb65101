//! `perfbench`: the end-to-end benchmark of the paper run.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --scratch DIR --state DIR --worker PATH/TO/microslip
//! perfbench --self-test
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload for at least `S`
//! seconds and at least [`Workload::min_iterations`] times, checks every
//! result, and reports the medians of the end-to-end metrics. Traced
//! (`--trace 1`), it runs the workload once untraced and once traced,
//! probes every layer, and reports the per-layer metrics; the trace lands
//! in `--state`. The last stdout line is always the result object.
//! Normally started through `run.py`, which builds the binaries and owns
//! the scratch directory.

mod check;
mod host;
mod probes;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use microslip::obs::json;

use check::Reference;
use spans::Tracer;
use workloads::{Ctx, Iteration, Workload, PAPER_PHASES};

/// A reported figure: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("mlups", "MLUP/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    state: PathBuf,
    worker: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload '{workload}' (known: {})",
                names.join(", ")
            )
        })?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed wants an unsigned integer")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds wants a number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
        },
        scratch: get("--scratch")?.into(),
        state: get("--state")?.into(),
        worker: get("--worker")?.into(),
    })
}

/// Median; sorts `v` in place. 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; sorts `v` in place. 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    if p == 0.5 && v.len().is_multiple_of(2) {
        let m = v.len() / 2;
        return 0.5 * (v[m - 1] + v[m]);
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median_of(its: &[&Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    let mut v: Vec<f64> = its.iter().map(|i| f(i)).collect();
    median(&mut v)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!(r#""{n}":{{"value":{},"unit":"{u}"}}"#, json::num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        let misses = check::self_test();
        std::process::exit(i32::from(misses != 0));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.scratch).map_err(|e| format!("scratch: {e}"))?;
    let fp = host::Fingerprint::detect();
    println!("fingerprint {}", fp.to_json());
    let reference = if w == Workload::SweepDedupe {
        None
    } else {
        let t = Instant::now();
        let r = Reference::load_or_compute(
            &args.state,
            &workloads::paper_scenario(w).channel,
            PAPER_PHASES,
        )?;
        println!(
            "reference: serial digest {:016x} ({:.2} s to load or compute)",
            r.digest,
            t.elapsed().as_secs_f64()
        );
        Some(r)
    };
    let ctx = Ctx {
        scratch: args.scratch.clone(),
        worker: args.worker.clone(),
        seed: args.seed,
    };

    let mut its: Vec<Iteration> = Vec::new();
    let t0 = Instant::now();
    let mut traced = None;
    if args.trace {
        its.push(workloads::run_iteration(
            w,
            &ctx,
            reference.as_ref(),
            &mut Tracer::new(false),
            0,
        ));
        let mut tr = Tracer::new(true);
        let it = workloads::run_iteration(w, &ctx, reference.as_ref(), &mut tr, 1);
        traced = Some((it, tr));
    } else {
        while its.len() < w.min_iterations() || t0.elapsed().as_secs_f64() < args.seconds {
            let n = its.len();
            its.push(workloads::run_iteration(
                w,
                &ctx,
                reference.as_ref(),
                &mut Tracer::new(false),
                n,
            ));
        }
    }
    for (i, it) in its
        .iter()
        .chain(traced.as_ref().map(|(it, _)| it))
        .enumerate()
    {
        println!(
            "iteration {i}: wall {:.3} s, setup {:.3} s, solve {:.3} s, finish {:.3} s, {:.3} MLUP/s, peak RSS {:.0} MB, {} of {} operations failed",
            it.wall_s, it.setup_s, it.solve_s, it.finish_s, it.mlups(), it.peak_rss_mb, it.failed, it.attempted
        );
        // On stderr too, so a failed run's log tail names its cause.
        for e in it.errors.iter().take(5) {
            println!("  failed: {e}");
            eprintln!("perfbench: iteration {i} failed: {e}");
        }
    }
    let all: Vec<&Iteration> = its
        .iter()
        .chain(traced.as_ref().map(|(it, _)| it))
        .collect();
    let attempted: u64 = all.iter().map(|it| it.attempted).sum();
    let failed: u64 = all.iter().map(|it| it.failed).sum();

    let (metrics, extra): (Vec<Metric>, Vec<Metric>) = if let Some((it, mut tr)) = traced {
        let untraced_wall = its[0].wall_s;
        let v = probes::run(w, &ctx, &mut tr, &it, untraced_wall, fp.stream_gbps)?;
        report_traced(args, w, &it, &tr, &v)?;
        let metrics = probes::PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, v.get(n)))
            .collect();
        (metrics, Vec::new())
    } else {
        // Times come from the iterations that ran clean: a run that failed
        // has no phase loop or finish to time. Failures count in ok_frac.
        let clean: Vec<&Iteration> = its.iter().filter(|i| i.failed == 0).collect();
        let e2e = [
            median_of(&clean, |i| i.wall_s),
            median_of(&clean, |i| i.setup_s),
            median_of(&clean, Iteration::mlups),
            median_of(&clean, |i| i.peak_rss_mb),
            1.0 - failed as f64 / attempted.max(1) as f64,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (metrics, untraced_extra(w, &clean, failed, attempted))
    };
    if args.trace {
        println!("\n{} — per-layer metrics of the traced run", w.name());
    } else {
        println!("\n{} — medians of {} iterations", w.name(), its.len());
    }
    for (n, u, v) in metrics.iter().chain(&extra) {
        println!("  {n:<24} {v:>16.6} {u}");
    }
    println!(
        r#"result {{"workload":"{}","seed":{},"trace":{},"fingerprint":{},"metrics":{},"extra":{}}}"#,
        w.name(),
        args.seed,
        u8::from(args.trace),
        fp.to_json(),
        metrics_json(&metrics),
        metrics_json(&extra)
    );
    println!(
        r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{}}}"#,
        failed == 0,
        metrics_json(&metrics)
    );
    Ok(())
}

/// The issue's other end-to-end figures: printed and saved with the
/// result, but not gated, because not every workload has them or they
/// read 0 on a correct run.
fn untraced_extra(w: Workload, its: &[&Iteration], failed: u64, attempted: u64) -> Vec<Metric> {
    let mut extra = vec![
        (
            "fail_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
        ("finish_s", "s", median_of(its, |i| i.finish_s)),
    ];
    if w == Workload::SweepDedupe {
        let mut fetch: Vec<f64> = its
            .iter()
            .flat_map(|i| i.fetch_ms.iter().copied())
            .collect();
        extra.push(("sweep_s", "s", median_of(its, |i| i.solve_s)));
        extra.push(("fetch_p50_ms", "ms", percentile(&mut fetch, 0.5)));
        extra.push(("fetch_p99_ms", "ms", percentile(&mut fetch, 0.99)));
        extra.push(("fetches", "count", fetch.len() as f64));
    }
    extra
}

fn report_traced(
    args: &Args,
    w: Workload,
    it: &Iteration,
    tr: &Tracer,
    v: &probes::Values,
) -> Result<(), String> {
    println!("\nself time by layer (span minus child spans; rank spans in rank-seconds)");
    for (layer, secs) in tr.self_times() {
        println!("  {layer:<28} {secs:>10.4} s");
    }
    if w.is_mp() {
        let ranks = 2.0;
        let parts = [
            ("rank save_solver", v.get("ckpt.save_s")),
            ("rank write_sealed", v.get("ckpt.write_s")),
            ("driver read_sealed ×2", ranks * v.get("ckpt.read_s")),
            ("driver load_solver ×2", ranks * v.get("ckpt.load_s")),
            ("Snapshot::stitch", v.get("mp.stitch_s")),
            ("obs merge", v.get("obs.merge_s")),
            ("spawn + reap", v.get("mp.spawn_s")),
        ];
        let predicted: f64 = parts.iter().map(|p| p.1).sum();
        let outside = it.layers.outside_s;
        println!(
            "\nmp.outside_s = wall_s − runtime.makespan_s = {:.3} − {:.3} = {outside:.3} s",
            it.wall_s,
            v.get("runtime.makespan_s")
        );
        for (name, secs) in parts {
            println!("  predicted {name:<24} {secs:>8.3} s");
        }
        println!("  predicted sum {predicted:>29.3} s beside measured {outside:.3} s; unexplained {:.3} s", outside - predicted);
    }
    let dir = args.state.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let prefix = dir.join(w.name());
    tr.export(&prefix)?;
    println!(
        "\ntrace: {}.{{bench.jsonl,events.jsonl,trace.json}} (open trace.json in Perfetto)",
        prefix.display()
    );
    Ok(())
}
