//! Intra-slab kernel scaling: the fused collide→stream phase across rayon
//! thread counts, against its own single-thread time.
//!
//! Times whole periodic phases on a single slab covering the full channel
//! (the paper's 400×200×20 lattice by default) and writes the results,
//! with the host's core count, CPU model and AVX2 support, to a JSON file
//! for the experiment log. The min over `reps` timed phases is reported to
//! suppress scheduler noise.
//!
//! Usage:
//!   kernel_scaling [--planes 400] [--ny 200] [--nz 20] [--reps 3]
//!                  [--out BENCH_kernels.json]
//!
//! Thread counts beyond the host's core count cannot speed anything up;
//! the sweep still runs them so the flat tail is visible in the data.

use std::time::Instant;

use microslip_lbm::{ChannelConfig, Dims, Parallelism, Slab, SlabSolver};

/// `--name value` flag with a default; panics on an unparsable value.
fn flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad value for {name}")),
        None => default,
    }
}

fn solver(dims: Dims, par: Parallelism) -> SlabSolver {
    let mut cfg = ChannelConfig::paper_scaled(dims);
    cfg.parallelism = par;
    let mut s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: dims.nx });
    s.prime_periodic();
    s
}

/// Min seconds per phase over `reps` runs (after one warmup phase).
fn time_phase(s: &mut SlabSolver, reps: usize) -> f64 {
    s.phase_periodic_fused(); // warmup: touches every page, fills caches
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        s.phase_periodic_fused();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The host's CPU model and whether it has AVX2 (which selects the SIMD
/// collision and force kernels): with the core count, what makes two
/// recordings comparable.
fn cpu_fingerprint() -> (String, bool) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    (model, avx2)
}

struct Row {
    threads: usize,
    /// Threads the kernels actually use: the configured count clamped to
    /// the host's available parallelism. Keeps the thread axis honest on
    /// small hosts, where configured counts above the core count all
    /// execute identically.
    effective_threads: usize,
    secs: f64,
}

fn main() {
    let nx: usize = flag("--planes", 400);
    let ny: usize = flag("--ny", 200);
    let nz: usize = flag("--nz", 20);
    let reps: usize = flag::<usize>("--reps", 3).max(1); // 0 reps would emit bogus inf timings
    let out: String = flag("--out", "BENCH_kernels.json".to_string());

    let dims = Dims::new(nx, ny, nz);
    let cells = (nx * ny * nz) as f64;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (cpu_model, avx2) = cpu_fingerprint();
    println!(
        "kernel scaling on {nx}x{ny}x{nz} ({cells:.0} cells), {cores} host core(s) ({cpu_model}, \
         avx2 {avx2}), min of {reps} phases"
    );

    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let par = Parallelism::new(threads);
        let secs = time_phase(&mut solver(dims, par), reps);
        rows.push(Row { threads, effective_threads: par.effective_threads(), secs });
    }

    // The single-thread fused phase is the baseline.
    let base = rows[0].secs;
    for r in &rows {
        let eff = if r.effective_threads == r.threads {
            String::new()
        } else {
            format!(" (effective {}t)", r.effective_threads)
        };
        println!(
            "  fused {}t: {:.4}s/phase  {:6.2} MLUP/s  speedup {:.2}{eff}",
            r.threads,
            r.secs,
            cells / r.secs / 1e6,
            base / r.secs
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"dims\": [{nx}, {ny}, {nz}],\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"cpu_model\": \"{}\",\n", microslip_obs::json::escape(&cpu_model)));
    json.push_str(&format!("  \"avx2\": {avx2},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"threads\": {}, \"effective_threads\": {}, \"secs_per_phase\": {:.6}, \"mlups\": {:.3}, \"speedup_vs_1t\": {:.3}}}{comma}\n",
            r.threads,
            r.effective_threads,
            r.secs,
            cells / r.secs / 1e6,
            base / r.secs
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
