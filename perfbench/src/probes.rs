//! Per-layer metrics of the traced run. Each probe times calls into one
//! layer's public functions from this file, on the workload's slab: a
//! 200-plane paper rank slab for the paper workloads, the sweep's job
//! channel for `sweep-dedupe`. Counts and rank-span totals come from the
//! traced workload run itself. A layer the workload does not run reads 0.

use std::path::Path;
use std::process::{Command, Stdio};
use std::thread;
use std::time::Instant;

use microslip::balance::Partition;
use microslip::balance::{Filtered, NeighborPolicy};
use microslip::comm::{InstrumentedTransport, Tag, Transport};
use microslip::lbm::checkpoint::{self, load_solver, read_sealed, save_solver, write_sealed};
use microslip::lbm::{ChannelConfig, ResultArtifact, Simulation, Slab, SlabSolver, Snapshot};
use microslip::obs::{from_jsonl, merge_rank_streams, TraceSink, TraceSummary, DEFAULT_CAPACITY};
use microslip::Scenario;
use microslip_net::{localhost_mesh, wire, NetConfig};

use crate::median;
use crate::spans::Tracer;
use crate::workloads::{self, Ctx, Iteration, Workload, PAPER_DIMS, PAPER_PHASES};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("lbm.stream_collide_s", "s"),
    ("lbm.psi_s", "s"),
    ("lbm.forces_s", "s"),
    ("lbm.velocities_s", "s"),
    ("lbm.step_s", "s"),
    ("lbm.fused_phase_s", "s"),
    ("lbm.gbps", "GB/s"),
    ("host.stream_gbps", "GB/s"),
    ("lbm.bw_frac", "ratio"),
    ("net.halo_s", "s"),
    ("net.halo_mbps", "MB/s"),
    ("net.bulk_mbps", "MB/s"),
    ("net.crc32_mbps", "MB/s"),
    ("net.bytes_per_phase", "B"),
    ("balance.decisions", "count"),
    ("balance.applied", "count"),
    ("balance.planes_moved", "count"),
    ("balance.bytes_moved", "B"),
    ("balance.edge_flows_us", "us"),
    ("runtime.compute_s", "s"),
    ("runtime.halo_s", "s"),
    ("runtime.pad_s", "s"),
    ("runtime.remap_s", "s"),
    ("runtime.makespan_s", "s"),
    ("runtime.imbalance", "ratio"),
    ("ckpt.bytes", "B"),
    ("ckpt.save_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.read_s", "s"),
    ("ckpt.load_s", "s"),
    ("ckpt.crc32_mbps", "MB/s"),
    ("mp.outside_s", "s"),
    ("mp.stitch_s", "s"),
    ("mp.spawn_s", "s"),
    ("serve.jobs", "count"),
    ("serve.scheduled", "count"),
    ("serve.cache_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.respawns", "count"),
    ("serve.job_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.unseal_ms", "ms"),
    ("serve.artifact_bytes", "B"),
    ("serve.sweep_s", "s"),
    ("serve.fetch_p50_ms", "ms"),
    ("serve.fetch_p99_ms", "ms"),
    ("scenario.decode_us", "us"),
    ("scenario.key_us", "us"),
    ("obs.merge_s", "s"),
    ("obs.trace_overhead_pct", "%"),
];

/// Collected values by name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, v));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The probe channel: a whole periodic channel with the arrays of one
/// workload slab.
fn probe_channel(w: Workload) -> ChannelConfig {
    if w == Workload::SweepDedupe {
        workloads::sweep_base().channel
    } else {
        let (nx, ny, nz) = PAPER_DIMS;
        Scenario::paper_scaled(nx / 2, ny, nz).channel
    }
}

/// Times `f` `reps` times; returns the median seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut t)
}

/// Runs every probe and gathers the workload-derived values.
pub fn run(
    w: Workload,
    ctx: &Ctx,
    tr: &mut Tracer,
    traced: &Iteration,
    untraced_wall: f64,
    stream_gbps: f64,
) -> Result<Values, String> {
    let mut v = Values::default();
    let small = w == Workload::SweepDedupe;
    let reps = if small { 20 } else { 3 };
    let cfg = probe_channel(w);

    // lbm kernels, on the fused schedule's order.
    let lbm = tr.begin("lbm", "kernel probes");
    let mut s = SlabSolver::new(
        &cfg,
        Slab {
            x0: 0,
            nx_local: cfg.dims.nx,
        },
    );
    s.prime_periodic();
    s.phase_periodic_fused();
    let mut k = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps {
        s.collide_edges();
        s.f_ghosts_periodic();
        k[0].push(timed(1, || s.stream_collide_fused()));
        k[1].push(timed(1, || s.compute_psi()));
        s.psi_ghosts_periodic();
        k[2].push(timed(1, || s.compute_forces()));
        k[3].push(timed(1, || s.compute_velocities()));
    }
    for (name, times) in [
        "lbm.stream_collide_s",
        "lbm.psi_s",
        "lbm.forces_s",
        "lbm.velocities_s",
    ]
    .into_iter()
    .zip(k.iter_mut())
    {
        v.set(name, median(times));
    }
    let fused = timed(reps, || s.phase_periodic_fused());
    v.set("lbm.fused_phase_s", fused);
    tr.end(lbm);
    let (f_len, psi_len, plane_len) = (s.f_halo_len(), s.psi_halo_len(), s.migration_plane_len());

    // Checkpoint seal, write, read and load of the slab's state.
    let ck = tr.begin("ckpt", "checkpoint probes");
    let path = ctx.scratch.join("probe.ckpt");
    let ck_reps = if small { 5 } else { 1 };
    let (mut save, mut write, mut read, mut load) = (vec![], vec![], vec![], vec![]);
    let mut bytes_len = 0;
    for _ in 0..ck_reps {
        let t = Instant::now();
        let bytes = save_solver(&s, PAPER_PHASES);
        save.push(t.elapsed().as_secs_f64());
        bytes_len = bytes.len();
        let t = Instant::now();
        write_sealed(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        write.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let back = read_sealed(&path).map_err(|e| format!("read {}: {e:?}", path.display()))?;
        read.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let restored = load_solver(&cfg, &back).map_err(|e| format!("load: {e:?}"))?;
        load.push(t.elapsed().as_secs_f64());
        drop((back, restored));
    }
    let _ = std::fs::remove_file(&path);
    v.set("ckpt.bytes", bytes_len as f64);
    v.set("ckpt.save_s", median(&mut save));
    v.set("ckpt.write_s", median(&mut write));
    v.set("ckpt.read_s", median(&mut read));
    v.set("ckpt.load_s", median(&mut load));
    let buf = vec![0xa5u8; 32 << 20];
    v.set(
        "ckpt.crc32_mbps",
        buf.len() as f64
            / timed(3, || {
                std::hint::black_box(checkpoint::crc32(&buf));
            })
            / 1e6,
    );
    tr.end(ck);
    // Every solver array is read and written once per phase: computed,
    // not measured, traffic.
    let gbps = 2.0 * bytes_len as f64 / fused / 1e9;
    v.set("lbm.gbps", gbps);
    v.set("host.stream_gbps", stream_gbps);
    v.set("lbm.bw_frac", gbps / stream_gbps);

    // Driver-side stitch of two slab snapshots.
    let a = s.snapshot();
    let mut b = a.clone();
    b.x0 = a.nx;
    drop(s);
    v.set(
        "mp.stitch_s",
        tr.time("mp", "Snapshot::stitch", || {
            let t = Instant::now();
            let whole: Snapshot = Snapshot::stitch(vec![a, b]);
            let secs = t.elapsed().as_secs_f64();
            drop(whole);
            secs
        }),
    );

    let step = tr.begin("lbm", "Simulation::step probe");
    let mut sim = Simulation::new(cfg.clone());
    sim.step();
    v.set("lbm.step_s", timed(reps, || sim.step()));
    drop(sim);
    tr.end(step);

    net_probes(&mut v, tr, small, f_len, psi_len, plane_len);

    let pol = Filtered::default();
    let partition = Partition::new(vec![cfg.dims.nx, cfg.dims.nx], cfg.dims.ny * cfg.dims.nz);
    let predicted = [Some(1.0), Some(2.0)];
    let calls = 20_000;
    let secs = tr.time("balance", "NeighborPolicy::edge_flows", || {
        timed(1, || {
            for _ in 0..calls {
                std::hint::black_box(pol.edge_flows(std::hint::black_box(&predicted), &partition));
            }
        })
    });
    v.set("balance.edge_flows_us", secs / calls as f64 * 1e6);

    v.set(
        "mp.spawn_s",
        tr.time("mp", "spawn + reap microslip", || spawn_probe(&ctx.worker))?,
    );

    let scenario = if small {
        workloads::sweep_base()
    } else {
        workloads::paper_scenario(w)
    };
    let bytes = scenario.canonical_bytes();
    let n = 2_000;
    let dec = tr.time("scenario", "Scenario::decode", || {
        timed(1, || {
            for _ in 0..n {
                std::hint::black_box(Scenario::decode(std::hint::black_box(&bytes)).is_ok());
            }
        })
    });
    v.set("scenario.decode_us", dec / n as f64 * 1e6);
    let key = tr.time("scenario", "Scenario::key", || {
        timed(1, || {
            for _ in 0..n {
                std::hint::black_box(std::hint::black_box(&scenario).key());
            }
        })
    });
    v.set("scenario.key_us", key / n as f64 * 1e6);

    // The merge `gather` does, on the iteration's own JSONL.
    if !traced.layers.jsonl.is_empty() {
        let texts = &traced.layers.jsonl;
        let merge = tr.time("obs", "from_jsonl + merge_rank_streams", || {
            timed(5, || {
                let streams: Vec<_> = texts
                    .iter()
                    .map(|t| from_jsonl(t).unwrap_or_default())
                    .collect();
                std::hint::black_box(merge_rank_streams(streams));
            })
        });
        v.set("obs.merge_s", merge);
    }

    workload_values(&mut v, w, traced);
    if let Some(st) = &traced.layers.serve {
        if !st.artifact.is_empty() {
            let unseal = tr.time("serve", "ResultArtifact::unseal", || {
                timed(20, || drop(ResultArtifact::unseal(&st.artifact)))
            });
            v.set("serve.unseal_ms", unseal * 1e3);
        }
    }
    v.set(
        "obs.trace_overhead_pct",
        100.0 * (traced.wall_s - untraced_wall) / untraced_wall,
    );
    Ok(v)
}

/// Values the traced workload run itself produced.
fn workload_values(v: &mut Values, w: Workload, it: &Iteration) {
    if let Some(s) = &it.layers.summary {
        let max =
            |f: fn(&microslip::obs::NodeSummary) -> f64| s.nodes.iter().map(f).fold(0.0, f64::max);
        v.set("runtime.compute_s", max(|n| n.compute));
        v.set("runtime.halo_s", max(|n| n.halo));
        v.set("runtime.pad_s", max(|n| n.pad));
        v.set("runtime.remap_s", max(|n| n.remap));
        v.set("runtime.makespan_s", max(|n| n.makespan));
        v.set("runtime.imbalance", s.imbalance);
        v.set("balance.decisions", s.remap_decisions as f64);
        v.set("balance.applied", s.remap_applied as f64);
        v.set("balance.planes_moved", s.migrated_planes as f64);
        v.set("balance.bytes_moved", s.migrated_bytes as f64);
        v.set(
            "net.bytes_per_phase",
            s.traffic_bytes as f64 / PAPER_PHASES as f64,
        );
    }
    if w.is_mp() {
        v.set("mp.outside_s", it.layers.outside_s);
    }
    if let Some(st) = &it.layers.serve {
        v.set("serve.jobs", st.jobs as f64);
        v.set("serve.scheduled", st.scheduled as f64);
        v.set("serve.cache_hits", st.cache_hits as f64);
        v.set(
            "serve.hit_ratio",
            st.cache_hits as f64 / (st.jobs as f64).max(1.0),
        );
        v.set("serve.respawns", st.respawns as f64);
        v.set("serve.job_s", median(&mut st.job_times.clone()));
        v.set("serve.queue_wait_s", st.queue_wait_s);
        v.set("serve.submit_ms", st.submit_ms);
        v.set("serve.artifact_bytes", st.artifact.len() as f64);
        v.set("serve.sweep_s", st.sweep_s);
        let mut f = it.fetch_ms.clone();
        v.set("serve.fetch_p50_ms", crate::percentile(&mut f, 0.50));
        v.set("serve.fetch_p99_ms", crate::percentile(&mut f, 0.99));
    }
}

/// The runtime's per-phase halo pattern (two F and two ψ messages each
/// way, right-bound first) and a 10-plane migration payload, over a real
/// localhost TCP mesh; CRC-32 of the wire format.
fn net_probes(
    v: &mut Values,
    tr: &mut Tracer,
    small: bool,
    f_len: usize,
    psi_len: usize,
    plane_len: usize,
) {
    let id = tr.begin("net", "halo + bulk over localhost_mesh(2)");
    let (warm, reps) = if small { (20, 400) } else { (3, 30) };
    let bulk_len = 10 * plane_len;
    let bulk_reps = 3;
    let mesh = localhost_mesh(2, &NetConfig::default());
    let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
    let results: Vec<(Vec<f64>, Vec<f64>)> = thread::scope(|scope| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                let sink = sink.clone();
                scope.spawn(move || {
                    let mut t = InstrumentedTransport::new(t);
                    let me = t.rank();
                    let peer = 1 - me;
                    let mut halo = Vec::with_capacity(reps);
                    for i in 0..warm + reps {
                        let t0 = Instant::now();
                        for (tag, len) in [(Tag::F_HALO, f_len), (Tag::PSI_HALO, psi_len)] {
                            t.send(peer, tag, vec![0.5; len]).expect("halo send right");
                            t.send(peer, tag, vec![0.5; len]).expect("halo send left");
                            t.recv(peer, tag).expect("halo recv left");
                            t.recv(peer, tag).expect("halo recv right");
                        }
                        if i >= warm {
                            halo.push(t0.elapsed().as_secs_f64());
                        }
                    }
                    if me == 0 {
                        t.flush_to(&sink, me);
                    }
                    let mut bulk = Vec::with_capacity(bulk_reps);
                    for _ in 0..bulk_reps {
                        let t0 = Instant::now();
                        if me == 0 {
                            t.send(peer, Tag::MIGRATE_DATA, vec![0.25; bulk_len])
                                .expect("bulk send");
                            t.recv(peer, Tag::MIGRATE_DATA).expect("bulk ack");
                        } else {
                            t.recv(peer, Tag::MIGRATE_DATA).expect("bulk recv");
                            t.send(peer, Tag::MIGRATE_DATA, vec![1.0])
                                .expect("bulk ack");
                        }
                        bulk.push(t0.elapsed().as_secs_f64());
                    }
                    (halo, bulk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net probe thread panicked"))
            .collect()
    });
    let (mut halo, mut bulk) = results.into_iter().next().unwrap_or_default();
    let halo_s = median(&mut halo);
    let sent_per_phase = 2.0 * (f_len + psi_len) as f64 * 8.0;
    v.set("net.halo_s", halo_s);
    v.set("net.halo_mbps", sent_per_phase / halo_s / 1e6);
    v.set(
        "net.bulk_mbps",
        (bulk_len * 8) as f64 / median(&mut bulk) / 1e6,
    );
    // Rank 0's halo counters, both directions: one phase of the pair.
    let summary = TraceSummary::from_events(&rec.events());
    v.set(
        "net.bytes_per_phase",
        2.0 * summary.traffic_bytes as f64 / (warm + reps) as f64,
    );
    tr.end(id);
    let buf = vec![0x5au8; 16 << 20];
    let crc = tr.time("net", "wire::crc32", || {
        timed(3, || {
            std::hint::black_box(wire::crc32(&buf));
        })
    });
    v.set("net.crc32_mbps", buf.len() as f64 / crc / 1e6);
}

/// Spawn and reap of the worker binary (`microslip info`), median of 5.
fn spawn_probe(worker: &Path) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let status = Command::new(worker)
            .arg("info")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", worker.display()))?;
        if !status.success() {
            return Err(format!("{} info exited with {status}", worker.display()));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&mut times))
}
