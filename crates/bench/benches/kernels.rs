//! Microbenchmarks of the LBM hot kernels on a two-component slab: the
//! fused collide→stream phase per collision operator (BGK, TRT, MRT) and
//! across thread budgets, the Shan-Chen forces and the velocity update,
//! plus the sequential `Simulation` step. These are the constants behind
//! the cluster cost model's `site_update_rate`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use microslip_lbm::{
    ChannelConfig, CollisionOperator, Dims, Parallelism, Simulation, Slab, SlabSolver,
};

fn slab_solver() -> SlabSolver {
    slab_solver_with(CollisionOperator::Bgk)
}

fn slab_solver_with(op: CollisionOperator) -> SlabSolver {
    let mut cfg = ChannelConfig::paper_scaled(Dims::new(20, 40, 10));
    for (spec, _) in cfg.components.iter_mut() {
        spec.collision = op;
    }
    let mut s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 20 });
    s.prime_periodic();
    s
}

fn bench_kernels(c: &mut Criterion) {
    let cells = (20 * 40 * 10) as u64;
    let mut g = c.benchmark_group("lbm-kernels");
    g.throughput(Throughput::Elements(cells));
    g.sample_size(30);

    let mut s = slab_solver();
    g.bench_function("psi+forces", |b| {
        b.iter(|| {
            s.compute_psi();
            s.psi_ghosts_periodic();
            s.compute_forces();
        })
    });
    let mut s = slab_solver();
    g.bench_function("velocities", |b| b.iter(|| s.compute_velocities()));
    // One fused phase per collision operator keeps each operator's cost
    // visible.
    for (name, op) in [
        ("full-phase-fused", CollisionOperator::Bgk),
        ("full-phase-fused-trt", CollisionOperator::trt_magic()),
        ("full-phase-fused-mrt", CollisionOperator::mrt_standard()),
    ] {
        let mut s = slab_solver_with(op);
        g.bench_function(name, |b| b.iter(|| s.phase_periodic_fused()));
    }
    for threads in [2usize, 4] {
        let mut s = slab_solver();
        s.set_parallelism(Parallelism::new(threads));
        g.bench_function(format!("full-phase-fused-{threads}t"), |b| {
            b.iter(|| s.phase_periodic_fused())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("lbm-sequential");
    g.sample_size(20);
    g.bench_function("simulation-step-16x32x8", |b| {
        let mut sim = Simulation::new(ChannelConfig::paper_scaled(Dims::new(16, 32, 8)));
        b.iter(|| sim.step())
    });
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
