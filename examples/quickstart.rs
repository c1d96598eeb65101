//! Quickstart: the two faces of `microslip` in under a minute.
//!
//! 1. A 3-D single-component duct flow validated against the analytic
//!    double-cosh series for a rectangular duct.
//! 2. A small 3-D two-component (water + air) hydrophobic microchannel —
//!    the paper's physics at toy resolution — reporting the apparent slip.
//! 3. The same channel on the parallel runtime via [`Scenario`] — one
//!    fluent configuration instead of hand-threading four configs.
//!
//! Run with: `cargo run --release --example quickstart`

use microslip::lbm::analytic::{compare, duct_velocity};
use microslip::lbm::observables::{apparent_slip_fraction, mean_velocity_y_profile};
use microslip::lbm::simulation::velocity_converged;
use microslip::prelude::*;

fn main() {
    // ---- Part 1: 3-D duct-flow validation -------------------------------
    println!("== 3-D duct flow vs the analytic double-cosh series ==");
    let (duct, g) = (Dims::new(4, 20, 12), 1e-6);
    // τ = 1 gives the lattice viscosity ν = (τ − ½)/3 = 1/6.
    let nu = 1.0 / 6.0;
    let mut sim = Simulation::new(ChannelConfig::single_component(duct, 1.0, g));
    let steps = sim.run_until(20_000, 500, velocity_converged(1e-10));
    let snap = sim.snapshot();
    let (a, b) = (duct.ny as f64 / 2.0, duct.nz as f64 / 2.0);
    let mut numeric = Vec::new();
    let mut reference = Vec::new();
    for y in 0..duct.ny {
        for z in 0..duct.nz {
            numeric.push(snap.u(snap.idx(duct.nx / 2, y, z))[0]);
            // Cell centers relative to the duct center.
            let (yy, zz) = (y as f64 + 0.5 - a, z as f64 + 0.5 - b);
            reference.push(duct_velocity(yy, zz, a, b, g, nu, 200));
        }
    }
    let err = compare(&numeric, &reference);
    println!("   cross-section: {}x{}, steps: {steps}", duct.ny, duct.nz);
    println!("   relative L2 error vs duct series: {:.4}", err.l2);
    println!("   relative Linf error:              {:.4}", err.linf);

    // ---- Part 2: 3-D two-component slip channel --------------------------
    println!();
    println!("== 3-D hydrophobic microchannel (scaled) ==");
    let dims = Dims::new(12, 40, 8);
    let cfg = ChannelConfig::paper_scaled(dims);
    println!(
        "   grid {}x{}x{}  components: {}  wall force: {} (decay {} l.u.)",
        dims.nx, dims.ny, dims.nz, cfg.ncomp(), cfg.wall.amplitude, cfg.wall.decay
    );
    let mut sim = Simulation::new(cfg);
    let phases = 1200;
    sim.run(phases);
    let snap = sim.snapshot();

    let u = mean_velocity_y_profile(&snap);
    let slip = apparent_slip_fraction(&u);
    println!("   phases: {phases}");
    println!("   centerline velocity u0 = {:.3e} (lattice units)", u.max());
    println!("   apparent slip u_wall/u0 = {:.3} (paper reports ~0.10)", slip);

    // Density depletion at the wall (the slip mechanism).
    let rho_wall = snap.rho[0][snap.idx(0, 0, dims.nz / 2)];
    let rho_mid = snap.rho[0][snap.idx(0, dims.ny / 2, dims.nz / 2)];
    println!(
        "   water density: wall {rho_wall:.3} vs centerline {rho_mid:.3}  (depletion {:.0}%)",
        (1.0 - rho_wall / rho_mid) * 100.0
    );

    // ---- Part 3: the same physics on the parallel runtime ----------------
    println!();
    println!("== parallel runtime via Scenario ==");
    let outcome = Scenario::paper_scaled(16, 24, 8)
        .workers(4)
        .phases(60)
        .scheme(Scheme::NoRemap)
        .runtime()
        .expect("valid run")
        .run();
    println!(
        "   4 workers, 60 phases: wall {:.2}s, planes by worker {:?}",
        outcome.wall_seconds,
        outcome.final_counts()
    );
}
