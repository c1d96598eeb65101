//! Golden byte pins for every binary format: the FNV-1a 64 hash of fixed
//! encodings. The round-trip tests next to each codec would still pass if
//! a layout changed on both sides at once; these fail on any byte that
//! moves, so scenario keys, cached artifacts, checkpoints and frames on
//! the wire stay readable across refactors.

use microslip::cluster::Scheme;
use microslip::lbm::checkpoint::{crc32, save_solver};
use microslip::lbm::config_codec::encode_config;
use microslip::lbm::mrt::MrtRates;
use microslip::lbm::{
    ChannelConfig, CollisionOperator, Dims, FlowDiagnostics, InitProfile, Parallelism, PsiFn,
    ResultArtifact, Simulation, Slab, SlabSolver, SolidRegion, WallBc, WallForce,
    WallForceMode,
};
use microslip::runtime::LoadModel;
use microslip::scenario::fnv1a64;
use microslip::serve::SweepRequest;
use microslip::Scenario;
use microslip_net::wire::{self, Frame, FrameKind};

/// Asserts the pinned hash and names the format and the actual value on
/// a mismatch, so an intended format change is a one-line update.
fn pin(what: &str, bytes: &[u8], want: u64) {
    let got = fnv1a64(bytes);
    assert_eq!(got, want, "{what}: {} bytes hash to {got:#018x}, pinned {want:#018x}", bytes.len());
}

/// A config exercising every non-default enum variant the config codec
/// writes: TRT and MRT collisions, a Shan–Chen ψ, force-density wall
/// forcing, a cosine initial profile and all three obstacle shapes.
fn exotic_config(wall_bc: WallBc) -> ChannelConfig {
    let mut cfg = ChannelConfig::paper_scaled(Dims::new(24, 10, 6));
    cfg.components[0].0.collision = CollisionOperator::Trt { magic: 3.0 / 16.0 };
    cfg.components[0].0.wall_adhesion = -0.05;
    cfg.components[1].0.collision = CollisionOperator::Mrt(MrtRates {
        s_e: 1.19,
        s_eps: 1.4,
        s_q: 1.2,
        s_pi: 0.9,
        s_m: 1.98,
    });
    cfg.components[1].0.psi_fn = PsiFn::ShanChen { n0: 0.7 };
    cfg.components[1].0.mass = 0.83;
    cfg.coupling.set(0, 0, -1.25e-3);
    cfg.wall = WallForce { amplitude: 0.31, decay: 3.5, mode: WallForceMode::ForceDensity };
    cfg.body = [2.5e-5, -1e-7, f64::MIN_POSITIVE];
    cfg.init = InitProfile::CosineX { amplitude: 0.125 };
    cfg.obstacles = vec![
        SolidRegion::Block { min: [2, 1, 0], max: [4, 3, 6] },
        SolidRegion::Sphere { center: [10.5, 5.0, 3.0], radius: 1.75 },
        SolidRegion::CylinderZ { center: [18.0, 4.5], radius: 2.25 },
    ];
    cfg.wall_bc = wall_bc;
    cfg.parallelism = Parallelism::new(3);
    cfg
}

fn loaded_scenario() -> Scenario {
    Scenario::paper_scaled(20, 6, 4)
        .workers(3)
        .phases(40)
        .remap_every(5)
        .predictor_window(7)
        .scheme(Scheme::Conservative)
        .throttle(1, 6.0)
        .spike(2, 10, 20, 3.0)
        .load_model(LoadModel::Synthetic { per_point: 1.5 })
}

#[test]
fn crc32_matches_the_ieee_check_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(wire::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn config_encodings_are_pinned() {
    pin("paper config", &encode_config(&ChannelConfig::paper()), 0xe877_81ed_4def_466d);
    let bcs = [
        (WallBc::BounceBack, 0x5a66_5f05_8601_c260),
        (WallBc::TunableSlip { r: 0.6 }, 0x5c7c_995c_0c43_c785),
        (
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.125, period: 2, phase: 1 },
            0x6573_ffa9_43f4_1e11,
        ),
        (WallBc::rough_stripes(1, 3, Dims::new(24, 10, 6)), 0x2256_0ec4_015e_e6eb),
    ];
    for (bc, want) in bcs {
        let what = format!("exotic config with {bc:?}");
        pin(&what, &encode_config(&exotic_config(bc)), want);
    }
}

#[test]
fn scenario_bytes_and_key_are_pinned() {
    let s = loaded_scenario();
    pin("scenario canonical bytes", &s.canonical_bytes(), 0x3bbd_bde1_bfc3_557d);
    assert_eq!(s.key(), "3bbdbde1bfc3557d");
}

#[test]
fn sweep_request_encoding_is_pinned() {
    let req = SweepRequest {
        base: loaded_scenario(),
        checkpoint_every: Some(4),
        axes: vec![
            ("slip-r".to_string(), vec![0.3, 0.5]),
            ("wall-amplitude".to_string(), vec![0.1, 0.2, 0.1]),
        ],
    };
    pin("sweep request", &req.encode(), 0xf36f_a9c6_e89d_c34e);
    let default_cadence = SweepRequest { checkpoint_every: None, axes: Vec::new(), ..req };
    pin("sweep request, default cadence", &default_cadence.encode(), 0xe8e1_730c_60aa_d504);
}

#[test]
fn checkpoint_and_artifact_of_a_short_run_are_pinned() {
    let cfg = ChannelConfig::paper_scaled(Dims::new(8, 6, 4));
    let mut sim = Simulation::new(cfg.clone());
    sim.run(5);
    pin("simulation checkpoint", &save_solver(sim.solver(), sim.phase()), 0x0583_8192_ebfb_b7b2);

    let mut slab = SlabSolver::new(&cfg, Slab { x0: 3, nx_local: 4 });
    slab.compute_psi();
    pin("slab checkpoint", &save_solver(&slab, 9), 0xc31d_e8f0_4768_6979);

    let snapshot = sim.snapshot();
    let artifact = ResultArtifact {
        key: "00f00ba4deadbeef".into(),
        phases: 5,
        diagnostics: FlowDiagnostics::compute(&snapshot),
        snapshot,
        summary_json: "{\"mode\": \"serve\"}\n".into(),
    };
    pin("sealed artifact", &artifact.seal(), 0x0451_7334_3af5_7254);
}

/// Physics pins: the checkpoint bytes after `Simulation::run` on configs
/// that reach every phase-kernel path (TRT and MRT collision, obstacle
/// bounce-back, the three slip wall BCs), each at one thread and at a
/// 3-thread budget against the same hash. A phase-schedule refactor that
/// moves a single bit of the trajectory fails here.
#[test]
fn simulation_checkpoints_across_kernel_paths_are_pinned() {
    let dims = Dims::new(12, 6, 4);
    let base = || {
        let mut cfg = ChannelConfig::paper_scaled(dims);
        cfg.body = [1.0e-4, 0.0, 0.0];
        cfg
    };
    let mut trt_mrt = base();
    trt_mrt.components[0].0.collision = CollisionOperator::trt_magic();
    trt_mrt.components[1].0.collision = CollisionOperator::mrt_standard();
    let mut obstacle = base();
    obstacle.obstacles.push(SolidRegion::Block { min: [4, 2, 1], max: [6, 4, 3] });
    let with_bc = |bc: WallBc| {
        let mut cfg = base();
        cfg.wall_bc = bc;
        cfg
    };
    let cases = [
        ("trt+mrt", trt_mrt, 0x947b_f036_af5d_95dd),
        ("obstacle block", obstacle, 0xb8d3_5560_3a53_8dcc),
        ("tunable slip", with_bc(WallBc::TunableSlip { r: 0.3 }), 0xc630_edd1_06ca_0566),
        (
            "patterned slip",
            with_bc(WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 1 }),
            0x95b8_6702_2bfa_53ff,
        ),
        ("rough stripes", with_bc(WallBc::rough_stripes(1, 3, dims)), 0x70f1_f29a_2967_d665),
    ];
    for (name, cfg, want) in cases {
        for threads in [1, 3] {
            let mut cfg = cfg.clone();
            cfg.parallelism = Parallelism::new(threads);
            let mut sim = Simulation::new(cfg);
            sim.run(6);
            let what = format!("{name} checkpoint at {threads} thread(s)");
            pin(&what, &save_solver(sim.solver(), sim.phase()), want);
        }
    }
}

#[test]
fn wire_frames_are_pinned() {
    let data = Frame::data(3, 17, vec![1.0, -2.5, f64::MIN_POSITIVE, 0.0, f64::NAN]);
    pin("data frame", &wire::encode(&data), 0xdee0_189a_0ec2_12f5);
    let bytes = Frame::from_bytes(FrameKind::FetchReply, 2, b"sealed artifact bytes");
    pin("byte frame", &wire::encode(&bytes), 0x51a2_199f_3238_96dd);
    pin("goodbye frame", &wire::encode(&Frame::goodbye(1)), 0xada4_b006_0aa5_5b4a);
}
