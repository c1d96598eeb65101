//! The fault matrix: every distinct place a rank can die, the supervised
//! multi-process runtime must either recover to a bitwise-identical
//! result or fail with a typed, attributable error.
//!
//! Three legs:
//! * death in a **remap round** (load-index exchange) — recovery rolls
//!   back past the interrupted balance state and replays;
//! * death with **no checkpoints at all** — the mesh agrees on phase 0
//!   and restarts fresh, still bitwise identical (rollback correctness
//!   does not depend on checkpoint cadence, only its cost does);
//! * a **torn checkpoint** — the CRC trailer turns silent truncation into
//!   a typed `corrupt checkpoint` error end to end.

use std::fs;
use std::path::PathBuf;

use microslip::obs::{validate_jsonl, Event};
use microslip::runtime::LoadModel;
use microslip::{FaultSite, MpFault, Scenario};

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_microslip");

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("microslip-faultmatrix-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn builder(ranks: usize, phases: u64) -> Scenario {
    Scenario::paper_scaled(20, 6, 4)
        .workers(ranks)
        .phases(phases)
        .remap_every(3)
        .predictor_window(2)
        .throttle(1, 6.0)
        .load_model(LoadModel::Synthetic { per_point: 1.0 })
}

/// Runs the undisturbed reference and the faulted+supervised run with the
/// same geometry, returning `(reference, recovered)`.
fn recover_from(
    label: &str,
    checkpoint_every: u64,
    fault: MpFault,
) -> (microslip::MpOutcome, microslip::MpOutcome) {
    let ref_dir = scratch_dir(&format!("{label}-ref"));
    let mut clean = builder(4, 12).multiprocess().unwrap();
    clean.config_mut().worker_exe = Some(WORKER_EXE.into());
    clean.config_mut().dir = Some(ref_dir.clone());
    clean.config_mut().checkpoint_every = checkpoint_every;
    let want = clean.run().expect("reference run failed");

    let dir = scratch_dir(label);
    let mut mp = builder(4, 12).multiprocess().unwrap();
    mp.config_mut().worker_exe = Some(WORKER_EXE.into());
    mp.config_mut().dir = Some(dir.clone());
    mp.config_mut().checkpoint_every = checkpoint_every;
    mp.config_mut().fault = Some(fault);
    let got = mp.run().unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    (want, got)
}

fn recovery_stages(events: &[Event]) -> std::collections::HashSet<&str> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Recovery { stage, .. } => Some(stage.name()),
            _ => None,
        })
        .collect()
}

#[test]
fn death_in_a_remap_round_recovers_bitwise() {
    // Rank 1 dies on its first load-index send at or after phase 6 — its
    // neighbors are left holding a half-finished balance exchange. The
    // rollback discards that partial state wholesale.
    let fault = MpFault { rank: 1, die_at_phase: 6, site: FaultSite::Remap };
    let (want, got) = recover_from("remap-kill", 3, fault);
    assert_eq!(
        got.snapshot, want.snapshot,
        "recovery from a mid-remap death diverged from the undisturbed run"
    );
    let stages = recovery_stages(&got.events);
    for s in ["death-detected", "remesh", "rollback", "plan-applied", "resumed"] {
        assert!(stages.contains(s), "missing stage {s}: {stages:?}");
    }
    validate_jsonl(&microslip::obs::to_jsonl(&got.events)).unwrap();
    let _ = fs::remove_dir_all(&got.dir);
    let _ = fs::remove_dir_all(&want.dir);
}

#[test]
fn death_with_no_checkpoints_restarts_fresh_and_stays_bitwise() {
    // checkpoint_every = 0: nothing to roll back to. The recovery sync
    // must agree on phase 0 and the whole run replays — expensive, but
    // still bitwise identical, which is the point being pinned: the
    // rollback protocol's *correctness* is independent of cadence.
    let fault = MpFault { rank: 2, die_at_phase: 5, site: FaultSite::Halo };
    let (want, got) = recover_from("no-ckpt-kill", 0, fault);
    assert_eq!(
        got.snapshot, want.snapshot,
        "fresh-restart recovery diverged from the undisturbed run"
    );
    assert!(
        got.events.iter().any(|e| matches!(
            e,
            Event::Recovery { stage, phase: 0, .. } if stage.name() == "rollback"
        )),
        "with no checkpoints the mesh must agree on a phase-0 restart"
    );
    let _ = fs::remove_dir_all(&got.dir);
    let _ = fs::remove_dir_all(&want.dir);
}

#[test]
fn torn_checkpoint_surfaces_a_typed_corrupt_error_on_resume() {
    // Write real checkpoints, then tear the newest one mid-"write" the
    // way a crash would: truncate it. A resume from the torn phase must
    // fail with the typed corrupt-checkpoint error, attributed to the
    // right rank — never load a silently shorter state.
    let dir = scratch_dir("torn");
    let mut full = builder(2, 10).multiprocess().unwrap();
    full.config_mut().worker_exe = Some(WORKER_EXE.into());
    full.config_mut().dir = Some(dir.clone());
    full.config_mut().checkpoint_every = 5;
    full.run().expect("full run failed");

    let victim = dir.join("ckpt-rank1-phase5.bin");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

    let mut resumed = builder(2, 5).multiprocess().unwrap();
    resumed.config_mut().worker_exe = Some(WORKER_EXE.into());
    resumed.config_mut().dir = Some(dir.clone());
    resumed.config_mut().resume_phase = Some(5);
    let failure = resumed.run().expect_err("resume from a torn checkpoint must fail");
    let (_, err) = failure
        .rank_errors
        .iter()
        .find(|(r, _)| *r == 1)
        .expect("the torn rank must be named");
    assert!(
        err.contains("corrupt checkpoint"),
        "expected the typed corrupt error, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
