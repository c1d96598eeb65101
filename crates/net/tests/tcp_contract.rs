//! TcpTransport against the generic Transport contract, plus the failure
//! modes only a real network backend has: read deadlines, refused
//! connections, handshake verification, clean shutdown.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

use microslip_comm::{contract, CommError, Tag, Transport};
use microslip_net::{connect, connect_epoch, localhost_mesh, rendezvous_file, NetConfig};

/// A fresh run directory for one test's rendezvous files.
fn run_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("microslip-net-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ring exchange over a formed mesh: proves every socket pair is wired
/// to the right rank.
fn ring_exchange(mesh: Vec<microslip_net::TcpTransport>) {
    let handles: Vec<_> = mesh
        .into_iter()
        .map(|mut t| {
            std::thread::spawn(move || {
                let (n, me) = (t.size(), t.rank());
                t.send((me + 1) % n, Tag::F_HALO, vec![me as f64]).unwrap();
                let left = (me + n - 1) % n;
                assert_eq!(t.recv(left, Tag::F_HALO).unwrap(), vec![left as f64]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn test_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(2),
        connect_retries: 20,
        backoff: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        read_timeout: Some(Duration::from_secs(10)),
        handshake_timeout: Duration::from_secs(10),
    }
}

#[test]
fn tcp_transport_satisfies_the_contract() {
    let cfg = test_cfg();
    contract::run_suite(|n| localhost_mesh(n, &cfg));
}

#[test]
fn recv_deadline_surfaces_as_timeout() {
    let cfg = NetConfig { read_timeout: Some(Duration::from_millis(50)), ..test_cfg() };
    let mut mesh = localhost_mesh(2, &cfg);
    let _b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    // Rank 1 is alive but silent: the read deadline, not a disconnect.
    assert_eq!(a.recv(1, Tag::F_HALO), Err(CommError::Timeout { peer: 1 }));
    // A timeout is not fatal — traffic afterwards still works.
    a.send(1, Tag::LOAD, vec![5.0]).unwrap();
}

#[test]
fn connect_to_dead_port_fails_with_handshake_error() {
    // The published rendezvous address is a bound-then-released port,
    // which refuses connections; bounded retry must give up with a typed
    // error, not hang or panic.
    let dir = run_dir("dead-port");
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    std::fs::write(rendezvous_file(&dir, 1), format!("127.0.0.1:{port}\n")).unwrap();
    let cfg = NetConfig {
        connect_retries: 3,
        backoff: Duration::from_millis(1),
        handshake_timeout: Duration::from_secs(2),
        ..test_cfg()
    };
    match connect(Some(1), 2, &dir, &cfg) {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("connect"), "unhelpful detail: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
}

#[test]
fn explicit_close_reports_disconnected_to_peer() {
    let cfg = test_cfg();
    let mut mesh = localhost_mesh(2, &cfg);
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    a.send(1, Tag::LOAD, vec![1.0]).unwrap();
    a.close();
    // The pre-close message is still deliverable, then the goodbye.
    assert_eq!(b.recv(0, Tag::LOAD).unwrap(), vec![1.0]);
    assert_eq!(b.recv(0, Tag::LOAD), Err(CommError::Disconnected { peer: 0 }));
    assert_eq!(b.send(0, Tag::LOAD, vec![2.0]), Err(CommError::Disconnected { peer: 0 }));
}

#[test]
fn auto_assigned_ranks_form_a_working_mesh() {
    let dir = run_dir("assign");
    let cfg = test_cfg();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            // Only rank 0 knows who it is; the others ask to be assigned.
            let claim = if i == 0 { Some(0) } else { None };
            std::thread::spawn(move || connect(claim, 3, &dir, &cfg).unwrap())
        })
        .collect();
    let mut mesh: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    mesh.sort_by_key(|t| t.rank());
    let ranks: Vec<_> = mesh.iter().map(|t| t.rank()).collect();
    assert_eq!(ranks, vec![0, 1, 2]);
    ring_exchange(mesh);
}

#[test]
fn joiners_started_before_rank_zero_still_mesh() {
    // The joiners poll for rank 0's rendezvous file; rank 0 arrives late,
    // binds its listener on port 0 and publishes it. The address is never
    // released between being chosen and being listened on.
    let dir = run_dir("late-host");
    let cfg = test_cfg();
    let (started, joiners_started) = std::sync::mpsc::channel();
    let joiners: Vec<_> = (1..3)
        .map(|i| {
            let (dir, cfg, started) = (dir.clone(), cfg.clone(), started.clone());
            std::thread::spawn(move || {
                started.send(()).unwrap();
                connect(Some(i), 3, &dir, &cfg).unwrap()
            })
        })
        .collect();
    for _ in 1..3 {
        joiners_started.recv().unwrap();
    }
    // Give both joiners time to reach their poll loop.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!rendezvous_file(&dir, 1).exists(), "nobody but rank 0 publishes");
    assert!(joiners.iter().all(|h| !h.is_finished()), "joiners wait for rank 0");
    let host = connect(Some(0), 3, &dir, &cfg).unwrap();
    let mut mesh: Vec<_> = joiners.into_iter().map(|h| h.join().unwrap()).collect();
    mesh.push(host);
    mesh.sort_by_key(|t| t.rank());
    ring_exchange(mesh);
}

#[test]
fn duplicate_rank_claim_is_rejected() {
    let dir = run_dir("duplicate");
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(5), ..test_cfg() };
    let handles: Vec<_> = [Some(0), Some(1), Some(1)]
        .into_iter()
        .map(|claim| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || connect(claim, 3, &dir, &cfg))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // The coordinator must detect the duplicate; with it gone, nobody can
    // complete the handshake.
    assert!(
        results.iter().all(|r| r.is_err()),
        "a mesh with duplicate rank claims must not form"
    );
    assert!(results.iter().any(|r| matches!(
        r,
        Err(CommError::Handshake { detail }) if detail.contains("claimed twice")
    )));
}

#[test]
fn epoch_stamped_mesh_forms_after_rejoin() {
    // A recovered mesh: every participant re-rendezvouses at epoch 3 via
    // REJOIN frames and epoch-tagged IDENTs. The mesh must work exactly
    // like an epoch-1 mesh.
    let dir = run_dir("epoch3");
    let cfg = test_cfg();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || connect_epoch(Some(i), 3, &dir, 3, &cfg).unwrap())
        })
        .collect();
    let mut mesh: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    mesh.sort_by_key(|t| t.rank());
    assert!(rendezvous_file(&dir, 3).exists() && !rendezvous_file(&dir, 1).exists());
    ring_exchange(mesh);
}

/// Waits for `from` to appear, then atomically publishes a copy as `to`.
fn copy_when_published(from: &Path, to: &Path) {
    for _ in 0..2000 {
        if let Ok(addr) = std::fs::read(from) {
            microslip_codec::publish(to, &[&addr]).unwrap();
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("{} never appeared", from.display());
}

#[test]
fn stale_epoch_joiner_is_fenced() {
    // The coordinator is at epoch 2; a stale epoch-1 process (plain HELLO)
    // that reaches it must be fenced out with a typed error naming the
    // epochs, and the recovered mesh must not form around it. The stale
    // process finds the coordinator through a copy of the epoch-2
    // address under the epoch-1 name.
    let dir = run_dir("stale");
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(3), ..test_cfg() };
    let handles: Vec<_> = [(0usize, 2u64), (1, 1)]
        .into_iter()
        .map(|(rank, epoch)| {
            let dir = dir.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || connect_epoch(Some(rank), 2, &dir, epoch, &cfg))
        })
        .collect();
    copy_when_published(&rendezvous_file(&dir, 2), &rendezvous_file(&dir, 1));
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(results.iter().all(|r| r.is_err()), "a cross-epoch mesh must not form");
    assert!(
        results.iter().any(|r| matches!(
            r,
            Err(CommError::Handshake { detail })
                if detail.contains("fenced") && detail.contains("epoch")
        )),
        "{results:?}"
    );
}

#[test]
fn handshake_timeout_names_the_missing_ranks() {
    // Rank 2 never shows up (died before its HELLO). The coordinator must
    // classify that as a handshake failure naming the offending rank, not
    // a generic timeout — and within the bounded rendezvous wall-time.
    let dir = run_dir("missing");
    let cfg = NetConfig { handshake_timeout: Duration::from_secs(2), ..test_cfg() };
    let joiner = {
        let dir = dir.clone();
        let cfg = cfg.clone();
        std::thread::spawn(move || connect(Some(1), 3, &dir, &cfg))
    };
    let started = std::time::Instant::now();
    let result = connect(Some(0), 3, &dir, &cfg);
    assert!(started.elapsed() < Duration::from_secs(10), "rendezvous wall-time unbounded");
    match result {
        Err(CommError::Handshake { detail }) => {
            assert!(detail.contains("[2]"), "must name the missing rank: {detail}");
            assert!(detail.contains("1 of 2"), "must count arrivals: {detail}");
        }
        other => panic!("expected Handshake error, got {other:?}"),
    }
    assert!(joiner.join().unwrap().is_err(), "the mesh must not form without rank 2");
}

#[test]
fn single_rank_mesh_needs_no_sockets() {
    let t = connect(Some(0), 1, Path::new("/nonexistent"), &test_cfg()).unwrap();
    assert_eq!(t.rank(), 0);
    assert_eq!(t.size(), 1);
}

#[test]
fn large_payload_roundtrip_is_bit_exact() {
    // A realistic halo plane: tens of thousands of doubles in one frame.
    let cfg = test_cfg();
    let mut mesh = localhost_mesh(2, &cfg);
    let mut b = mesh.pop().unwrap();
    let mut a = mesh.pop().unwrap();
    let payload: Vec<f64> = (0..40_000)
        .map(|i| (i as f64).sin() * 1e-3 + f64::MIN_POSITIVE * i as f64)
        .collect();
    let expect = payload.clone();
    let h = std::thread::spawn(move || {
        let got = b.recv(0, Tag::F_HALO).unwrap();
        b.send(0, Tag::PSI_HALO, got).unwrap();
    });
    a.send(1, Tag::F_HALO, payload).unwrap();
    let back = a.recv(1, Tag::PSI_HALO).unwrap();
    assert!(back.iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits()));
    h.join().unwrap();
}
