//! Output checks. Every run's result is held to the repository's
//! invariants: decomposed = serial (bitwise), mass conserved, and
//! cached = fresh for served artifacts. A failed check counts as a failed
//! operation.

use std::path::Path;

use microslip::lbm::{ChannelConfig, ResultArtifact, Simulation, Snapshot};

/// Relative tolerance on total mass: the solver conserves mass to
/// rounding, far below this.
const MASS_TOL: f64 = 1e-9;

/// FNV-1a over the bit patterns of every field value, plus the extents:
/// equal digests mean bitwise-equal snapshots.
pub fn digest(s: &Snapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for w in [s.x0, s.nx, s.ny, s.nz, s.rho.len()] {
        eat(w as u64);
    }
    for comp in &s.rho {
        comp.iter().for_each(|v| eat(v.to_bits()));
    }
    s.velocity.iter().for_each(|v| eat(v.to_bits()));
    h
}

/// Total mass: the sum of every component's density over all cells.
pub fn mass(s: &Snapshot) -> f64 {
    s.rho.iter().map(|c| c.iter().sum::<f64>()).sum()
}

/// The serial reference for one configuration and phase count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reference {
    pub digest: u64,
    pub mass0: f64,
}

impl Reference {
    /// Runs the serial `Simulation` of `cfg` for `phases` phases.
    pub fn compute(cfg: &ChannelConfig, phases: u64) -> Reference {
        let mut sim = Simulation::new(cfg.clone());
        let mass0 = mass(&sim.snapshot());
        sim.run(phases);
        Reference {
            digest: digest(&sim.snapshot()),
            mass0,
        }
    }

    /// The cached reference for this benchmark binary, or a fresh one
    /// (then cached). The cache key hashes the binary itself, so code
    /// built from other sources never reuses a stale reference.
    pub fn load_or_compute(
        state: &Path,
        cfg: &ChannelConfig,
        phases: u64,
    ) -> Result<Reference, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let d = cfg.dims;
        let path = state.join(format!(
            "reference-{h:016x}-{}x{}x{}-{phases}.txt",
            d.nx, d.ny, d.nz
        ));
        if let Ok(text) = std::fs::read_to_string(&path) {
            let mut parts = text.split_whitespace();
            let digest = parts.next().and_then(|x| u64::from_str_radix(x, 16).ok());
            let mass0 = parts.next().and_then(|x| x.parse::<f64>().ok());
            if let (Some(digest), Some(mass0)) = (digest, mass0) {
                return Ok(Reference { digest, mass0 });
            }
        }
        let r = Reference::compute(cfg, phases);
        std::fs::create_dir_all(state).map_err(|e| format!("create {}: {e}", state.display()))?;
        std::fs::write(&path, format!("{:016x} {:?}\n", r.digest, r.mass0))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(r)
    }

    /// Holds a final snapshot to the reference: bitwise equal fields and
    /// conserved mass.
    pub fn check(&self, s: &Snapshot) -> Result<(), String> {
        let m = mass(s);
        if (m - self.mass0).abs() > MASS_TOL * self.mass0.abs() {
            return Err(format!(
                "mass not conserved: {m:e} after, {:e} before",
                self.mass0
            ));
        }
        let d = digest(s);
        if d != self.digest {
            return Err(format!(
                "fields differ from the serial reference (digest {d:016x}, want {:016x})",
                self.digest
            ));
        }
        Ok(())
    }
}

/// A fetched artifact must unseal (CRC and codec) and carry its key.
pub fn check_artifact(bytes: &[u8], key: &str) -> Result<(), String> {
    let a = ResultArtifact::unseal(bytes)?;
    if a.key != key {
        return Err(format!("artifact carries key {}, fetched as {key}", a.key));
    }
    Ok(())
}

/// Cached = fresh: two byte strings for one key must be identical.
pub fn check_same(what: &str, key: &str, a: &[u8], b: &[u8]) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Err(format!(
        "{what} for {key} differs from the first result at byte {at} ({} vs {} bytes)",
        a.len(),
        b.len()
    ))
}

/// Shows each check firing on a corrupted output. Returns the number of
/// checks that failed to fire (0 = all good).
pub fn self_test() -> usize {
    let cfg = ChannelConfig::paper_scaled(microslip::lbm::Dims::new(8, 6, 4));
    let reference = Reference::compute(&cfg, 3);
    let mut sim = Simulation::new(cfg);
    sim.run(3);
    let snap = sim.snapshot();

    let mut flipped = snap.clone();
    flipped.velocity[5] = f64::from_bits(flipped.velocity[5].to_bits() ^ 1);
    let mut heavier = snap.clone();
    heavier.rho[0][7] += 1e-3;

    let artifact = ResultArtifact {
        key: "00000000000000aa".into(),
        phases: 3,
        diagnostics: microslip::lbm::FlowDiagnostics::compute(&snap),
        snapshot: snap.clone(),
        summary_json: "{}".into(),
    };
    let sealed = artifact.seal();
    let mut corrupt = sealed.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;

    let cases: [(&str, bool, bool); 7] = [
        (
            "serial run matches its reference",
            reference.check(&snap).is_ok(),
            true,
        ),
        (
            "one flipped velocity bit",
            reference.check(&flipped).is_ok(),
            false,
        ),
        (
            "mass added to one cell",
            reference.check(&heavier).is_ok(),
            false,
        ),
        (
            "intact artifact",
            check_artifact(&sealed, &artifact.key).is_ok(),
            true,
        ),
        (
            "flipped byte in a fetched artifact",
            check_artifact(&corrupt, &artifact.key).is_ok(),
            false,
        ),
        (
            "artifact fetched under another key",
            check_artifact(&sealed, "00000000000000bb").is_ok(),
            false,
        ),
        (
            "cache hit differs from the miss",
            check_same("hit", "k", &sealed, &corrupt).is_ok(),
            false,
        ),
    ];
    let mut misses = 0;
    for (name, passed, want) in cases {
        let verdict = if passed { "passes" } else { "fires" };
        let ok = passed == want;
        println!(
            "self-test: {name}: check {verdict} ({})",
            if ok { "as expected" } else { "WRONG" }
        );
        misses += usize::from(!ok);
    }
    misses
}
