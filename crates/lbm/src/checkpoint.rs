//! Checkpoint / restore of simulation state.
//!
//! The paper's production runs take "days or weeks" even in parallel
//! (§1); a restartable state dump is table stakes for such runs. The
//! format is a simple self-describing little-endian binary layout — no
//! external serialization dependency — and restoring is **bitwise exact**:
//! a restored simulation continues on the identical trajectory.
//!
//! Layout: an 8-byte magic, seven `u64` header words (grid, slab, phase,
//! component count), then for every component the raw `f`, ψ, force and
//! `ueq` arrays (ghost planes included, so no re-exchange is needed before
//! the first restored phase).

use microslip_codec::{put_f64s, put_u64, Reader};
/// The sealing primitives of the byte-format core, re-exported for
/// checkpoint callers.
pub use microslip_codec::{crc32, read_sealed, seal, unseal, write_sealed};

use crate::config::ChannelConfig;
use crate::geometry::Slab;
use crate::simulation::Simulation;
use crate::solver::SlabSolver;

/// File-format magic ("MSLIPCK1").
pub const MAGIC: [u8; 8] = *b"MSLIPCK1";

/// Why a restore was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Magic bytes absent or wrong version.
    BadMagic,
    /// The byte stream ended early or has trailing garbage.
    BadLength { expected: usize, got: usize },
    /// The checkpoint does not belong to the given configuration.
    ConfigMismatch(String),
    /// A sealed file is torn or bit-rotted: the CRC-32 trailer is missing
    /// or does not match the payload.
    Corrupt { detail: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a microslip checkpoint"),
            CheckpointError::BadLength { expected, got } => {
                write!(f, "checkpoint length {got}, expected {expected}")
            }
            CheckpointError::ConfigMismatch(why) => write!(f, "config mismatch: {why}"),
            CheckpointError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Bytes before the first field array: the magic and seven `u64` words.
const HEADER_LEN: usize = 8 + 7 * 8;

/// Encoded size of a solver's state: header plus every field array.
fn encoded_len(solver: &SlabSolver) -> usize {
    let values: usize = solver
        .comps
        .iter()
        .map(|c| c.f.data().len() + c.psi.data().len() + c.force.data().len() + c.ueq.data().len())
        .sum();
    HEADER_LEN + 8 * values
}

/// Serializes a slab solver's mutable state plus a phase counter.
pub fn save_solver(solver: &SlabSolver, phase: u64) -> Vec<u8> {
    let grid = solver.grid();
    let mut out = Vec::with_capacity(encoded_len(solver));
    out.extend_from_slice(&MAGIC);
    put_u64(&mut out, solver.global_nx as u64);
    put_u64(&mut out, grid.ny as u64);
    put_u64(&mut out, grid.nz as u64);
    put_u64(&mut out, solver.x0 as u64);
    put_u64(&mut out, solver.nx_local() as u64);
    put_u64(&mut out, solver.comps.len() as u64);
    put_u64(&mut out, phase);
    for c in &solver.comps {
        put_f64s(&mut out, c.f.data());
        put_f64s(&mut out, c.psi.data());
        put_f64s(&mut out, c.force.data());
        put_f64s(&mut out, c.ueq.data());
    }
    out
}

/// Restores a slab solver from `bytes`, validating against `config`.
/// Returns the solver and the saved phase counter.
pub fn load_solver(
    config: &ChannelConfig,
    bytes: &[u8],
) -> Result<(SlabSolver, u64), CheckpointError> {
    let mut r = Reader::open(bytes, &MAGIC, "checkpoint").map_err(|_| CheckpointError::BadMagic)?;
    let short = CheckpointError::BadLength { expected: HEADER_LEN, got: bytes.len() };
    let mut word = || r.u64().map_err(|_| short.clone());
    let global_nx = word()? as usize;
    let ny = word()? as usize;
    let nz = word()? as usize;
    let x0 = word()? as usize;
    let nx_local = word()? as usize;
    let ncomp = word()? as usize;
    let phase = word()?;

    if global_nx != config.dims.nx || ny != config.dims.ny || nz != config.dims.nz {
        return Err(CheckpointError::ConfigMismatch(format!(
            "grid {global_nx}x{ny}x{nz} vs config {}x{}x{}",
            config.dims.nx, config.dims.ny, config.dims.nz
        )));
    }
    if ncomp != config.ncomp() {
        return Err(CheckpointError::ConfigMismatch(format!(
            "{ncomp} components vs config {}",
            config.ncomp()
        )));
    }
    if nx_local == 0 || x0 + nx_local > global_nx {
        return Err(CheckpointError::ConfigMismatch(format!(
            "slab [{x0}, {}) outside domain",
            x0 + nx_local
        )));
    }

    let mut solver = SlabSolver::new(config, Slab { x0, nx_local });
    let expected = encoded_len(&solver);
    if bytes.len() != expected {
        return Err(CheckpointError::BadLength { expected, got: bytes.len() });
    }
    for c in solver.comps.iter_mut() {
        for field in [c.f.data_mut(), c.psi.data_mut(), c.force.data_mut(), c.ueq.data_mut()] {
            r.fill_f64s(field)
                .map_err(|_| CheckpointError::BadLength { expected, got: bytes.len() })?;
        }
    }
    Ok((solver, phase))
}

/// Reads a sealed checkpoint file and restores it against `config`: a
/// torn or bit-rotted file is [`CheckpointError::Corrupt`].
pub fn load_sealed(
    config: &ChannelConfig,
    path: &std::path::Path,
) -> Result<(SlabSolver, u64), CheckpointError> {
    let bytes = read_sealed(path).map_err(|detail| CheckpointError::Corrupt { detail })?;
    load_solver(config, &bytes)
}

impl Simulation {
    /// Serializes the full simulation state (fields + phase counter).
    pub fn save(&self) -> Vec<u8> {
        save_solver(&self.solver, self.phase)
    }

    /// Restores a simulation saved by [`save`](Self::save) under the same
    /// configuration. The restored run continues bitwise identically.
    pub fn restore(config: ChannelConfig, bytes: &[u8]) -> Result<Simulation, CheckpointError> {
        let (solver, phase) = load_solver(&config, bytes)?;
        if solver.nx_local() != config.dims.nx {
            return Err(CheckpointError::ConfigMismatch(
                "checkpoint is a partial slab, not a whole-channel simulation".into(),
            ));
        }
        Ok(Simulation { solver, config, phase })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Dims;

    fn config() -> ChannelConfig {
        let mut c = ChannelConfig::paper_scaled(Dims::new(10, 6, 4));
        c.body = [1e-4, 0.0, 0.0];
        c
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let mut sim = Simulation::new(config());
        sim.run(7);
        let bytes = sim.save();
        let restored = Simulation::restore(config(), &bytes).unwrap();
        assert_eq!(restored.phase(), 7);
        assert_eq!(restored.snapshot(), sim.snapshot());
    }

    #[test]
    fn restored_run_continues_identically() {
        let mut a = Simulation::new(config());
        a.run(5);
        let bytes = a.save();
        a.run(6);

        let mut b = Simulation::restore(config(), &bytes).unwrap();
        b.run(6);
        assert_eq!(a.snapshot(), b.snapshot(), "restored trajectory diverged");
        assert_eq!(a.phase(), b.phase());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Simulation::new(config()).save();
        bytes[0] ^= 0xff;
        let err = Simulation::restore(config(), &bytes).unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = Simulation::new(config()).save();
        let err = Simulation::restore(config(), &bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadLength { .. }));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Simulation::new(config()).save();
        bytes.extend_from_slice(&[0u8; 16]);
        let err = Simulation::restore(config(), &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::BadLength { .. }));
    }

    #[test]
    fn wrong_grid_rejected() {
        let bytes = Simulation::new(config()).save();
        let other = ChannelConfig::paper_scaled(Dims::new(12, 6, 4));
        let err = Simulation::restore(other, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)));
    }

    #[test]
    fn wrong_component_count_rejected() {
        let bytes = Simulation::new(config()).save();
        let other = ChannelConfig::single_component(Dims::new(10, 6, 4), 1.0, 1e-4);
        let err = Simulation::restore(other, &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch(_)));
    }

    #[test]
    fn solver_slab_checkpoint_roundtrip() {
        let cfg = config();
        let mut s = SlabSolver::new(&cfg, Slab { x0: 3, nx_local: 4 });
        s.compute_psi();
        let bytes = save_solver(&s, 0);
        let (restored, phase) = load_solver(&cfg, &bytes).unwrap();
        assert_eq!(phase, 0);
        assert_eq!(restored.slab(), s.slab());
        assert_eq!(restored.snapshot(), s.snapshot());
    }

    #[test]
    fn errors_display() {
        assert!(CheckpointError::BadMagic.to_string().contains("checkpoint"));
        let e = CheckpointError::BadLength { expected: 10, got: 4 };
        assert!(e.to_string().contains("10"));
        assert!(CheckpointError::ConfigMismatch("x".into()).to_string().contains("x"));
        let e = CheckpointError::Corrupt { detail: "CRC mismatch".into() };
        assert!(e.to_string().contains("corrupt") && e.to_string().contains("CRC"));
    }

    #[test]
    fn sealed_checkpoint_loads_and_corruption_is_typed() {
        // The sealing primitives themselves are tested in microslip-codec;
        // here: a sealed file restores through the normal loader, and a
        // torn or missing one is the typed Corrupt error.
        let dir = std::env::temp_dir()
            .join(format!("microslip-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-rank0-phase5.bin");
        let payload = Simulation::new(config()).save();
        write_sealed(&path, payload.clone()).unwrap();
        assert_eq!(read_sealed(&path).unwrap(), payload);
        let (solver, phase) = load_sealed(&config(), &path).unwrap();
        assert_eq!(phase, 0);
        assert_eq!(solver.nx_local(), 10);

        let sealed = std::fs::read(&path).unwrap();
        std::fs::write(&path, &sealed[..sealed.len() - 3]).unwrap();
        let err = load_sealed(&config(), &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("corrupt checkpoint"), "{err}");
        let err = load_sealed(&config(), &dir.join("missing.bin")).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
