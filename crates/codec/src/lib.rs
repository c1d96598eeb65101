#![forbid(unsafe_code)]
//! # microslip-codec — the byte-format core
//!
//! Every binary format in the workspace (the `MSN1` wire frame and the
//! `MSLIPCF2`, `MSLIPCK1`, `MSLIPRA1`, `MSLIPSC1` and `MSLIPSW1` codecs;
//! see the README's "Binary formats" table) is built from this crate:
//! little-endian writers, one bounds-checked [`Reader`] whose errors are
//! typed `String`s and never panics, one table CRC-32 with incremental
//! update, and CRC-sealed files written through an atomic [`publish`]
//! (same-directory temp file, then rename), so a reader sees the old
//! file, the new file or a stray `.tmp`, never half a file.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the bit pattern of `v` (NaNs are not canonicalized).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A `u64` byte length, then the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads up to 8 bytes as a little-endian `f64`, zero-padding a short
/// chunk (the tail of a byte blob packed into `f64`s).
pub fn f64_from_le(chunk: &[u8]) -> f64 {
    if let Some(word) = chunk.first_chunk::<8>() {
        return f64::from_le_bytes(*word);
    }
    let mut le = [0u8; 8];
    for (dst, src) in le.iter_mut().zip(chunk) {
        *dst = *src;
    }
    f64::from_le_bytes(le)
}

/// Bounds-checked little-endian cursor over untrusted bytes; every error
/// names the format (`what`).
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, pos: 0, what }
    }

    /// A cursor just past `magic`, which `bytes` must start with.
    pub fn open(bytes: &'a [u8], magic: &[u8], what: &'static str) -> Result<Self, String> {
        if !bytes.starts_with(magic) {
            return Err(format!("not a microslip {what} (bad magic)"));
        }
        Ok(Reader { bytes, pos: magic.len(), what })
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let chunk = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| format!("{} truncated at byte {}", self.what, self.pos))?;
        self.pos += n;
        Ok(chunk)
    }

    fn word(&mut self) -> Result<[u8; 8], String> {
        let chunk = self.take(8)?;
        Ok(chunk.first_chunk::<8>().copied().unwrap_or_default())
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        self.word().map(u64::from_le_bytes)
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("{} value {v} exceeds usize", self.what))
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        self.word().map(f64::from_le_bytes)
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid boolean {v}")),
        }
    }

    /// A length-prefixed UTF-8 string of at most 1 MiB.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.count(1 << 20, "string length")?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| format!("bad utf-8: {e}"))
    }

    /// A count or length, rejected above `cap` before anything is
    /// allocated for it.
    pub fn count(&mut self, cap: usize, what: &str) -> Result<usize, String> {
        let n = self.usize()?;
        if n > cap {
            return Err(format!("implausible {what} {n}"));
        }
        Ok(n)
    }

    /// The next `8·n` bytes as `f64` words: one range check, made before
    /// the caller allocates.
    fn words(&mut self, n: usize) -> Result<&'a [[u8; 8]], String> {
        let len = n.checked_mul(8).ok_or_else(|| format!("{} f64 count {n} overflows", self.what))?;
        Ok(self.take(len)?.as_chunks::<8>().0)
    }

    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        Ok(self.words(n)?.iter().map(|w| f64::from_le_bytes(*w)).collect())
    }

    /// Fills `out` by a chunked copy of the next `out.len()` `f64`s.
    pub fn fill_f64s(&mut self, out: &mut [f64]) -> Result<(), String> {
        let words = self.words(out.len())?;
        for (o, w) in out.iter_mut().zip(words) {
            *o = f64::from_le_bytes(*w);
        }
        Ok(())
    }

    /// Ends the decode: trailing bytes are an error, never ignored.
    pub fn finish(self) -> Result<(), String> {
        match self.bytes.len().saturating_sub(self.pos) {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after {}", self.what)),
        }
    }
}

/// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320):
/// updates over pieces equal [`crc32`] of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    pub fn update(&mut self, bytes: &[u8]) {
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            std::array::from_fn(|i| {
                let mut c = u32::try_from(i).unwrap_or_default();
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                c
            })
        });
        for &b in bytes {
            let [low, ..] = self.0.to_le_bytes();
            self.0 = table.get(usize::from(low ^ b)).copied().unwrap_or_default() ^ (self.0 >> 8);
        }
    }

    pub fn finish(self) -> u32 {
        !self.0
    }
}

pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

/// Appends the CRC-32 trailer that [`unseal`] verifies.
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

/// Verifies and strips the CRC-32 trailer: a torn or bit-rotted buffer
/// is an error, never a silently shorter payload.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], String> {
    let Some((payload, trailer)) = bytes.split_last_chunk::<4>() else {
        return Err(format!("{} bytes is shorter than the CRC trailer", bytes.len()));
    };
    let (stored, computed) = (u32::from_le_bytes(*trailer), crc32(payload));
    if stored != computed {
        return Err(format!("CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"));
    }
    Ok(payload)
}

/// Atomically publishes the concatenation of `parts` as `path`, through
/// `path` with its extension replaced by `tmp`.
pub fn publish(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

/// Publishes `payload` plus its CRC-32 trailer without copying it.
pub fn write_sealed(path: &Path, payload: Vec<u8>) -> io::Result<()> {
    let crc = crc32(&payload).to_le_bytes();
    publish(path, &[&payload, &crc])
}

/// Reads a sealed file's verified payload (the trailer is truncated off
/// in place, not copied away).
pub fn read_sealed(path: &Path) -> Result<Vec<u8>, String> {
    let mut bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let len = unseal(&bytes)?.len();
    bytes.truncate(len);
    Ok(bytes)
}

/// Phases `p` with a CRC-valid sealed file `{prefix}{p}{suffix}` in
/// `dir`, ascending. Torn files, stray `.tmp`s and foreign names are
/// skipped; a missing directory has none.
pub fn sealed_phases(dir: &Path, prefix: &str, suffix: &str) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    let mut phases: Vec<u64> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let phase = name.to_str()?.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()?;
            read_sealed(&entry.path()).ok().map(|_| phase)
        })
        .collect();
    phases.sort_unstable();
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("microslip-codec-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writers_and_reader_roundtrip() {
        let mut out = b"MAGIC".to_vec();
        put_u64(&mut out, 7);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "héllo");
        put_u64(&mut out, 1);
        put_f64s(&mut out, &[1.5, f64::MIN_POSITIVE]);
        put_f64s(&mut out, &[2.5, 3.5]);
        let mut r = Reader::open(&out, b"MAGIC", "test blob").unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.bool().unwrap());
        assert_eq!(r.f64s(2).unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        let mut two = [0.0; 2];
        r.fill_f64s(&mut two).unwrap();
        assert_eq!(two, [2.5, 3.5]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_name_the_format() {
        assert_eq!(
            Reader::open(b"XAGIC", b"MAGIC", "test blob").unwrap_err(),
            "not a microslip test blob (bad magic)"
        );
        let mut out = Vec::new();
        put_u64(&mut out, 2);
        let mut r = Reader::new(&out[..5], "test blob");
        assert!(r.u64().unwrap_err().contains("test blob truncated at byte 0"));
        let mut r = Reader::new(&out, "test blob");
        assert!(r.bool().unwrap_err().contains("invalid boolean 2"));
        let mut r = Reader::new(&out, "test blob");
        assert_eq!(r.count(1, "widget count").unwrap_err(), "implausible widget count 2");
        let r = Reader::new(&out, "test blob");
        assert_eq!(r.finish().unwrap_err(), "8 trailing bytes after test blob");
        let mut bad = Vec::new();
        put_u64(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&bad, "t").str().unwrap_err().contains("utf-8"));
    }

    #[test]
    fn huge_f64_counts_fail_before_allocating() {
        let bytes = [0u8; 16];
        for n in [3, usize::MAX / 8, usize::MAX] {
            assert!(Reader::new(&bytes, "t").f64s(n).is_err(), "n = {n}");
        }
        let mut r = Reader::new(&bytes, "t");
        assert!(r.take(usize::MAX).is_err());
        assert_eq!(r.f64s(2).unwrap(), vec![0.0, 0.0], "a failed read consumes nothing");
    }

    #[test]
    fn short_chunks_zero_pad() {
        assert_eq!(f64_from_le(&1.0f64.to_le_bytes()), 1.0);
        assert_eq!(f64_from_le(&[]).to_bits(), 0);
        assert_eq!(f64_from_le(&[1]).to_bits(), 1);
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_equals_one_shot() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        for cut in [0, 1, 4, 500, 999, 1000] {
            let (a, b) = bytes.split_at(cut);
            let mut crc = Crc32::default();
            crc.update(a);
            crc.update(b);
            assert_eq!(crc.finish(), crc32(&bytes), "cut at {cut}");
        }
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"checkpoint payload".to_vec();
        let sealed = seal(payload.clone());
        assert_eq!(sealed.len(), payload.len() + 4);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
        assert_eq!(unseal(&seal(Vec::new())).unwrap(), b"");
    }

    #[test]
    fn torn_seal_rejected() {
        // Any prefix of a sealed buffer must surface as corrupt, never as
        // a silently shorter payload.
        let sealed = seal(b"0123456789abcdef".to_vec());
        for cut in [0, 3, sealed.len() / 2, sealed.len() - 1] {
            let err = unseal(&sealed[..cut]).unwrap_err();
            assert!(err.contains("CRC"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn bit_rot_rejected_in_payload_and_trailer() {
        let sealed = seal(b"0123456789abcdef".to_vec());
        for flip in [9, sealed.len() - 2] {
            let mut bad = sealed.clone();
            bad[flip] ^= 0x40;
            let err = unseal(&bad).unwrap_err();
            assert!(err.contains("CRC mismatch"), "flip {flip}: {err}");
        }
    }

    #[test]
    fn write_sealed_is_atomic_and_readable() {
        let dir = scratch("write");
        let path = dir.join("ckpt-rank0-phase5.bin");
        write_sealed(&path, b"payload".to_vec()).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");
        assert_eq!(fs::read(&path).unwrap(), seal(b"payload".to_vec()));
        assert_eq!(read_sealed(&path).unwrap(), b"payload");
        // Republishing replaces the file in place.
        publish(&path, &[b"new", b" bytes"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_sealed_missing_file_is_typed() {
        let err = read_sealed(Path::new("/nonexistent/ckpt.bin")).unwrap_err();
        assert!(err.contains("/nonexistent/ckpt.bin"), "{err}");
    }

    #[test]
    fn phase_scan_skips_torn_and_foreign_files() {
        let dir = scratch("scan");
        write_sealed(&dir.join("ckpt-000000000012.bin"), b"a".to_vec()).unwrap();
        write_sealed(&dir.join("ckpt-3.bin"), b"b".to_vec()).unwrap();
        let torn = seal(b"c".to_vec());
        fs::write(dir.join("ckpt-20.bin"), &torn[..torn.len() - 1]).unwrap();
        fs::write(dir.join("ckpt-30.bin.tmp"), b"junk").unwrap();
        write_sealed(&dir.join("ckpt-rank1-phase6.bin"), b"d".to_vec()).unwrap();
        assert_eq!(sealed_phases(&dir, "ckpt-", ".bin"), vec![3, 12]);
        assert_eq!(sealed_phases(&dir, "ckpt-rank1-phase", ".bin"), vec![6]);
        assert!(sealed_phases(&dir.join("missing"), "ckpt-", ".bin").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
