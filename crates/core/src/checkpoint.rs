//! Durable training checkpoints.
//!
//! A checkpoint captures everything needed to continue training
//! bit-for-bit from a round boundary: the parameters ([`ParamSet`]),
//! the optimizer's momentum velocities, and the round counter (which
//! seeds the per-round dropout masks and dataset sampling — restoring
//! it is what makes a resumed run identical to an uninterrupted one).
//!
//! # On-disk format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ZNNCKPT1"
//! 8       8     round  (u64 LE)
//! 16      8     payload length in bytes (u64 LE)
//! 24      4     CRC-32 (IEEE) of bytes 8..16 ++ payload (u32 LE)
//! 28      ...   payload
//! ```
//!
//! The CRC covers the round field as well as the payload, so a bit
//! flip anywhere meaningful — header or body — is detected.
//!
//! The payload is `n_edges: u64 LE` followed, per edge, by three
//! tagged records — kernel, bias, velocity — each a `0u8` (absent) or
//! `1u8` plus the value. Images serialize as shape (`3 × u64 LE`) then
//! voxels as `f32::to_bits` in LE, so round-tripping is bit-exact (NaN
//! payloads included); a bias is a single `f32` bit pattern.
//!
//! # Durability and atomicity
//!
//! [`Checkpoint::write_atomic`] writes to a temporary file in the same
//! directory, fsyncs it, renames it into place, and fsyncs the
//! directory — a crash at any instant leaves either the previous
//! snapshot set or the previous set plus the complete new file, never
//! a torn file under the real name. [`latest_valid`] scans newest
//! first and skips anything truncated or bit-flipped (magic, length
//! and CRC are all checked), so a corrupt newest snapshot silently
//! falls back to the one before it.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use znn_graph::init::ParamSet;
use znn_tensor::{Image, Vec3};

/// File-name prefix + suffix of finished snapshots: `ckpt-{round:012}.znn`.
const PREFIX: &str = "ckpt-";
const SUFFIX: &str = ".znn";
const MAGIC: &[u8; 8] = b"ZNNCKPT1";
const HEADER_LEN: usize = 28;

/// A complete training snapshot: parameters, optimizer state, round.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Rounds completed when the snapshot was taken; resuming sets the
    /// engine's round counter to this so dropout and sampling streams
    /// continue where they left off.
    pub round: u64,
    /// Kernels and biases of every edge.
    pub params: ParamSet,
    /// Per-edge SGD momentum velocities (`None` for edges without one).
    pub velocities: Vec<Option<Image>>,
}

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file was read but its contents are not a valid snapshot;
    /// the string names the first check that failed.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial every `crc32` tool agrees on, so snapshots can be
/// checked externally.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_image(out: &mut Vec<u8>, img: &Image) {
    let Vec3([x, y, z]) = img.shape();
    put_u64(out, x as u64);
    put_u64(out, y as u64);
    put_u64(out, z as u64);
    for &v in img.as_slice() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CheckpointError::Corrupt("payload truncated"))?;
        let s = &self.data[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32_bits(&mut self) -> Result<f32, CheckpointError> {
        let b = self.bytes(4)?;
        Ok(f32::from_bits(u32::from_le_bytes(
            b.try_into().expect("4 bytes"),
        )))
    }

    fn image(&mut self) -> Result<Image, CheckpointError> {
        let x = self.u64()? as usize;
        let y = self.u64()? as usize;
        let z = self.u64()? as usize;
        let len = x
            .checked_mul(y)
            .and_then(|v| v.checked_mul(z))
            .ok_or(CheckpointError::Corrupt("image shape overflows"))?;
        // bounds-check before allocating so a corrupt shape cannot
        // demand terabytes
        let byte_len = len
            .checked_mul(4)
            .ok_or(CheckpointError::Corrupt("image shape overflows"))?;
        if self
            .at
            .checked_add(byte_len)
            .is_none_or(|end| end > self.data.len())
        {
            return Err(CheckpointError::Corrupt("image larger than payload"));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.f32_bits()?);
        }
        Ok(Image::from_vec([x, y, z], data))
    }

    fn tagged<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            _ => Err(CheckpointError::Corrupt("invalid presence tag")),
        }
    }
}

impl Checkpoint {
    /// Serializes the snapshot payload (everything after the header).
    fn encode_payload(&self) -> Vec<u8> {
        let n = self.params.kernels.len();
        assert_eq!(n, self.params.biases.len(), "ParamSet invariant");
        assert_eq!(n, self.velocities.len(), "one velocity slot per edge");
        let mut out = Vec::new();
        put_u64(&mut out, n as u64);
        for i in 0..n {
            match &self.params.kernels[i] {
                Some(k) => {
                    out.push(1);
                    put_image(&mut out, k);
                }
                None => out.push(0),
            }
            match self.params.biases[i] {
                Some(b) => {
                    out.push(1);
                    out.extend_from_slice(&b.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
            match &self.velocities[i] {
                Some(v) => {
                    out.push(1);
                    put_image(&mut out, v);
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Serializes the complete file image (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(self.round, &self.encode_payload())
    }

    /// Parses a file image produced by [`Checkpoint::encode`],
    /// verifying magic, length and CRC.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if data.len() < HEADER_LEN {
            return Err(CheckpointError::Corrupt("shorter than header"));
        }
        if &data[..8] != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic"));
        }
        let round = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(data[16..24].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(data[24..28].try_into().expect("4 bytes"));
        let payload = &data[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return Err(CheckpointError::Corrupt("payload length mismatch"));
        }
        let mut crc_input = Vec::with_capacity(8 + payload.len());
        crc_input.extend_from_slice(&data[8..16]);
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            return Err(CheckpointError::Corrupt("CRC mismatch"));
        }
        let mut r = Reader {
            data: payload,
            at: 0,
        };
        // every edge carries at least its three presence tags, so a
        // count the payload cannot hold is rejected before allocating
        let n = r.u64()?;
        if n > ((payload.len() - 8) / 3) as u64 {
            return Err(CheckpointError::Corrupt("edge count larger than payload"));
        }
        let n = n as usize;
        let mut kernels = Vec::with_capacity(n);
        let mut biases = Vec::with_capacity(n);
        let mut velocities = Vec::with_capacity(n);
        for _ in 0..n {
            kernels.push(r.tagged(Reader::image)?);
            biases.push(r.tagged(Reader::f32_bits)?);
            velocities.push(r.tagged(Reader::image)?);
        }
        if r.at != payload.len() {
            return Err(CheckpointError::Corrupt("trailing bytes in payload"));
        }
        Ok(Checkpoint {
            round,
            params: ParamSet { kernels, biases },
            velocities,
        })
    }

    /// Reads and validates one snapshot file.
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let mut data = Vec::new();
        fs::File::open(path)?.read_to_end(&mut data)?;
        Checkpoint::decode(&data)
    }

    /// Durably writes the snapshot into `dir` as `ckpt-{round:012}.znn`
    /// and prunes all but the newest `keep` snapshots. Returns the
    /// final path.
    ///
    /// The write is atomic and durable: temp file in the same
    /// directory → fsync → rename → directory fsync. A crash at any
    /// point leaves no torn file under a `ckpt-*.znn` name.
    pub fn write_atomic(&self, dir: &Path, keep: usize) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let final_path = dir.join(format!("{PREFIX}{:012}{SUFFIX}", self.round));
        let tmp_path = dir.join(format!(".{PREFIX}{:012}.tmp", self.round));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // fsync the directory so the rename itself is durable
        fs::File::open(dir)?.sync_all()?;
        prune(dir, keep)?;
        Ok(final_path)
    }
}

/// The file image of `payload` for `round`: header, then payload.
fn frame(round: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    // CRC over round ++ payload: a flipped header bit must be as
    // detectable as a flipped body bit
    let mut crc_input = Vec::with_capacity(8 + payload.len());
    crc_input.extend_from_slice(&round.to_le_bytes());
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Round number encoded in a snapshot file name, if it is one.
fn round_of(name: &str) -> Option<u64> {
    name.strip_prefix(PREFIX)?
        .strip_suffix(SUFFIX)?
        .parse()
        .ok()
}

/// All snapshot files in `dir`, newest (highest round) first.
fn snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(round) = entry.file_name().to_str().and_then(round_of) {
            found.push((round, entry.path()));
        }
    }
    found.sort_by_key(|&(round, _)| std::cmp::Reverse(round));
    Ok(found)
}

/// Removes all but the newest `keep` snapshots (`keep == 0` keeps all).
fn prune(dir: &Path, keep: usize) -> io::Result<()> {
    if keep == 0 {
        return Ok(());
    }
    for (_, path) in snapshots(dir)?.into_iter().skip(keep) {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Loads the newest snapshot in `dir` that passes validation, skipping
/// (and reporting to stderr) any that are truncated or corrupt. `None`
/// when the directory is missing, empty, or holds no valid snapshot.
pub fn latest_valid(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let listing = match snapshots(dir) {
        Ok(l) => l,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for (_, path) in listing {
        match Checkpoint::read(&path) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(err) => {
                eprintln!(
                    "znn: skipping checkpoint {}: {err}",
                    path.display()
                );
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> Checkpoint {
        let k = Image::from_fn([2, 2, 2], |Vec3([x, y, z])| {
            (x * 4 + y * 2 + z) as f32 * 0.25 - 0.5
        });
        let v = Image::filled([2, 2, 2], f32::MIN_POSITIVE); // subnormal-ish bit pattern
        Checkpoint {
            round,
            params: ParamSet {
                kernels: vec![Some(k), None],
                biases: vec![Some(0.125), None],
            },
            velocities: vec![Some(v), None],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "znn-ckpt-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vector() {
        // the canonical check value of CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let mut c = sample(42);
        // NaN and -0.0 must survive: bit-level fidelity, not value-level
        c.params.kernels[0].as_mut().unwrap().as_mut_slice()[3] = f32::NAN;
        c.velocities[0].as_mut().unwrap().as_mut_slice()[0] = -0.0;
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(d.round, 42);
        let (a, b) = (
            c.params.kernels[0].as_ref().unwrap().as_slice(),
            d.params.kernels[0].as_ref().unwrap().as_slice(),
        );
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            d.velocities[0].as_ref().unwrap().as_slice()[0].to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(d.params.biases, c.params.biases);
    }

    #[test]
    fn corrupt_files_are_rejected_not_misread() {
        let good = sample(7).encode();
        // truncation at every interesting boundary
        for cut in [0, 4, 27, 28, good.len() - 1] {
            assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // single bit flips anywhere must be caught by magic or CRC
        for byte in [0usize, 9, 20, 30, good.len() - 1] {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn huge_edge_count_is_corrupt_not_an_allocation() {
        // a CRC-valid file whose edge count no payload could hold
        let good = sample(7).encode();
        let mut payload = good[HEADER_LEN..].to_vec();
        payload[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&frame(7, &payload)),
            Err(CheckpointError::Corrupt("edge count larger than payload"))
        ));
    }

    #[test]
    fn write_atomic_then_latest_valid_round_trips() {
        let dir = tmpdir("roundtrip");
        let c = sample(5);
        let path = c.write_atomic(&dir, 3).unwrap();
        assert!(path.ends_with("ckpt-000000000005.znn"));
        let loaded = latest_valid(&dir).unwrap().unwrap();
        assert_eq!(loaded, c);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_only_newest_k() {
        let dir = tmpdir("retention");
        for round in 1..=5 {
            sample(round).write_atomic(&dir, 2).unwrap();
        }
        let names = snapshots(&dir).unwrap();
        assert_eq!(
            names.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![5, 4]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = tmpdir("fallback");
        sample(3).write_atomic(&dir, 0).unwrap();
        sample(9).write_atomic(&dir, 0).unwrap();
        // corrupt the newest in place
        let newest = dir.join("ckpt-000000000009.znn");
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let loaded = latest_valid(&dir).unwrap().unwrap();
        assert_eq!(loaded.round, 3, "fell back to the previous snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_not_an_error() {
        let dir = std::env::temp_dir().join("znn-ckpt-test-definitely-missing");
        let _ = fs::remove_dir_all(&dir);
        assert!(latest_valid(&dir).unwrap().is_none());
    }
}
