//! Checkpoint/restore of the full sampler chain state.
//!
//! A checkpoint captures everything the chain's future depends on — the
//! state arrays (`pi` and `sum(phi)`), `theta`/`beta`,
//! both master RNG streams, the iteration counter, and the running
//! perplexity accumulator — so a killed run restored from disk continues
//! producing the *bitwise-identical* trajectory the uninterrupted run
//! would have (per-vertex randomness is re-derived from
//! `(seed, iteration, vertex)` and needs no capture).
//!
//! # On-disk format (version 1)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic     8  b"MMSBCKP1"
//! version   u32
//! layout    u8              always 0: the `pi ++ sum(phi)` state
//! n         u32
//! k         u64
//! seed      u64
//! iteration u64
//! pairs     u64             held-out pair count
//! samples   u64             perplexity samples recorded
//! master    4 x u64         master RNG state
//! theta_rng 4 x u64
//! pi        n*k x f32
//! phi_sum   n x f32
//! theta     2k x f64
//! beta      k x f64
//! probs     pairs x f64     perplexity probability sums
//! crc       u32             CRC-32 of every preceding byte
//! ```
//!
//! The trailing CRC-32 (IEEE 802.3 polynomial, implemented in-tree) makes
//! a flipped byte anywhere in the file a load-time
//! [`CheckpointError::ChecksumMismatch`] instead of a silently corrupted
//! chain. It is computed as the bytes are written, so [`Checkpoint::save`]
//! streams the file and [`Checkpoint::to_bytes`] fills a `Vec` through the
//! same serializer.
//!
//! # Memory
//!
//! A checkpoint holds no copy of the model. Capturing one shares the
//! live `pi` and `sum(phi)` [`Plane`]s (a reference-count bump
//! each) and copies only the small state (`theta`, `beta`, the
//! perplexity sums). The sampler's next write to a plane copies it if
//! the checkpoint is still alive then; a checkpoint that is saved and
//! dropped before the next step costs no copy at all. Saving streams
//! through a 64 KiB buffer, so a capture-and-save of an `N x K` model
//! allocates a few KiB plus the buffer, not `4·N·(K+1)` bytes.

use crate::perplexity::PerplexityAccumulator;
use crate::plane::Plane;
use crate::sampler::Engine;
use crate::CoreError;
use mmsb_rand::Xoshiro256PlusPlus;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// File magic: "MMSB" + "CKP" + format generation.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MMSBCKP1";
/// Current format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// The layout tag every checkpoint carries at byte 12: the state is `pi`
/// plus `sum(phi)`. A file with any other tag is refused.
const LAYOUT_TAG: u8 = 0;

/// Errors from checkpoint encoding, decoding, and file I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(String),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The trailing CRC-32 does not match the body.
    ChecksumMismatch,
    /// The file ended before the declared payload.
    Truncated,
    /// The checkpoint is internally valid but does not fit the sampler it
    /// was offered to (different graph size, `k` or seed), or carries a
    /// layout tag other than 0.
    Mismatch {
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (max {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Mismatch { reason } => {
                write!(f, "checkpoint does not match sampler: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------- CRC-32

// The checkpoint checksum is `mmsb-simd`'s CRC-32 kernel, the one the
// on-disk graph format uses too (re-exported by `mmsb-ooc`).
pub use mmsb_ooc::crc32;
use mmsb_simd::crc32_update;

// ------------------------------------------------------------ serializer

/// Forwards writes to `inner`, folding every byte it accepts into a
/// running CRC-32 — the checksum of the stream so far, with nothing held.
struct CrcWriter<W> {
    inner: W,
    crc: u32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Encode `vs` little-endian through a stack buffer, so the writer and
/// its CRC see a few KiB per call instead of one value.
fn put_le<W: Write, const B: usize, T: Copy>(
    out: &mut W,
    vs: &[T],
    to_le: impl Fn(T) -> [u8; B],
) -> std::io::Result<()> {
    let mut buf = [0u8; 4096];
    for chunk in vs.chunks(buf.len() / B) {
        for (dst, &v) in buf.chunks_exact_mut(B).zip(chunk) {
            dst.copy_from_slice(&to_le(v));
        }
        out.write_all(&buf[..chunk.len() * B])?;
    }
    Ok(())
}

/// Byte reader with truncation checking.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32s(&mut self, count: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(count.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn f64s(&mut self, count: usize) -> Result<Vec<f64>, CheckpointError> {
        let raw = self.take(count.checked_mul(8).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    fn rng_state(&mut self) -> Result<[u64; 4], CheckpointError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }
}

// ------------------------------------------------------------ checkpoint

/// A restorable snapshot of the sampler chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    n: u32,
    k: usize,
    seed: u64,
    iteration: u64,
    master_rng: [u64; 4],
    theta_rng: [u64; 4],
    pi: Plane<f32>,
    phi_sum: Plane<f32>,
    theta: Vec<f64>,
    beta: Vec<f64>,
    prob_sums: Vec<f64>,
    samples: u64,
}

impl Checkpoint {
    /// Snapshot `engine`'s full chain state, sharing its planes.
    pub(crate) fn capture(engine: &Engine) -> Self {
        let (pi, phi_sum) = engine.state.planes();
        let (prob_sums, samples) = engine.perplexity.snapshot();
        Self {
            n: engine.state.n(),
            k: engine.state.k(),
            seed: engine.config.seed,
            iteration: engine.iteration,
            master_rng: engine.master_rng.state(),
            theta_rng: engine.theta_rng.state(),
            pi: pi.clone(),
            phi_sum: phi_sum.clone(),
            theta: engine.state.theta().to_vec(),
            beta: engine.state.beta().to_vec(),
            prob_sums: prob_sums.to_vec(),
            samples,
        }
    }

    /// Install this snapshot into `engine`, rewinding (or fast-forwarding)
    /// it to the captured point of the chain.
    pub(crate) fn install(&self, engine: &mut Engine) -> Result<(), CoreError> {
        if engine.state.n() != self.n || engine.state.k() != self.k {
            return Err(CoreError::Checkpoint(CheckpointError::Mismatch {
                reason: format!(
                    "sampler has n={} k={}, checkpoint has n={} k={}",
                    engine.state.n(),
                    engine.state.k(),
                    self.n,
                    self.k
                ),
            }));
        }
        if engine.config.seed != self.seed {
            return Err(CoreError::Checkpoint(CheckpointError::Mismatch {
                reason: format!(
                    "sampler seed {} != checkpoint seed {}",
                    engine.config.seed, self.seed
                ),
            }));
        }
        if engine.heldout.len() != self.prob_sums.len() {
            return Err(CoreError::Checkpoint(CheckpointError::Mismatch {
                reason: format!(
                    "sampler has {} held-out pairs, checkpoint has {}",
                    engine.heldout.len(),
                    self.prob_sums.len()
                ),
            }));
        }
        engine
            .state
            .copy_from_flat_arrays(&self.pi, &self.phi_sum, &self.theta, &self.beta)?;
        engine.master_rng = Xoshiro256PlusPlus::from_state(self.master_rng);
        engine.theta_rng = Xoshiro256PlusPlus::from_state(self.theta_rng);
        engine.perplexity =
            PerplexityAccumulator::from_snapshot(self.prob_sums.clone(), self.samples);
        engine.iteration = self.iteration;
        Ok(())
    }

    /// The iteration this checkpoint was taken at.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The sampler seed the captured chain runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of vertices in the captured model.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of communities in the captured model.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The captured memberships, flat row-major `n x k` (vertex-major).
    /// This plus [`Self::beta`] is everything a read-only model server
    /// needs to answer Eq. 7 and membership queries.
    pub fn pi(&self) -> &[f32] {
        &self.pi
    }

    /// The plane behind [`Self::pi`], for a reader that keeps it beyond
    /// the checkpoint's life: cloning it shares the allocation.
    pub fn pi_plane(&self) -> &Plane<f32> {
        &self.pi
    }

    /// The captured community strengths `beta`, length `k`.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Consume the checkpoint, keeping only [`Self::pi`] and
    /// [`Self::beta`] — their allocations move out, nothing is copied.
    /// A model server takes the planes this way so the decoded model is
    /// never resident twice.
    pub fn into_planes(self) -> (Plane<f32>, Vec<f64>) {
        (self.pi, self.beta)
    }

    /// Length of the serialized checkpoint in bytes.
    fn encoded_len(&self) -> usize {
        // magic, version, layout, n, then k..samples and both RNG states.
        8 + 4
            + 1
            + 4
            + 8 * (5 + 8)
            + 4 * (self.pi.len() + self.phi_sum.len())
            + 8 * (self.theta.len() + self.beta.len() + self.prob_sums.len())
            + 4
    }

    /// Stream the versioned, checksummed wire format into `out`: the one
    /// serializer behind [`Self::to_bytes`] and [`Self::save`]. The CRC
    /// runs beside the writes, so nothing but `out`'s own buffer is held.
    fn write_to<W: Write>(&self, out: W) -> std::io::Result<()> {
        let mut w = CrcWriter { inner: out, crc: 0 };
        w.write_all(&CHECKPOINT_MAGIC)?;
        w.write_all(&CHECKPOINT_VERSION.to_le_bytes())?;
        w.write_all(&[LAYOUT_TAG])?;
        w.write_all(&self.n.to_le_bytes())?;
        let header = [
            self.k as u64,
            self.seed,
            self.iteration,
            self.prob_sums.len() as u64,
            self.samples,
        ];
        put_le(&mut w, &header, u64::to_le_bytes)?;
        put_le(&mut w, &self.master_rng, u64::to_le_bytes)?;
        put_le(&mut w, &self.theta_rng, u64::to_le_bytes)?;
        put_le(&mut w, &self.pi, f32::to_le_bytes)?;
        put_le(&mut w, &self.phi_sum, f32::to_le_bytes)?;
        for plane in [&self.theta, &self.beta, &self.prob_sums] {
            put_le(&mut w, plane, f64::to_le_bytes)?;
        }
        let CrcWriter { mut inner, crc } = w;
        inner.write_all(&crc.to_le_bytes())?;
        inner.flush()
    }

    /// Serialize to the versioned, checksummed wire format — the bytes
    /// [`Self::save`] writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out)
            .expect("writing into a Vec cannot fail");
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Deserialize, verifying magic, version, length, and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 4 + 4 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("4"));
        if crc32(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut c = Cursor {
            bytes: body,
            pos: 8,
        };
        let version = c.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let tag = c.u8()?;
        if tag != LAYOUT_TAG {
            return Err(CheckpointError::Mismatch {
                reason: format!("unknown layout tag {tag}"),
            });
        }
        let n = c.u32()?;
        let k = usize::try_from(c.u64()?).map_err(|_| CheckpointError::Truncated)?;
        let seed = c.u64()?;
        let iteration = c.u64()?;
        let pairs = usize::try_from(c.u64()?).map_err(|_| CheckpointError::Truncated)?;
        let samples = c.u64()?;
        let master_rng = c.rng_state()?;
        let theta_rng = c.rng_state()?;
        let nk = (n as usize)
            .checked_mul(k)
            .ok_or(CheckpointError::Truncated)?;
        let pi = Plane::from(c.f32s(nk)?);
        let phi_sum = Plane::from(c.f32s(n as usize)?);
        let theta = c.f64s(2 * k)?;
        let beta = c.f64s(k)?;
        let prob_sums = c.f64s(pairs)?;
        if c.pos != body.len() {
            return Err(CheckpointError::Mismatch {
                reason: format!("{} trailing bytes", body.len() - c.pos),
            });
        }
        Ok(Self {
            n,
            k,
            seed,
            iteration,
            master_rng,
            theta_rng,
            pi,
            phi_sum,
            theta,
            beta,
            prob_sums,
            samples,
        })
    }

    /// Write the serialized checkpoint to `path` (atomically: a temp file
    /// in the same directory, synced to disk, then renamed over the
    /// target and the directory synced, so a crash mid-write never leaves
    /// a half-written checkpoint under the real name). The file is
    /// streamed through a 64 KiB buffer: the serialized bytes are never
    /// resident beside the checkpoint itself. If any step fails the temp
    /// file is removed.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let written = File::create(&tmp).and_then(|file| {
            let mut out = BufWriter::with_capacity(64 << 10, file);
            self.write_to(&mut out)?;
            out.into_inner()
                .map_err(std::io::IntoInnerError::into_error)?
                .sync_all()?;
            std::fs::rename(&tmp, path)?;
            File::open(dir)?.sync_all()
        });
        written.map_err(|e| {
            // Best effort: the save already failed, and a temp file that
            // was never created has nothing to remove.
            let _ = std::fs::remove_file(&tmp);
            CheckpointError::Io(e.to_string())
        })
    }

    /// Load and verify a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            n: 3,
            k: 2,
            seed: 7,
            iteration: 42,
            master_rng: [1, 2, 3, 4],
            theta_rng: [5, 6, 7, 8],
            pi: vec![0.5, 0.5, 0.25, 0.75, 1.0, 0.0].into(),
            phi_sum: vec![1.5, 2.5, 3.5].into(),
            theta: vec![1.0, 2.0, 3.0, 4.0],
            beta: vec![0.5, 0.25],
            prob_sums: vec![0.9, 0.8],
            samples: 1,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample_checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    /// The trailing CRC recorded with the byte-at-a-time `crc32`: a
    /// faster checksum must not move the checkpoint format.
    #[test]
    fn checkpoint_crc_is_golden() {
        let bytes = sample_checkpoint().to_bytes();
        assert_eq!(bytes.len(), 225);
        assert_eq!(bytes[221..], 0x3EA4_2A63u32.to_le_bytes());
    }

    /// A checkpoint of `n` vertices and `k` communities, every plane
    /// filled with distinct values and perplexity sums present.
    fn filled_checkpoint(n: u32, k: usize) -> Checkpoint {
        let nk = n as usize * k;
        let ramp = |len: usize, scale: f64| -> Vec<f64> {
            (0..len).map(|i| (i as f64 + 0.5) * scale).collect()
        };
        Checkpoint {
            n,
            k,
            seed: 11,
            iteration: 900,
            master_rng: [9, 8, 7, 6],
            theta_rng: [5, 4, 3, 2],
            pi: Plane::from(
                ramp(nk, 1e-3)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect::<Vec<_>>(),
            ),
            phi_sum: Plane::from(
                ramp(n as usize, 0.25)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect::<Vec<_>>(),
            ),
            theta: ramp(2 * k, 0.5),
            beta: ramp(k, 0.01),
            prob_sums: ramp(123, 0.003),
            samples: 17,
        }
    }

    /// `save` streams the file through a buffer with a running CRC; it
    /// must hold exactly `to_bytes()`, at sizes whose planes span many
    /// encode chunks.
    #[test]
    fn saved_file_equals_to_bytes() {
        let dir = std::env::temp_dir().join(format!("mmsb-ckpt-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for k in [1, 16, 64] {
            let ck = filled_checkpoint(301, k);
            let path = dir.join(format!("{k}.ckpt"));
            ck.save(&path).unwrap();
            let bytes = ck.to_bytes();
            assert_eq!(bytes.len(), ck.encoded_len(), "k={k}");
            assert!(std::fs::read(&path).unwrap() == bytes, "k={k}");
            assert_eq!(Checkpoint::load(&path).unwrap(), ck, "k={k}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A save whose rename fails (the target is a non-empty directory)
    /// returns the error and leaves no `.tmp` file behind.
    #[test]
    fn a_failed_save_removes_its_temp_file() {
        let dir = std::env::temp_dir().join(format!("mmsb-ckpt-fail-{}", std::process::id()));
        let target = dir.join("model.ckpt");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = sample_checkpoint().save(&target).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert!(!dir.join("model.tmp").exists(), "temp file left behind");
        assert!(target.join("occupied").is_dir(), "the target is untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for len in 0..bytes.len() {
            assert!(Checkpoint::from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
    }

    /// Recompute the trailing CRC after an edit, so only the edit is bad.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
    }

    #[test]
    fn wrong_magic_and_version_are_distinguished() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));

        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));

        // Byte 12 is the layout tag; only 0 is a checkpoint.
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[12] = 1;
        reseal(&mut bytes);
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::Mismatch { reason }) => {
                assert!(reason.contains("layout tag 1"), "{reason}")
            }
            other => panic!("layout tag 1 accepted or misread: {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(CheckpointError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(CheckpointError::Io("gone".into())
            .to_string()
            .contains("gone"));
    }
}
