//! Checkpoint/restore of the full sampler chain state.
//!
//! A checkpoint captures everything the chain's future depends on — the
//! state arrays (`pi`, `sum(phi)`, optionally full `phi`), `theta`/`beta`,
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
//! layout    u8              0 = PiSumPhi, 1 = FullPhi
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
//! phi       (n*k | 0) x f64 present only for FullPhi
//! theta     2k x f64
//! beta      k x f64
//! probs     pairs x f64     perplexity probability sums
//! crc       u32             CRC-32 of every preceding byte
//! ```
//!
//! The trailing CRC-32 (IEEE 802.3 polynomial, implemented in-tree) makes
//! a flipped byte anywhere in the file a load-time
//! [`CheckpointError::ChecksumMismatch`] instead of a silently corrupted
//! chain.

use crate::config::StateLayout;
use crate::perplexity::PerplexityAccumulator;
use crate::sampler::Engine;
use crate::state::ModelState;
use crate::CoreError;
use mmsb_rand::Xoshiro256PlusPlus;
use std::path::Path;

/// File magic: "MMSB" + "CKP" + format generation.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MMSBCKP1";
/// Current format version.
pub const CHECKPOINT_VERSION: u32 = 1;

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
    /// was offered to (different graph size, `k`, seed, or layout).
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

// The checkpoint checksum now lives in `mmsb-ooc` (the on-disk graph
// format shares it); re-exported here so `mmsb_core::checkpoint::crc32`
// keeps working.
pub use mmsb_ooc::crc32;

// ------------------------------------------------------------ serializer

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
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
    layout: StateLayout,
    n: u32,
    k: usize,
    seed: u64,
    iteration: u64,
    master_rng: [u64; 4],
    theta_rng: [u64; 4],
    pi: Vec<f32>,
    phi_sum: Vec<f32>,
    phi: Vec<f64>,
    theta: Vec<f64>,
    beta: Vec<f64>,
    prob_sums: Vec<f64>,
    samples: u64,
}

impl Checkpoint {
    /// Snapshot `engine`'s full chain state.
    pub(crate) fn capture(engine: &Engine) -> Self {
        let (pi, phi_sum, phi) = engine.state.flat_arrays();
        let (prob_sums, samples) = engine.perplexity.snapshot();
        Self {
            layout: engine.state.layout(),
            n: engine.state.n(),
            k: engine.state.k(),
            seed: engine.config.seed,
            iteration: engine.iteration,
            master_rng: engine.master_rng.state(),
            theta_rng: engine.theta_rng.state(),
            pi: pi.to_vec(),
            phi_sum: phi_sum.to_vec(),
            phi: phi.to_vec(),
            theta: engine.state.theta().to_vec(),
            beta: engine.state.beta().to_vec(),
            prob_sums: prob_sums.to_vec(),
            samples,
        }
    }

    /// Install this snapshot into `engine`, rewinding (or fast-forwarding)
    /// it to the captured point of the chain.
    pub(crate) fn install(&self, engine: &mut Engine) -> Result<(), CoreError> {
        if engine.state.n() != self.n
            || engine.state.k() != self.k
            || engine.state.layout() != self.layout
        {
            return Err(CoreError::Checkpoint(CheckpointError::Mismatch {
                reason: format!(
                    "sampler has n={} k={} {:?}, checkpoint has n={} k={} {:?}",
                    engine.state.n(),
                    engine.state.k(),
                    engine.state.layout(),
                    self.n,
                    self.k,
                    self.layout
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
        engine.state = ModelState::from_flat_arrays(
            self.n,
            self.k,
            self.layout,
            self.pi.clone(),
            self.phi_sum.clone(),
            self.phi.clone(),
            self.theta.clone(),
            self.beta.clone(),
        )?;
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

    /// The state layout the chain ran under.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// The captured memberships, flat row-major `n x k` (vertex-major).
    /// This plus [`Self::beta`] is everything a read-only model server
    /// needs to answer Eq. 7 and membership queries.
    pub fn pi(&self) -> &[f32] {
        &self.pi
    }

    /// The captured community strengths `beta`, length `k`.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Serialize to the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.pi.len() * 4
                + self.phi_sum.len() * 4
                + self.phi.len() * 8
                + (self.theta.len() + self.beta.len() + self.prob_sums.len()) * 8,
        );
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut out, CHECKPOINT_VERSION);
        out.push(match self.layout {
            StateLayout::PiSumPhi => 0,
            StateLayout::FullPhi => 1,
        });
        put_u32(&mut out, self.n);
        put_u64(&mut out, self.k as u64);
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.iteration);
        put_u64(&mut out, self.prob_sums.len() as u64);
        put_u64(&mut out, self.samples);
        for w in self.master_rng.iter().chain(&self.theta_rng) {
            put_u64(&mut out, *w);
        }
        put_f32s(&mut out, &self.pi);
        put_f32s(&mut out, &self.phi_sum);
        put_f64s(&mut out, &self.phi);
        put_f64s(&mut out, &self.theta);
        put_f64s(&mut out, &self.beta);
        put_f64s(&mut out, &self.prob_sums);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
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
        let layout = match c.u8()? {
            0 => StateLayout::PiSumPhi,
            1 => StateLayout::FullPhi,
            l => {
                return Err(CheckpointError::Mismatch {
                    reason: format!("unknown layout tag {l}"),
                })
            }
        };
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
        let pi = c.f32s(nk)?;
        let phi_sum = c.f32s(n as usize)?;
        let phi = match layout {
            StateLayout::FullPhi => c.f64s(nk)?,
            StateLayout::PiSumPhi => Vec::new(),
        };
        let theta = c.f64s(2 * k)?;
        let beta = c.f64s(k)?;
        let prob_sums = c.f64s(pairs)?;
        if c.pos != body.len() {
            return Err(CheckpointError::Mismatch {
                reason: format!("{} trailing bytes", body.len() - c.pos),
            });
        }
        Ok(Self {
            layout,
            n,
            k,
            seed,
            iteration,
            master_rng,
            theta_rng,
            pi,
            phi_sum,
            phi,
            theta,
            beta,
            prob_sums,
            samples,
        })
    }

    /// Write the serialized checkpoint to `path` (atomically: a temp file
    /// in the same directory renamed over the target, so a crash mid-write
    /// never leaves a half-written checkpoint under the real name).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
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
            layout: StateLayout::PiSumPhi,
            n: 3,
            k: 2,
            seed: 7,
            iteration: 42,
            master_rng: [1, 2, 3, 4],
            theta_rng: [5, 6, 7, 8],
            pi: vec![0.5, 0.5, 0.25, 0.75, 1.0, 0.0],
            phi_sum: vec![1.5, 2.5, 3.5],
            phi: Vec::new(),
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

    #[test]
    fn wrong_magic_and_version_are_distinguished() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));

        let mut bytes = sample_checkpoint().to_bytes();
        // Bump the version *and* re-seal the CRC so only the version is bad.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
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
        assert!(CheckpointError::Io("gone".into()).to_string().contains("gone"));
    }
}
