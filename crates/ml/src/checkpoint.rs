//! Epoch-granular training checkpoints.
//!
//! A [`TrainCheckpoint`] freezes everything a deterministic run needs to
//! continue: the next epoch to execute, the run seed (all RNG streams are
//! derived from it and replayed on resume), the simulated clock, the flat
//! model parameter vector, and the optimizer's internal state. Because the
//! whole system is seed-deterministic, a run killed mid-training and
//! resumed from its last checkpoint produces a **bit-identical** final
//! model to an uninterrupted run.
//!
//! Blob format `CORGICK1` (little-endian), checksummed and written
//! atomically via [`atomic_write_bytes`]:
//!
//! ```text
//! magic "CORGICK1"   8 bytes
//! epoch_next u64, seed u64, sim_clock f64
//! param_count u64, params f32 × param_count
//! state_len u64, optimizer state bytes
//! crc32 u32          CRC-32 of everything above
//! ```

use corgipile_storage::{atomic_write_bytes, crc32, Result, StorageError};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CORGICK1";

/// A resumable snapshot of a training run, taken at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The next epoch to run (epochs `0..epoch_next` are complete).
    pub epoch_next: usize,
    /// The run's seed; resume refuses a mismatched seed, since the replayed
    /// RNG streams would diverge from the checkpointed trajectory.
    pub seed: u64,
    /// Simulated clock at the checkpoint (end of epoch `epoch_next - 1`).
    pub sim_clock: f64,
    /// Flat model parameter vector.
    pub model_params: Vec<f32>,
    /// Opaque optimizer state (see `Optimizer::state_bytes`).
    pub optimizer_state: Vec<u8>,
}

impl TrainCheckpoint {
    /// Serialize to the checksummed `CORGICK1` blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 8 + 8 + 8 + 8 + 4 * self.model_params.len() + 8 + self.optimizer_state.len() + 4,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.epoch_next as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.sim_clock.to_le_bytes());
        out.extend_from_slice(&(self.model_params.len() as u64).to_le_bytes());
        for p in &self.model_params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.extend_from_slice(&(self.optimizer_state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.optimizer_state);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a `CORGICK1` blob, verifying magic, structure and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint> {
        if bytes.len() < 8 + 8 + 8 + 8 + 8 + 8 + 4 {
            return Err(StorageError::Corrupt("checkpoint too short".into()));
        }
        if &bytes[..8] != MAGIC {
            return Err(StorageError::Corrupt("bad checkpoint magic".into()));
        }
        let body = &bytes[..bytes.len() - 4];
        let expected = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let actual = crc32(body);
        if actual != expected {
            return Err(StorageError::ChecksumMismatch {
                block: None,
                expected,
                actual,
            });
        }
        let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().expect("8 bytes"));
        let epoch_next = u64_at(8) as usize;
        let seed = u64_at(16);
        let sim_clock = f64::from_le_bytes(body[24..32].try_into().expect("8 bytes"));
        // Both length fields are bounded by the blob before anything is
        // allocated, and no offset arithmetic can overflow: a CRC-valid
        // blob with absurd lengths is corrupt, not a panic.
        let params_end = usize::try_from(u64_at(32))
            .ok()
            .and_then(|n| n.checked_mul(4))
            .and_then(|n| n.checked_add(40))
            .ok_or_else(too_short)?;
        let state_at = params_end.checked_add(8).ok_or_else(too_short)?;
        if body.len() < state_at {
            return Err(too_short());
        }
        let state_len = u64_at(params_end);
        if (body.len() - state_at) as u64 != state_len {
            return Err(StorageError::Corrupt("checkpoint length mismatch".into()));
        }
        let model_params: Vec<f32> = body[40..params_end]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        let optimizer_state = body[state_at..].to_vec();
        Ok(TrainCheckpoint {
            epoch_next,
            seed,
            sim_clock,
            model_params,
            optimizer_state,
        })
    }

    /// Atomically write the checkpoint to `path` (temp sibling + rename —
    /// a crash mid-save leaves the previous checkpoint intact).
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write_bytes(path, &self.to_bytes())
    }

    /// Load and verify a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<TrainCheckpoint> {
        let bytes = std::fs::read(path).map_err(|e| StorageError::Io {
            op: "read checkpoint",
            message: e.to_string(),
        })?;
        TrainCheckpoint::from_bytes(&bytes)
    }
}

fn too_short() -> StorageError {
    StorageError::Corrupt("checkpoint truncated".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch_next: 3,
            seed: 0xDEAD_BEEF,
            sim_clock: 12.75,
            model_params: vec![1.5, -2.25, 0.0, 42.0],
            optimizer_state: vec![9, 8, 7, 6, 5],
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let ck = sample();
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn roundtrip_through_file() {
        let path = std::env::temp_dir().join(format!("corgi_ck_{}.ckpt", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), ck);
        // Overwrite is atomic: a second save replaces, never corrupts.
        let mut ck2 = sample();
        ck2.epoch_next = 4;
        ck2.save(&path).unwrap();
        assert_eq!(TrainCheckpoint::load(&path).unwrap().epoch_next, 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_params_and_state_roundtrip() {
        let ck = TrainCheckpoint {
            epoch_next: 0,
            seed: 1,
            sim_clock: 0.0,
            model_params: vec![],
            optimizer_state: vec![],
        };
        assert_eq!(TrainCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = sample().to_bytes();
        for victim in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[victim] ^= 0x10;
            assert!(
                TrainCheckpoint::from_bytes(&bad).is_err(),
                "flip at byte {victim} undetected"
            );
        }
    }

    /// `body` (a blob without its CRC) with a fresh, valid CRC appended.
    fn with_crc(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// The sample blob with its two length fields overwritten and the CRC
    /// recomputed, so only the structure checks stand between the fields
    /// and the decoder's offset arithmetic.
    fn with_lengths(param_count: u64, state_len: u64) -> Vec<u8> {
        let mut body = sample().to_bytes();
        body.truncate(body.len() - 4);
        body[32..40].copy_from_slice(&param_count.to_le_bytes());
        let at = 40 + 4 * sample().model_params.len();
        body[at..at + 8].copy_from_slice(&state_len.to_le_bytes());
        with_crc(body)
    }

    /// A length field near zero, near the largest parameter count whose
    /// byte size still fits, near `u64::MAX`, or anywhere.
    fn length_field(raw: u64, pick: u8) -> u64 {
        match pick % 4 {
            0 => raw % 64,
            1 => u64::MAX / 4 - raw % 64,
            2 => u64::MAX - raw % 64,
            _ => raw,
        }
    }

    #[test]
    fn absurd_length_fields_are_corrupt_not_a_panic() {
        // 40 + 4 × param_count lands 3 bytes below usize::MAX, so the
        // state-length offset after it overflows.
        let near_max = (u64::MAX - 40) / 4;
        for (count, state) in [
            (near_max, 5),
            (4, u64::MAX),
            (4, u64::MAX - 60),
            (u64::MAX, 5),
        ] {
            match TrainCheckpoint::from_bytes(&with_lengths(count, state)) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("({count}, {state}): expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(
            TrainCheckpoint::from_bytes(&with_lengths(4, 5)).unwrap(),
            sample()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The decoder returns `Ok` or `Err` and never panics: on arbitrary
        /// bytes (with and without the magic and a valid CRC), on every
        /// single-bit flip of a valid blob, and on valid blobs whose length
        /// fields were rewritten and re-checksummed.
        #[test]
        fn prop_decoder_never_panics(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            bit in proptest::prelude::any::<usize>(),
            raw in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            pick in (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
        ) {
            let _ = TrainCheckpoint::from_bytes(&bytes);
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&bytes);
            let _ = TrainCheckpoint::from_bytes(&with_crc(framed));

            let mut flipped = sample().to_bytes();
            let bit = bit % (8 * flipped.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert!(TrainCheckpoint::from_bytes(&flipped).is_err());

            let blob = with_lengths(length_field(raw.0, pick.0), length_field(raw.1, pick.1));
            if let Ok(ck) = TrainCheckpoint::from_bytes(&blob) {
                proptest::prop_assert_eq!(ck, sample());
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(TrainCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(TrainCheckpoint::from_bytes(b"not a checkpoint at all....").is_err());
        assert!(TrainCheckpoint::load(Path::new("/nonexistent/ck")).is_err());
    }
}
