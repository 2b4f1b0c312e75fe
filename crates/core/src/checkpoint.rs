//! Versioned, checksummed training checkpoints.
//!
//! Long-running hash training under the HashNet `tanh(beta x)`
//! continuation is exactly the regime where late-training divergence
//! bites: beta grows every epoch, gradients sharpen, and one bad batch
//! can blow the loss up to NaN. The trainer therefore persists its
//! full state — parameter values, Adam moments, scheduler position,
//! the best-so-far snapshot, and the recovery log — in a hand-rolled
//! binary format that can be validated end-to-end before a single
//! tensor is touched.
//!
//! ## Format
//!
//! ```text
//! magic    8 bytes  b"T2HCKPT1"
//! version  u32 LE   currently 1
//! length   u64 LE   payload byte count
//! crc32    u32 LE   CRC-32/ISO-HDLC of the payload
//! payload  `length` bytes (field layout below)
//! ```
//!
//! The payload is a fixed field sequence (all scalars little-endian,
//! all vectors length-prefixed with a `u64`): epoch, Adam step count,
//! triplet cursor, learning rate, best epoch, optional best validation
//! score, the `TNS1` parameter+moment blob, the `TNN1` best-parameter
//! blob, per-epoch losses, per-epoch validation scores, and the
//! recovery event log.
//!
//! Decoding is strict: a truncated file, a flipped bit, a wrong
//! version, or trailing garbage each produce a typed
//! [`CheckpointError`] — never silently corrupt parameters.

use std::fmt;
use std::path::Path;

/// Magic prefix of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"T2HCKPT1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Why a checkpoint failed to decode.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The blob is shorter than the fixed header.
    TooShort,
    /// The magic prefix is wrong — not a checkpoint file.
    BadMagic,
    /// The version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Length the header promises.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload checksum does not match — bit rot or truncation.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u32,
        /// Checksum of the payload as read.
        got: u32,
    },
    /// The payload ended mid-field or a field had an impossible value.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::TooShort => write!(f, "checkpoint shorter than header"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads <= {VERSION})")
            }
            CheckpointError::LengthMismatch { expected, got } => {
                write!(f, "checkpoint length mismatch: header says {expected}, file has {got}")
            }
            CheckpointError::ChecksumMismatch { expected, got } => {
                write!(f, "checkpoint checksum mismatch: header {expected:#010x}, payload {got:#010x}")
            }
            CheckpointError::Malformed(s) => write!(f, "malformed checkpoint payload: {s}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial), computed with a
/// lazily-built 256-entry table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn build_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            #[expect(clippy::cast_possible_truncation, reason = "i < 256, the loop bound")]
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = build_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// What kind of loss anomaly triggered a rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The epoch loss came back NaN or infinite.
    NonFiniteLoss,
    /// The epoch loss spiked past the configured divergence factor.
    LossSpike,
}

impl fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryKind::NonFiniteLoss => write!(f, "non-finite loss"),
            RecoveryKind::LossSpike => write!(f, "loss spike"),
        }
    }
}

/// One rollback performed by the divergence guard.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch whose loss triggered the rollback.
    pub epoch: usize,
    /// What the anomaly was.
    pub kind: RecoveryKind,
    /// The offending loss value (NaN survives the round-trip as NaN).
    pub loss: f32,
    /// Epoch whose snapshot was restored.
    pub restored_epoch: usize,
    /// Learning rate in effect after the backoff.
    pub lr_after: f32,
}

/// A decoded checkpoint: everything needed to resume training.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Next epoch to run (epochs `0..epoch` are complete).
    pub epoch: usize,
    /// Adam step counter at the snapshot.
    pub adam_steps: u64,
    /// Position in the generated-triplet stream.
    pub triplet_cursor: usize,
    /// Learning rate in effect (may be lower than configured after
    /// divergence backoffs).
    pub lr: f32,
    /// Epoch of the best validation score so far.
    pub best_epoch: usize,
    /// Best validation HR@10 so far, if validation ran.
    pub best_val: Option<f64>,
    /// `TNS1` blob: parameter values + Adam moments at the snapshot.
    pub params_state: Vec<u8>,
    /// `TNN1` blob: parameter values of the best epoch.
    pub best_params: Vec<u8>,
    /// Mean combined loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation HR@10 of each completed epoch.
    pub val_hr10: Vec<f64>,
    /// Every rollback performed so far.
    pub recoveries: Vec<RecoveryEvent>,
}

/// Little-endian payload builder for the container format.
///
/// Shared by the trainer checkpoints here and the engine snapshots in
/// `traj-engine`; any other serialized artifact should build on it too
/// so every on-disk format gets the same header + CRC discipline.
#[derive(Default)]
pub struct PayloadWriter(Vec<u8>);

impl PayloadWriter {
    /// Starts an empty payload.
    pub fn new() -> Self {
        PayloadWriter(Vec::new())
    }
    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64` length prefix followed by the raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    /// Consumes the writer, yielding the payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.0
    }
}

/// Strict cursor over a validated payload. Every accessor fails with
/// [`CheckpointError::Malformed`] instead of panicking or reading
/// out of bounds.
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, pos: 0 }
    }
    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "field at offset {} needs {n} bytes, {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        #[expect(clippy::unwrap_used, reason = "take(8) returned exactly 8 bytes")]
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        #[expect(clippy::unwrap_used, reason = "take(4) returned exactly 4 bytes")]
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        #[expect(clippy::unwrap_used, reason = "take(8) returned exactly 8 bytes")]
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a `u64` that the format stores as a machine-word quantity
    /// (an epoch number, a cursor, a count), rejecting values that do
    /// not fit a `usize` on this platform instead of silently
    /// truncating them. `what` names the field in the error.
    pub fn u64_usize(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| {
            CheckpointError::Malformed(format!("{what} {raw} does not fit usize"))
        })
    }
    /// Reads a `u64` element count for a vector of `elem_size`-byte
    /// elements, rejecting counts that could not possibly fit in the
    /// payload before the caller allocates.
    pub fn len_prefix(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let n = self.u64_usize("length prefix")?;
        // Reject absurd lengths before allocating.
        if n.saturating_mul(elem_size.max(1)) > self.bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "length prefix {n} exceeds payload size"
            )));
        }
        Ok(n)
    }
    /// Reads a length-prefixed byte blob (inverse of
    /// [`PayloadWriter::bytes`]).
    pub fn blob(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }
    /// Fails unless every payload byte has been consumed — trailing
    /// garbage means the payload does not have the layout the caller
    /// thinks it has.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Wraps `payload` in the standard container: `magic`, `version`, a
/// `u64` payload length, and the payload's CRC-32, followed by the
/// payload itself.
pub fn encode_container(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a container end-to-end — magic, version range, length,
/// checksum — and returns `(version, payload)` without copying.
///
/// Accepted versions are `1..=max_version`; anything else is
/// [`CheckpointError::UnsupportedVersion`]. A wrong magic is
/// [`CheckpointError::BadMagic`] — the file belongs to some other
/// format (or to none), so no further validation is attempted.
pub fn decode_container<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    max_version: u32,
) -> Result<(u32, &'a [u8]), CheckpointError> {
    if bytes.len() < magic.len() + 4 + 8 + 4 {
        return Err(CheckpointError::TooShort);
    }
    if &bytes[..8] != magic {
        return Err(CheckpointError::BadMagic);
    }
    #[expect(clippy::unwrap_used, reason = "the header length was checked above")]
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > max_version {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    #[expect(clippy::unwrap_used, reason = "8-byte slice of a length-checked header")]
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    #[expect(clippy::unwrap_used, reason = "4-byte slice of a length-checked header")]
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let payload = &bytes[24..];
    if payload.len() as u64 != payload_len {
        return Err(CheckpointError::LengthMismatch {
            expected: payload_len,
            got: payload.len() as u64,
        });
    }
    let got_crc = crc32(payload);
    if got_crc != stored_crc {
        return Err(CheckpointError::ChecksumMismatch { expected: stored_crc, got: got_crc });
    }
    Ok((version, payload))
}

impl Checkpoint {
    /// Encodes the checkpoint: header + checksummed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u64(self.epoch as u64);
        w.u64(self.adam_steps);
        w.u64(self.triplet_cursor as u64);
        w.f32(self.lr);
        w.u64(self.best_epoch as u64);
        match self.best_val {
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
            None => {
                w.u8(0);
                w.f64(0.0);
            }
        }
        w.bytes(&self.params_state);
        w.bytes(&self.best_params);
        w.u64(self.epoch_losses.len() as u64);
        for &l in &self.epoch_losses {
            w.f32(l);
        }
        w.u64(self.val_hr10.len() as u64);
        for &v in &self.val_hr10 {
            w.f64(v);
        }
        w.u64(self.recoveries.len() as u64);
        for r in &self.recoveries {
            w.u64(r.epoch as u64);
            w.u8(match r.kind {
                RecoveryKind::NonFiniteLoss => 0,
                RecoveryKind::LossSpike => 1,
            });
            w.f32(r.loss);
            w.u64(r.restored_epoch as u64);
            w.f32(r.lr_after);
        }
        encode_container(MAGIC, VERSION, &w.into_payload())
    }

    /// Decodes and fully validates a checkpoint blob.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let (_, payload) = decode_container(bytes, MAGIC, VERSION)?;
        let mut r = PayloadReader::new(payload);
        let epoch = r.u64_usize("epoch")?;
        let adam_steps = r.u64()?;
        let triplet_cursor = r.u64_usize("triplet cursor")?;
        let lr = r.f32()?;
        let best_epoch = r.u64_usize("best epoch")?;
        let has_best = r.u8()?;
        let best_raw = r.f64()?;
        let best_val = match has_best {
            0 => None,
            1 => Some(best_raw),
            t => return Err(CheckpointError::Malformed(format!("bad option tag {t}"))),
        };
        let params_state = r.blob()?;
        let best_params = r.blob()?;
        let n = r.len_prefix(4)?;
        let mut epoch_losses = Vec::with_capacity(n);
        for _ in 0..n {
            epoch_losses.push(r.f32()?);
        }
        let n = r.len_prefix(8)?;
        let mut val_hr10 = Vec::with_capacity(n);
        for _ in 0..n {
            val_hr10.push(r.f64()?);
        }
        let n = r.len_prefix(25)?;
        let mut recoveries = Vec::with_capacity(n);
        for _ in 0..n {
            let epoch = r.u64_usize("recovery epoch")?;
            let kind = match r.u8()? {
                0 => RecoveryKind::NonFiniteLoss,
                1 => RecoveryKind::LossSpike,
                t => return Err(CheckpointError::Malformed(format!("bad recovery kind {t}"))),
            };
            let loss = r.f32()?;
            let restored_epoch = r.u64_usize("restored epoch")?;
            let lr_after = r.f32()?;
            recoveries.push(RecoveryEvent { epoch, kind, loss, restored_epoch, lr_after });
        }
        r.expect_end()?;
        Ok(Checkpoint {
            epoch,
            adam_steps,
            triplet_cursor,
            lr,
            best_epoch,
            best_val,
            params_state,
            best_params,
            epoch_losses,
            val_hr10,
            recoveries,
        })
    }

    /// Writes the checkpoint to `path` atomically and durably: encode
    /// to a unique per-process `.tmp` sibling, `fsync` it, rename over
    /// the target, and `fsync` the parent directory (unix), so neither
    /// a crash mid-write nor a crash immediately after the save can
    /// leave a truncated or zero-length checkpoint under the real name.
    /// Goes through [`crate::iofault::durable_write`], so fault plans
    /// installed with [`crate::with_fault_plan`] apply.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let t0 = traj_obs::enabled().then(std::time::Instant::now);
        let bytes = self.encode();
        let len = bytes.len();
        crate::iofault::durable_write(path, &bytes)?;
        if let Some(t0) = t0 {
            traj_obs::counter("ckpt.writes", 1);
            traj_obs::counter("ckpt.bytes_written", len as u64);
            traj_obs::observe_secs("ckpt.write_secs", t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`. Stale staging
    /// leftovers (`path.<pid>.<n>.tmp` from crashed writers) are
    /// cleaned up along the way — they are never read.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let t0 = traj_obs::enabled().then(std::time::Instant::now);
        crate::iofault::clean_stale_tmps(path);
        let bytes = std::fs::read(path)?;
        let decoded = Checkpoint::decode(&bytes);
        if let Some(t0) = t0 {
            traj_obs::counter("ckpt.reads", 1);
            traj_obs::counter("ckpt.bytes_read", bytes.len() as u64);
            traj_obs::observe_secs("ckpt.read_secs", t0.elapsed().as_secs_f64());
            if let Err(CheckpointError::ChecksumMismatch { .. }) = &decoded {
                traj_obs::counter("ckpt.checksum_failures", 1);
            }
        }
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch: 7,
            adam_steps: 4242,
            triplet_cursor: 999,
            lr: 5e-4,
            best_epoch: 5,
            best_val: Some(0.625),
            params_state: vec![1, 2, 3, 4, 5],
            best_params: vec![9, 8, 7],
            epoch_losses: vec![1.5, 0.9, f32::NAN, 0.7],
            val_hr10: vec![0.1, 0.4],
            recoveries: vec![RecoveryEvent {
                epoch: 2,
                kind: RecoveryKind::NonFiniteLoss,
                loss: f32::NAN,
                restored_epoch: 1,
                lr_after: 5e-4,
            }],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(d.epoch, 7);
        assert_eq!(d.adam_steps, 4242);
        assert_eq!(d.triplet_cursor, 999);
        assert_eq!(d.lr, 5e-4);
        assert_eq!(d.best_epoch, 5);
        assert_eq!(d.best_val, Some(0.625));
        assert_eq!(d.params_state, vec![1, 2, 3, 4, 5]);
        assert_eq!(d.best_params, vec![9, 8, 7]);
        assert_eq!(d.epoch_losses.len(), 4);
        assert!(d.epoch_losses[2].is_nan());
        assert_eq!(d.val_hr10, vec![0.1, 0.4]);
        assert_eq!(d.recoveries.len(), 1);
        assert_eq!(d.recoveries[0].kind, RecoveryKind::NonFiniteLoss);
        assert!(d.recoveries[0].loss.is_nan());
    }

    #[test]
    fn none_best_val_roundtrips() {
        let mut c = sample();
        c.best_val = None;
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(d.best_val, None);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/ISO-HDLC test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bit_flip_anywhere_in_payload_is_detected() {
        let blob = sample().encode();
        for byte in 24..blob.len() {
            let mut bad = blob.clone();
            bad[byte] ^= 0x40;
            match Checkpoint::decode(&bad) {
                Err(CheckpointError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at byte {byte} gave {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let blob = sample().encode();
        for keep in 0..blob.len() {
            assert!(
                Checkpoint::decode(&blob[..keep]).is_err(),
                "truncation to {keep} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let blob = sample().encode();
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(Checkpoint::decode(&bad), Err(CheckpointError::BadMagic)));
        let mut newer = blob.clone();
        newer[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&newer),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn file_roundtrip_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join("traj2hash_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        sample().write_to_file(&path).unwrap();
        let d = Checkpoint::read_from_file(&path).unwrap();
        assert_eq!(d.epoch, 7);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
