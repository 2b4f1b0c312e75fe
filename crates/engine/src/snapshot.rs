//! Engine snapshots: serialize the *served* state — model parameters,
//! corpus, embeddings, codes, and index configuration — so a restart
//! cold-starts without re-encoding a single trajectory (only the index
//! structures, which build in O(n), are reconstructed).
//!
//! Reuses the checkpoint container (`magic`, version, length, CRC-32)
//! from `traj2hash::checkpoint`, with its own magic so checkpoints and
//! snapshots can never be confused for one another: a checkpoint fed to
//! the snapshot loader (or vice versa) fails with `BadMagic`.
//!
//! ## Payload layout (version 1, all little-endian)
//!
//! ```text
//! model:  dim, blocks, heads, grid_dim (u64 each), readout (u8),
//!         use_grids (u8), use_rev_aug (u8), fine_cell_m (f64),
//!         norm mean_x/mean_y/std_x/std_y (f64), beta (f32),
//!         grid tag (u8) [+ bbox 4xf64, cell_size f64, emb dim/nx/ny
//!         u64, ex f32s, ey f32s], parameter blob (len-prefixed)
//! engine: mih_tables (u64), euclidean backend (u8), encode_threads,
//!         rebuild_slack (u64), delta/dead fractions (f64), next_id
//! corpus: entry count (u64); per live entry: id (u64), points
//!         (u64 count + f64 x/y pairs), embedding (f32s), code
//!         (u64 bits, u64 word count, u64 words)
//! ```
//!
//! Tombstoned entries are dropped at save time, so a loaded engine is
//! always compacted; stable ids and `next_id` are preserved, so
//! insert/remove sequences continue seamlessly across a reload.

use crate::engine::{EngineConfig, EuclideanBackend};
use crate::error::EngineError;
use crate::shard::Rows;
use std::sync::Arc;
use traj2hash::checkpoint::{
    decode_container, encode_container, PayloadReader, PayloadWriter,
};
use traj2hash::{CheckpointError, ModelConfig, ModelSpec, Readout, Traj2Hash};
use traj_data::{BoundingBox, Point, Trajectory};
use traj_grid::{DecomposedGridEmbedding, GridEmbedding, GridSpec};
use traj_index::BinaryCode;

/// Magic prefix of every engine snapshot file.
pub const MAGIC: &[u8; 8] = b"T2HSNAP1";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

fn malformed(msg: impl Into<String>) -> EngineError {
    EngineError::Snapshot(CheckpointError::Malformed(msg.into()))
}

fn write_f32s(w: &mut PayloadWriter, v: &[f32]) {
    w.u64(v.len() as u64);
    for &x in v {
        w.f32(x);
    }
}

fn read_f32s(r: &mut PayloadReader) -> Result<Vec<f32>, CheckpointError> {
    let n = r.len_prefix(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f32()?);
    }
    Ok(out)
}

/// Everything the snapshot format serializes, borrowed. The engine
/// flattens its shards into this view, so the byte layout (`T2HSNAP1`)
/// is shard-layout-free and loads under any shard count. Entries are
/// live rows as `(block, row)`, in ascending-id order (the engine
/// re-sorts its interleaved shards before saving).
pub(crate) struct SnapshotView<'a> {
    pub model: &'a Traj2Hash,
    pub cfg: &'a EngineConfig,
    pub entries: Vec<(&'a Rows, usize)>,
    pub next_id: u64,
}

/// A fully decoded snapshot, owned: the corpus section lands straight
/// in one [`Rows`] block. The shard layout is *not* serialized — the
/// engine redistributes rows by id on load.
pub(crate) struct DecodedSnapshot {
    pub model: Traj2Hash,
    pub cfg: EngineConfig,
    pub rows: Rows,
    pub next_id: u64,
}

pub(crate) fn encode_view(view: &SnapshotView<'_>) -> Result<Vec<u8>, EngineError> {
    let (model, cfg, next_id) = (view.model, view.cfg, view.next_id);
    let spec = model.spec();
    let mut w = PayloadWriter::new();

    // Model section.
    let mc = &spec.cfg;
    w.u64(mc.dim as u64);
    w.u64(mc.blocks as u64);
    w.u64(mc.heads as u64);
    w.u64(mc.grid_dim as u64);
    w.u8(match mc.readout {
        Readout::LowerBound => 0,
        Readout::Mean => 1,
        Readout::Cls => 2,
    });
    w.u8(u8::from(mc.use_grids));
    w.u8(u8::from(mc.use_rev_aug));
    w.f64(mc.fine_cell_m);
    w.f64(spec.norm.mean_x);
    w.f64(spec.norm.mean_y);
    w.f64(spec.norm.std_x);
    w.f64(spec.norm.std_y);
    w.f32(spec.beta);
    match &spec.grid {
        Some((gspec, emb)) => {
            let dec = emb.as_decomposed().ok_or_else(|| {
                EngineError::SnapshotUnsupported(
                    "grid channel uses a non-decomposed embedding (e.g. Node2vec); \
                     only decomposed per-axis tables serialize"
                        .into(),
                )
            })?;
            w.u8(1);
            let bb = gspec.bbox();
            w.f64(bb.min_x);
            w.f64(bb.min_y);
            w.f64(bb.max_x);
            w.f64(bb.max_y);
            w.f64(gspec.cell_size());
            let (dim, nx, ny, ex, ey) = dec.raw_parts();
            w.u64(dim as u64);
            w.u64(nx as u64);
            w.u64(ny as u64);
            write_f32s(&mut w, ex);
            write_f32s(&mut w, ey);
        }
        None => w.u8(0),
    }
    w.bytes(&model.save_bytes());

    // Engine section.
    w.u64(cfg.mih_tables as u64);
    w.u8(match cfg.euclidean_backend {
        EuclideanBackend::BruteForce => 0,
        EuclideanBackend::VpTree => 1,
    });
    w.u64(cfg.encode_threads as u64);
    w.u64(cfg.rebuild_slack as u64);
    w.f64(cfg.max_delta_fraction);
    w.f64(cfg.max_dead_fraction);
    w.u64(next_id);

    // Corpus section: live entries only, in ascending-id order.
    w.u64(view.entries.len() as u64);
    for &(rows, i) in &view.entries {
        w.u64(rows.ids()[i]);
        w.u64(rows.traj(i).points.len() as u64);
        for p in &rows.traj(i).points {
            w.f64(p.x);
            w.f64(p.y);
        }
        write_f32s(&mut w, rows.embeddings().row(i));
        let words = rows.codes().words(i);
        w.u64(rows.codes().bits() as u64);
        w.u64(words.len() as u64);
        for &word in words {
            w.u64(word);
        }
    }
    Ok(encode_container(MAGIC, VERSION, &w.into_payload()))
}

pub(crate) fn decode_parts(bytes: &[u8]) -> Result<DecodedSnapshot, EngineError> {
    let (_, payload) = decode_container(bytes, MAGIC, VERSION)?;
    let mut r = PayloadReader::new(payload);

    // Model section.
    let dim = r.u64_usize("model dim")?;
    let blocks = r.u64_usize("block count")?;
    let heads = r.u64_usize("head count")?;
    let grid_dim = r.u64_usize("grid dim")?;
    let readout = match r.u8()? {
        0 => Readout::LowerBound,
        1 => Readout::Mean,
        2 => Readout::Cls,
        t => return Err(malformed(format!("bad readout tag {t}"))),
    };
    let use_grids = read_bool(&mut r, "use_grids")?;
    let use_rev_aug = read_bool(&mut r, "use_rev_aug")?;
    let fine_cell_m = r.f64()?;
    let cfg = ModelConfig { dim, blocks, heads, grid_dim, readout, use_grids, use_rev_aug, fine_cell_m };
    let norm = traj_data::NormStats {
        mean_x: r.f64()?,
        mean_y: r.f64()?,
        std_x: r.f64()?,
        std_y: r.f64()?,
    };
    let beta = r.f32()?;
    let grid_tag = r.u8()?;
    let grid = match grid_tag {
        0 => None,
        1 => {
            let bbox = BoundingBox {
                min_x: r.f64()?,
                min_y: r.f64()?,
                max_x: r.f64()?,
                max_y: r.f64()?,
            };
            let cell_size = r.f64()?;
            if !cell_size.is_finite() || cell_size <= 0.0 {
                return Err(malformed(format!("bad grid cell size {cell_size}")));
            }
            let edim = r.u64_usize("grid embedding dim")?;
            let nx = r.u64_usize("grid nx")?;
            let ny = r.u64_usize("grid ny")?;
            let ex = read_f32s(&mut r)?;
            let ey = read_f32s(&mut r)?;
            let emb = DecomposedGridEmbedding::from_raw_parts(edim, nx, ny, ex, ey)
                .map_err(malformed)?;
            let gspec = GridSpec::new(bbox, cell_size);
            if gspec.nx() != nx || gspec.ny() != ny {
                return Err(malformed(format!(
                    "grid spec derives {}x{} cells but tables cover {nx}x{ny}",
                    gspec.nx(),
                    gspec.ny()
                )));
            }
            let emb: Arc<dyn GridEmbedding + Send + Sync> = Arc::new(emb);
            Some((gspec, emb))
        }
        t => return Err(malformed(format!("bad grid tag {t}"))),
    };
    if use_grids != grid.is_some() {
        return Err(malformed("grid presence disagrees with use_grids"));
    }
    let params_blob = r.blob()?;
    let spec = ModelSpec { cfg, norm, grid, beta };
    let model = Traj2Hash::from_spec_bytes(&spec, &params_blob).map_err(malformed)?;

    // Engine section.
    let engine_cfg = EngineConfig {
        mih_tables: r.u64_usize("mih tables")?,
        euclidean_backend: match r.u8()? {
            0 => EuclideanBackend::BruteForce,
            1 => EuclideanBackend::VpTree,
            t => return Err(malformed(format!("bad euclidean backend tag {t}"))),
        },
        encode_threads: r.u64_usize("encode threads")?,
        rebuild_slack: r.u64_usize("rebuild slack")?,
        max_delta_fraction: r.f64()?,
        max_dead_fraction: r.f64()?,
    };
    let next_id = r.u64()?;

    // Corpus section.
    let n = r.len_prefix(8 * 4)?;
    let mut rows = Rows::default();
    for e in 0..n {
        let id = r.u64()?;
        if let Some(&prev) = rows.ids().last() {
            if id <= prev {
                return Err(malformed(format!("entry {e}: id {id} not ascending after {prev}")));
            }
        }
        if id >= next_id {
            return Err(malformed(format!("entry {e}: id {id} >= next_id {next_id}")));
        }
        let np = r.len_prefix(16)?;
        let mut points = Vec::with_capacity(np);
        for _ in 0..np {
            points.push(Point {
                x: r.f64()?,
                y: r.f64()?,
            });
        }
        let embedding = read_f32s(&mut r)?;
        if embedding.len() != dim {
            return Err(malformed(format!(
                "entry {e}: embedding width {} != model dim {dim}",
                embedding.len()
            )));
        }
        let bits = r.u64_usize("code width")?;
        if bits != dim {
            return Err(malformed(format!("entry {e}: code width {bits} != model dim {dim}")));
        }
        let nw = r.len_prefix(8)?;
        let mut words = Vec::with_capacity(nw);
        for _ in 0..nw {
            words.push(r.u64()?);
        }
        let code = BinaryCode::from_words(words, bits).map_err(malformed)?;
        rows.push(id, Trajectory { points }, &embedding, &code)?;
    }
    r.expect_end()?;
    Ok(DecodedSnapshot { model, cfg: engine_cfg, rows, next_id })
}

fn read_bool(r: &mut PayloadReader, what: &str) -> Result<bool, EngineError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(malformed(format!("bad bool tag {t} for {what}"))),
    }
}
