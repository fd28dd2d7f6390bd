//! Edge sinks: where a shard's stream of adjacency entries goes.
//!
//! The driver pushes entries in product row-major order (as produced by
//! `KronProduct::adjacency_entries_in_rows`); a sink persists or collects
//! them. Four implementations:
//!
//! * [`CountSink`] — statistics only, no artifact (generation-rate
//!   benchmarking and manifest-only validation runs);
//! * [`MemorySink`] — in-memory collector for tests and small products;
//! * [`EdgeListSink`] — buffered binary writer, fixed-width little-endian
//!   `u64` pairs (16 bytes per entry, no header);
//! * [`CsrSink`] — either on-disk CSR format (`csr` raw columns, `csr2`
//!   varint delta-encoded columns): the header goes first, columns stream
//!   through the format's codec, and a second handle trails behind filling
//!   in the offset table as each row closes — O(1) memory. See
//!   [`crate::csr`] for the layouts.
//!
//! File-backed sinks write to `<name>.tmp` and rename on
//! [`EdgeSink::finish`], so a crashed run never leaves a plausible-looking
//! partial artifact — resume logic treats a missing final file as "redo".

use crate::csr::{Codec, HEADER};
use crate::manifest::OutputFormat;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Destination of one shard's adjacency-entry stream.
pub trait EdgeSink {
    /// Accept one adjacency entry `(p, q)`; entries arrive in product
    /// row-major order.
    fn push(&mut self, p: u64, q: u64) -> io::Result<()>;

    /// Flush and durably finalize; returns `(file_name, bytes)` for
    /// file-backed sinks, `None` otherwise.
    fn finish(&mut self) -> io::Result<Option<(String, u64)>>;
}

/// Statistics-only sink: counts entries, persists nothing.
#[derive(Default)]
pub struct CountSink {
    /// Entries accepted so far.
    pub entries: u64,
}

impl EdgeSink for CountSink {
    fn push(&mut self, _p: u64, _q: u64) -> io::Result<()> {
        self.entries += 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        Ok(None)
    }
}

/// In-memory collector.
#[derive(Default)]
pub struct MemorySink {
    /// The collected entries, in arrival order.
    pub entries: Vec<(u64, u64)>,
}

impl EdgeSink for MemorySink {
    fn push(&mut self, p: u64, q: u64) -> io::Result<()> {
        self.entries.push((p, q));
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        Ok(None)
    }
}

/// Create `<dir>/<name>.tmp` for writing.
fn tmp_writer(dir: &Path, name: &str) -> io::Result<(PathBuf, BufWriter<File>)> {
    let tmp = dir.join(format!("{name}.tmp"));
    let file = File::create(&tmp)?;
    Ok((tmp, BufWriter::with_capacity(1 << 20, file)))
}

/// Rename `<name>.tmp` to `<name>` after flushing, returning final size.
fn commit(dir: &Path, name: &str, tmp: &Path, w: &mut BufWriter<File>) -> io::Result<u64> {
    w.flush()?;
    w.get_ref().sync_all()?;
    let final_path = dir.join(name);
    std::fs::rename(tmp, &final_path)?;
    Ok(std::fs::metadata(&final_path)?.len())
}

/// Buffered binary edge-list writer: each entry is 16 bytes, `p` then `q`,
/// both little-endian `u64`. No header; the manifest carries the counts.
pub struct EdgeListSink {
    dir: PathBuf,
    name: String,
    tmp: PathBuf,
    writer: BufWriter<File>,
    written: u64,
}

impl EdgeListSink {
    /// Open `<dir>/<name>.tmp` for streaming.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the artifact file.
    pub fn create(dir: &Path, name: &str) -> io::Result<Self> {
        let (tmp, writer) = tmp_writer(dir, name)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            tmp,
            writer,
            written: 0,
        })
    }
}

impl EdgeSink for EdgeListSink {
    fn push(&mut self, p: u64, q: u64) -> io::Result<()> {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&p.to_le_bytes());
        buf[8..].copy_from_slice(&q.to_le_bytes());
        self.writer.write_all(&buf)?;
        self.written += 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        let bytes = commit(&self.dir, &self.name, &self.tmp, &mut self.writer)?;
        debug_assert_eq!(bytes, self.written * 16);
        Ok(Some((self.name.clone(), bytes)))
    }
}

/// Streaming writer for both CSR shard formats (see [`crate::csr`]).
///
/// Construction writes the header — its totals come from the
/// *closed-form* row lengths (`rowlen_C(i·n_B + k) = rowlen_A(i)·rowlen_B(k)`,
/// no scan of the product needed) — and zero-fills the offset table. Each
/// pushed entry then appends its column to the main handle in the
/// format's encoding, while a **second** handle, parked at the offset
/// table, fills in the real offsets as each row closes. The row grouping
/// is validated against a second walk of the same closed-form length
/// iterator, so the writer holds **O(1) memory** regardless of shard
/// size. Columns within a row must arrive strictly ascending; the
/// generator's row-major sorted stream satisfies this by construction.
pub struct CsrSink<I: Iterator<Item = u64>> {
    dir: PathBuf,
    name: String,
    tmp: PathBuf,
    codec: Codec,
    /// Appends the column section past the offset table.
    writer: BufWriter<File>,
    /// Trails behind, overwriting the zero-filled offset table.
    offsets: BufWriter<File>,
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
    /// Entries written so far (must end at `nnz`).
    written: u64,
    /// Lengths of the rows after the current one (validation source).
    lengths: I,
    /// Row currently being filled (local index; meaningless when
    /// `num_rows == 0`).
    current_row: u64,
    /// Entries the current row still accepts.
    remaining: u64,
    /// Offset at which the current row ends so far (entries for v1,
    /// stream bytes for v2).
    offset: u64,
    /// Last column written to the current row, if any.
    prev_col: Option<u64>,
}

impl<I: Iterator<Item = u64> + Clone> CsrSink<I> {
    /// Write the header and a zeroed offset table for a shard in
    /// `format` (`csr` or `csr2`), and open the trailing offset handle.
    ///
    /// `vertex_lo` is the first product vertex of the shard; `row_lengths`
    /// yields the adjacency-row length of each vertex in the shard, in
    /// order. The iterator is walked twice (totals, streaming validation)
    /// — closed-form generators make each walk cheap, and no per-row
    /// state is ever buffered in memory.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a non-CSR `format` or row lengths summing past
    /// `u64`; any I/O error creating the artifact file.
    pub fn create(
        dir: &Path,
        name: &str,
        format: OutputFormat,
        vertex_lo: u64,
        row_lengths: I,
    ) -> io::Result<CsrSink<I>> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let codec = Codec::of(format)
            .ok_or_else(|| invalid(format!("{} is not a CSR format", format.as_str())))?;
        let (tmp, mut writer) = tmp_writer(dir, name)?;
        let (mut num_rows, mut nnz) = (0u64, 0u64);
        for len in row_lengths.clone() {
            num_rows += 1;
            nnz = nnz
                .checked_add(len)
                .ok_or_else(|| invalid("shard nnz > u64".into()))?;
        }
        writer.write_all(codec.magic())?;
        writer.write_all(&vertex_lo.to_le_bytes())?;
        writer.write_all(&num_rows.to_le_bytes())?;
        writer.write_all(&nnz.to_le_bytes())?;
        for _ in 0..=num_rows {
            writer.write_all(&0u64.to_le_bytes())?;
        }
        // The main handle must be fully flushed before the trailing
        // offset handle starts overwriting the table, or a late flush of
        // buffered zeros could clobber real offsets.
        writer.flush()?;
        let mut offsets_file = std::fs::OpenOptions::new().write(true).open(&tmp)?;
        offsets_file.seek(SeekFrom::Start(HEADER))?;
        let mut offsets = BufWriter::with_capacity(1 << 16, offsets_file);
        offsets.write_all(&0u64.to_le_bytes())?; // offsets[0]
        let mut lengths = row_lengths;
        let remaining = lengths.next().unwrap_or(0);
        Ok(CsrSink {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            tmp,
            codec,
            writer,
            offsets,
            vertex_lo,
            num_rows,
            nnz,
            written: 0,
            lengths,
            current_row: 0,
            remaining,
            offset: 0,
            prev_col: None,
        })
    }
}

impl<I: Iterator<Item = u64>> CsrSink<I> {
    /// Close the current row: its end offset goes to the table.
    fn close_row(&mut self) -> io::Result<()> {
        self.offsets.write_all(&self.offset.to_le_bytes())?;
        self.prev_col = None;
        self.current_row += 1;
        self.remaining = self.lengths.next().unwrap_or(0);
        Ok(())
    }
}

impl<I: Iterator<Item = u64>> EdgeSink for CsrSink<I> {
    fn push(&mut self, p: u64, q: u64) -> io::Result<()> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let local = p.checked_sub(self.vertex_lo).filter(|&l| l < self.num_rows);
        let local = local.ok_or_else(|| {
            invalid(format!(
                "vertex {p} outside shard starting at {}",
                self.vertex_lo
            ))
        })?;
        // advance over rows already complete (possibly empty rows)
        while self.current_row < local && self.remaining == 0 {
            self.close_row()?;
        }
        if local != self.current_row || self.remaining == 0 {
            return Err(invalid(format!(
                "entry for vertex {p} out of row-major order or exceeds its closed-form row length"
            )));
        }
        if let Some(prev) = self.prev_col.filter(|&prev| q <= prev) {
            return Err(invalid(format!(
                "columns of vertex {p} not strictly ascending ({q} after {prev}); \
                 CSR rows are sorted and csr2 stores gaps"
            )));
        }
        self.offset += self.codec.write_col(q, self.prev_col, &mut self.writer)?;
        self.prev_col = Some(q);
        self.remaining -= 1;
        self.written += 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        if self.written != self.nnz {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "CSR shard incomplete: wrote {} of {} entries",
                    self.written, self.nnz
                ),
            ));
        }
        // close every remaining row (all empty once nnz entries landed)
        while self.current_row < self.num_rows {
            self.close_row()?;
        }
        // Both handles are flushed before either syncs, so the first sync
        // makes the whole file durable and the second finds nothing left.
        self.offsets.flush()?;
        self.writer.flush()?;
        self.offsets.get_ref().sync_all()?;
        let bytes = commit(&self.dir, &self.name, &self.tmp, &mut self.writer)?;
        debug_assert_eq!(
            Some(bytes),
            self.codec.file_size(self.num_rows, self.offset)
        );
        Ok(Some((self.name.clone(), bytes)))
    }
}
