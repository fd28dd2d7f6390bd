//! The on-disk CSR shard formats and the one reader that maps both.
//!
//! Both formats share one layout, all integers little-endian `u64`:
//!
//! ```text
//! offset  size            field
//! 0       8               magic     — b"KRONCSR1" (v1, `csr`) or b"KRONCSR2" (v2, `csr2`)
//! 8       8               vertex_lo — first product vertex of the shard
//! 16      8               num_rows  — product vertices covered
//! 24      8               nnz       — adjacency entries in the shard
//! 32      8·(num_rows+1)  offsets   — local prefix sums, offsets[0] = 0
//! ...                     columns   — column (neighbor) vertex ids
//! ```
//!
//! Row `r` (product vertex `vertex_lo + r`) owns the column section
//! between `offsets[r]` and `offsets[r+1]`, sorted strictly ascending.
//! Only the column section differs by format:
//!
//! * **v1** stores every column as a raw `u64` and its offsets count
//!   entries. The header starts every section at an 8-byte boundary, so
//!   a page-aligned mapping exposes each row as a `&[u64]` without
//!   copying.
//! * **v2** stores each row as LEB128 varints — the first column
//!   absolute, every later one as the gap to its predecessor — and its
//!   offsets count bytes. Gaps are small, so most columns take 1–2 bytes
//!   instead of 8. This is also the `GET /row` wire encoding (`enc=vd`).
//!
//! [`CsrMap`] opens either format, checking the header and offset table
//! once, and serves rows as [`RowRef`]s; [`crate::CsrSink`] writes
//! either. A private codec is the one place that knows a format's magic,
//! what its offsets count, and how its columns are written and read.
//! v1 stays readable forever.

use crate::manifest::OutputFormat;
use crate::mmap::{as_u64s, Mmap};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic of the v1 format, also the format version.
pub const MAGIC: &[u8; 8] = b"KRONCSR1";

/// File magic of the varint delta-encoded v2 format.
pub const MAGIC2: &[u8; 8] = b"KRONCSR2";

/// Header size in bytes.
pub const HEADER: u64 = 32;

/// Exact file size of a v1 shard with the given dimensions, or `None` if
/// the dimensions are corrupt enough to overflow (an attacker- or
/// corruption-supplied header must not panic the reader).
pub fn file_size_checked(num_rows: u64, nnz: u64) -> Option<u64> {
    Codec::V1.file_size(num_rows, nnz)
}

/// Encode `x` as an LEB128 varint (7 value bits per byte, high bit set
/// on every byte but the last) into `buf`, returning the encoded length
/// — at most 10 bytes for a `u64`. This is the one varint encoder: the
/// csr2 writer and the `enc=vd` row encoding both go through it.
#[inline]
pub fn varint_encode(mut x: u64, buf: &mut [u8; 10]) -> usize {
    let mut len = 0;
    while x >= 0x80 {
        buf[len] = (x as u8 & 0x7f) | 0x80;
        len += 1;
        x >>= 7;
    }
    buf[len] = x as u8;
    len + 1
}

/// Append `x` to `out` as an LEB128 varint (see [`varint_encode`]).
#[inline]
pub fn varint_push(x: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 10];
    let len = varint_encode(x, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Decode one LEB128 varint starting at `bytes[*pos]`, advancing `pos`
/// past it. `None` if the buffer ends mid-varint or the value overflows
/// a `u64` — corrupt input degrades to a short row, never a panic.
#[inline]
pub fn varint_read(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return None; // would overflow the 64th bit
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Decode the next column of a vd-encoded row at `bytes[*pos]`, given
/// the row's previous column. `None` at the end of `bytes` and on
/// corruption: a truncated or overflowing varint, a zero gap (a repeated
/// column), or a gap that overflows a `u64`.
#[inline]
fn vd_next(bytes: &[u8], pos: &mut usize, prev: Option<u64>) -> Option<u64> {
    let delta = varint_read(bytes, pos)?;
    match prev {
        None => Some(delta),
        Some(prev) => prev.checked_add(delta).filter(|_| delta > 0),
    }
}

/// Encode a sorted row as the v2 column stream bytes: first column
/// absolute, every later column as the gap to its predecessor. This is
/// also the `GET /row` wire encoding (`enc=vd`).
pub fn encode_row_vd(row: &[u64], out: &mut Vec<u8>) {
    let mut prev = 0;
    for &q in row {
        varint_push(q - prev, out);
        prev = q;
    }
}

/// Decode a v2 column stream back into columns. `false` if the bytes
/// are malformed (truncated varint, a zero gap after the first column —
/// a repeated column — or an overflowing delta): the columns decoded
/// before the fault are kept, so corrupt input yields a deterministic
/// short row for checksums to flag, never a panic.
pub fn decode_row_vd(bytes: &[u8], out: &mut Vec<u64>) -> bool {
    let (mut pos, mut prev) = (0, None);
    while pos < bytes.len() {
        let Some(q) = vd_next(bytes, &mut pos, prev) else {
            return false;
        };
        out.push(q);
        prev = Some(q);
    }
    true
}

/// What distinguishes the two shard formats: the magic, what an offset
/// counts, and how a column is written and read. Everything else — the
/// header, the offset table, row grouping — is shared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Codec {
    /// `csr`: raw `u64` columns; offsets count entries.
    V1,
    /// `csr2`: varint delta-encoded columns; offsets count bytes.
    V2,
}

impl Codec {
    /// The codec of a CSR output format; `None` for non-CSR formats.
    pub(crate) fn of(format: OutputFormat) -> Option<Codec> {
        match format {
            OutputFormat::Csr => Some(Codec::V1),
            OutputFormat::Csr2 => Some(Codec::V2),
            OutputFormat::Edges | OutputFormat::Count => None,
        }
    }

    fn format(self) -> OutputFormat {
        match self {
            Codec::V1 => OutputFormat::Csr,
            Codec::V2 => OutputFormat::Csr2,
        }
    }

    pub(crate) fn magic(self) -> &'static [u8; 8] {
        match self {
            Codec::V1 => MAGIC,
            Codec::V2 => MAGIC2,
        }
    }

    /// Column-section bytes per offset unit: an offset counts entries
    /// (8 bytes each) in v1 and bytes in v2.
    fn unit(self) -> u64 {
        match self {
            Codec::V1 => 8,
            Codec::V2 => 1,
        }
    }

    /// Exact file size of a shard whose offset table ends at `end`, with
    /// overflow checks; the only size computation for either format.
    pub(crate) fn file_size(self, num_rows: u64, end: u64) -> Option<u64> {
        let table = num_rows.checked_add(1)?.checked_mul(8)?;
        HEADER
            .checked_add(table)?
            .checked_add(end.checked_mul(self.unit())?)
    }

    /// The size rule on the offset table's end: v1 offsets count
    /// entries, so the table must end at exactly `nnz`; a v2 entry takes
    /// at least one stream byte, so the stream must hold `nnz` bytes.
    fn check_end(self, end: u64, nnz: u64) -> Result<(), String> {
        match self {
            Codec::V1 if end != nnz => Err(format!(
                "offset array ends at {end}, header says {nnz} entries"
            )),
            Codec::V2 if end < nnz => Err(format!(
                "{end}-byte column stream cannot hold {nnz} entries"
            )),
            _ => Ok(()),
        }
    }

    /// Write column `q` of a row, `prev` being the row's previous
    /// column, and return how far it advances the row's offset.
    #[inline]
    pub(crate) fn write_col(
        self,
        q: u64,
        prev: Option<u64>,
        w: &mut impl Write,
    ) -> io::Result<u64> {
        match self {
            Codec::V1 => {
                w.write_all(&q.to_le_bytes())?;
                Ok(1)
            }
            Codec::V2 => {
                let mut buf = [0u8; 10];
                let len = varint_encode(q - prev.unwrap_or(0), &mut buf);
                w.write_all(&buf[..len])?;
                Ok(len as u64)
            }
        }
    }

    /// Iterate the columns of a row's bytes without allocating. A v2 row
    /// that does not decode ends at its decoded prefix.
    #[inline]
    fn cols(self, row: &[u8]) -> Cols<'_> {
        match self {
            Codec::V1 => Cols::V1(as_u64s(row).iter()),
            Codec::V2 => Cols::V2 {
                row,
                pos: 0,
                prev: None,
            },
        }
    }

    /// A row's columns from its bytes — zero-copy for v1, decoded for
    /// v2 — and whether they decoded cleanly. A v2 row that does not
    /// decode arrives as its decoded prefix.
    #[inline]
    fn decode(self, row: &[u8]) -> (RowRef<'_>, bool) {
        match self {
            Codec::V1 => (RowRef::Mapped(as_u64s(row)), true),
            Codec::V2 => {
                let mut cols = Vec::new();
                let ok = decode_row_vd(row, &mut cols);
                (RowRef::Decoded(cols), ok)
            }
        }
    }
}

/// The columns of one row, read in place (see `Codec::cols`).
enum Cols<'a> {
    V1(std::slice::Iter<'a, u64>),
    V2 {
        row: &'a [u8],
        pos: usize,
        prev: Option<u64>,
    },
}

impl Iterator for Cols<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match self {
            Cols::V1(cols) => cols.next().copied(),
            Cols::V2 { row, pos, prev } => {
                *prev = Some(vd_next(row, pos, *prev)?);
                *prev
            }
        }
    }
}

/// A borrowed-or-decoded adjacency row, `Deref`ing to `&[u64]`.
///
/// v1 rows are zero-copy slices of the mapping; v2 rows are decoded into
/// an owned buffer. Every kernel above the reader is generic over
/// `Deref<Target = [u64]>`, so both travel the same paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowRef<'a> {
    /// A zero-copy slice into a v1 mapping.
    Mapped(&'a [u64]),
    /// A row decoded out of a v2 column stream.
    Decoded(Vec<u64>),
}

impl RowRef<'_> {
    /// The row as a plain slice.
    pub fn as_slice(&self) -> &[u64] {
        self
    }
}

impl std::ops::Deref for RowRef<'_> {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            RowRef::Mapped(s) => s,
            RowRef::Decoded(v) => v,
        }
    }
}

impl From<RowRef<'_>> for Arc<[u64]> {
    fn from(row: RowRef<'_>) -> Arc<[u64]> {
        match row {
            RowRef::Mapped(s) => s.into(),
            RowRef::Decoded(v) => v.into(),
        }
    }
}

impl From<RowRef<'_>> for Vec<u64> {
    fn from(row: RowRef<'_>) -> Vec<u64> {
        match row {
            RowRef::Mapped(s) => s.to_vec(),
            RowRef::Decoded(v) => v,
        }
    }
}

/// A mapped, validated CSR shard of either on-disk format.
///
/// Opening checks the header and offset table once; row access is then
/// slicing into the mapping, plus decoding for v2. Readers above this
/// type ([`crate::ShardSet`], the serving engine) see one
/// [`RowRef`]-returning row API and never branch on the format. Content
/// integrity (row lengths, sortedness, checksums) is the job of
/// `verify-shards` and checksum-verified opens.
pub struct CsrMap {
    map: Mmap,
    codec: Codec,
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
}

impl CsrMap {
    /// Map and validate a CSR shard file of either format, picking the
    /// codec from its magic.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an unrecognized magic, a header whose vertex
    /// range or size arithmetic overflows, an offset table that does not
    /// start at 0 or is not monotone, or a file size that contradicts the
    /// header and offsets (see [`crate::csr`]); any I/O error from
    /// opening or mapping the file.
    pub fn open(path: &Path) -> io::Result<CsrMap> {
        let map = Mmap::map_readonly(&File::open(path)?)?;
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        let codec = [Codec::V1, Codec::V2]
            .into_iter()
            .find(|c| map.get(..8) == Some(&c.magic()[..]))
            .ok_or_else(|| bad("bad magic (not a KRONCSR1 or KRONCSR2 file)".into()))?;
        if map.len() < HEADER as usize {
            return Err(bad("truncated header".into()));
        }
        let word = |i: usize| u64::from_le_bytes(map[8 * i..8 * i + 8].try_into().unwrap());
        let (vertex_lo, num_rows, nnz) = (word(1), word(2), word(3));
        let len = map.len() as u64;
        let table_end = codec
            .file_size(num_rows, 0)
            .filter(|_| vertex_lo.checked_add(num_rows).is_some())
            .ok_or_else(|| {
                bad(format!(
                    "header dimensions overflow ({num_rows} rows from vertex {vertex_lo})"
                ))
            })?;
        if len < table_end {
            return Err(bad(format!(
                "file is {len} bytes, too short for {num_rows} row offsets"
            )));
        }
        let shard = CsrMap {
            map,
            codec,
            vertex_lo,
            num_rows,
            nnz,
        };
        let offsets = shard.offsets();
        if offsets[0] != 0 {
            return Err(bad("offset array does not start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("offsets not monotone".into()));
        }
        let end = offsets[num_rows as usize];
        codec.check_end(end, nnz).map_err(bad)?;
        match codec.file_size(num_rows, end) {
            Some(expect) if expect == len => Ok(shard),
            Some(expect) => Err(bad(format!("file is {len} bytes, header implies {expect}"))),
            None => Err(bad(format!(
                "offset array overflows ({num_rows} rows, ending at {end})"
            ))),
        }
    }

    /// Whether this shard is the v2 (varint delta-encoded) format.
    pub fn is_v2(&self) -> bool {
        self.codec == Codec::V2
    }

    /// The shard's output format, `csr` or `csr2`, as its magic says.
    pub(crate) fn format(&self) -> OutputFormat {
        self.codec.format()
    }

    /// Size of the mapped file in bytes.
    pub(crate) fn file_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// First product vertex of the shard.
    pub fn vertex_lo(&self) -> u64 {
        self.vertex_lo
    }

    /// Product vertices covered.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Adjacency entries stored.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The offset table (`num_rows + 1` entries), zero-copy: entry
    /// counts for v1, byte positions into the column stream for v2.
    pub fn offsets(&self) -> &[u64] {
        let start = HEADER as usize;
        as_u64s(&self.map[start..start + 8 * (self.num_rows as usize + 1)])
    }

    /// The column section: raw `u64`s for v1, the varint stream for v2.
    fn cols(&self) -> &[u8] {
        &self.map[HEADER as usize + 8 * (self.num_rows as usize + 1)..]
    }

    /// The column bytes of product vertex `p`'s row, or `None` if `p` is
    /// outside the shard.
    fn row_slice(&self, p: u64) -> Option<&[u8]> {
        let r = p
            .checked_sub(self.vertex_lo)
            .filter(|&l| l < self.num_rows)? as usize;
        let (offsets, unit) = (self.offsets(), self.codec.unit() as usize);
        Some(&self.cols()[offsets[r] as usize * unit..offsets[r + 1] as usize * unit])
    }

    /// Every row's product vertex and column bytes, in vertex order.
    fn row_slices(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let (cols, unit) = (self.cols(), self.codec.unit() as usize);
        let vertices = self.vertex_lo..self.vertex_lo + self.num_rows;
        (self.offsets().windows(2).zip(vertices))
            .map(move |(w, p)| (p, &cols[w[0] as usize * unit..w[1] as usize * unit]))
    }

    /// The adjacency row of product vertex `p`, or `None` if `p` is
    /// outside the shard or its v2 bytes do not decode (see
    /// [`decode_row_vd`]) — a corrupt row is never served as a short
    /// one. A zero-copy slice of the mapping for v1.
    pub fn row(&self, p: u64) -> Option<RowRef<'_>> {
        let (row, ok) = self.codec.decode(self.row_slice(p)?);
        ok.then_some(row)
    }

    /// `p`'s row in the `enc=vd` wire encoding, zero-copy, if this shard
    /// already stores it that way (v2 only — a v1 caller re-encodes).
    pub fn row_bytes_vd(&self, p: u64) -> Option<&[u8]> {
        self.is_v2().then(|| self.row_slice(p)).flatten()
    }

    /// Iterate `(p, row)` pairs in ascending vertex order, one per
    /// covered product vertex, empty rows included — the shard-ordered
    /// traversal whole-graph kernels stream over. v1 rows are zero-copy;
    /// a v2 row whose bytes do not decode arrives as its decoded prefix,
    /// which verification's per-row length check rejects.
    pub fn rows(&self) -> impl Iterator<Item = (u64, RowRef<'_>)> + '_ {
        self.row_slices()
            .map(|(p, row)| (p, self.codec.decode(row).0))
    }

    /// Iterate all `(p, q)` entries in row-major order, decoding in
    /// place without allocating. A v2 row that does not decode ends at
    /// its decoded prefix.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.row_slices()
            .flat_map(|(p, row)| self.codec.cols(row).map(move |q| (p, q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CsrSink, EdgeSink};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kron_csr_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_mmap_roundtrip_bit_exact() {
        let dir = tmpdir("roundtrip");
        // rows: vertex 10: [3, 7]; vertex 11: []; vertex 12: [0]
        let lens = vec![2u64, 0, 1];
        let mut sink =
            CsrSink::create(&dir, "s.csr", OutputFormat::Csr, 10, lens.into_iter()).unwrap();
        sink.push(10, 3).unwrap();
        sink.push(10, 7).unwrap();
        sink.push(12, 0).unwrap();
        let (name, bytes) = sink.finish().unwrap().unwrap();
        assert_eq!(name, "s.csr");
        assert_eq!(Some(bytes), file_size_checked(3, 3));
        let r = CsrMap::open(&dir.join("s.csr")).unwrap();
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.row(10).unwrap(), RowRef::Mapped(&[3, 7]));
        assert_eq!(r.row(11).unwrap(), RowRef::Mapped(&[]));
        assert_eq!(r.row(12).unwrap(), RowRef::Mapped(&[0]));
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        assert_eq!(
            r.entries().collect::<Vec<_>>(),
            vec![(10, 3), (10, 7), (12, 0)]
        );
        let rows: Vec<(u64, Vec<u64>)> = r.rows().map(|(p, row)| (p, row.to_vec())).collect();
        assert_eq!(
            rows,
            vec![(10, vec![3, 7]), (11, vec![]), (12, vec![0])],
            "rows() must visit every vertex in order, empty rows included"
        );
    }

    #[test]
    fn csr_sink_rejects_out_of_order_and_overflow() {
        let dir = tmpdir("order");
        let mut sink = CsrSink::create(
            &dir,
            "bad.csr",
            OutputFormat::Csr,
            0,
            vec![1u64, 1].into_iter(),
        )
        .unwrap();
        assert!(
            sink.push(1, 5).is_err(),
            "row 1 before row 0 is filled must fail"
        );
        let mut sink1 = CsrSink::create(
            &dir,
            "bad1.csr",
            OutputFormat::Csr,
            0,
            vec![1u64, 1].into_iter(),
        )
        .unwrap();
        sink1.push(0, 5).unwrap();
        sink1.push(1, 6).unwrap();
        assert!(sink1.push(0, 7).is_err(), "going back a row must fail");
        assert!(sink1.push(2, 7).is_err(), "vertex outside shard must fail");
        let mut sink2 = CsrSink::create(
            &dir,
            "bad2.csr",
            OutputFormat::Csr,
            0,
            vec![1u64].into_iter(),
        )
        .unwrap();
        sink2.push(0, 1).unwrap();
        assert!(sink2.push(0, 2).is_err(), "row overflow must fail");
        let mut unsorted = CsrSink::create(
            &dir,
            "bad4.csr",
            OutputFormat::Csr,
            0,
            vec![2u64].into_iter(),
        )
        .unwrap();
        unsorted.push(0, 5).unwrap();
        assert!(unsorted.push(0, 4).is_err(), "rows are strictly ascending");
        let mut sink3 = CsrSink::create(
            &dir,
            "bad3.csr",
            OutputFormat::Csr,
            0,
            vec![2u64].into_iter(),
        )
        .unwrap();
        sink3.push(0, 1).unwrap();
        assert!(sink3.finish().is_err(), "underfull finish must fail");
        // failed sinks leave only .tmp files behind
        assert!(!dir.join("bad.csr").exists());
        assert!(!dir.join("bad3.csr").exists());
    }

    #[test]
    fn reader_rejects_overflowing_header_without_panicking() {
        // 40-byte file whose header claims 2^61−1 rows: the naive size
        // computation 8·(rows+1) wraps; open must return an error.
        let dir = tmpdir("overflow");
        let path = dir.join("evil.csr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // vertex_lo
        bytes.extend_from_slice(&((1u64 << 61) - 1).to_le_bytes()); // num_rows
        bytes.extend_from_slice(&1u64.to_le_bytes()); // nnz
        bytes.extend_from_slice(&0u64.to_le_bytes()); // filler
        std::fs::write(&path, &bytes).unwrap();
        let err = match CsrMap::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("overflowing header must not open"),
        };
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(file_size_checked(u64::MAX, 1), None);
    }

    #[test]
    fn varint_roundtrips_and_rejects_malformed() {
        let samples = [
            0u64,
            1,
            0x7f,
            0x80,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &x in &samples {
            varint_push(x, &mut buf);
        }
        let mut pos = 0;
        for &x in &samples {
            assert_eq!(varint_read(&buf, &mut pos), Some(x));
        }
        assert_eq!(pos, buf.len());
        // truncated mid-varint
        let mut long = Vec::new();
        varint_push(u64::MAX, &mut long);
        let mut pos = 0;
        assert_eq!(varint_read(&long[..long.len() - 1], &mut pos), None);
        // 10 continuation bytes overflow a u64
        let mut pos = 0;
        assert_eq!(varint_read(&[0xff; 11], &mut pos), None);
        // a 10th byte above 1 overflows the 64th bit
        let mut evil = vec![0x80u8; 9];
        evil.push(0x02);
        let mut pos = 0;
        assert_eq!(varint_read(&evil, &mut pos), None);
    }

    #[test]
    fn row_vd_codec_roundtrips() {
        for row in [
            vec![],
            vec![0u64],
            vec![3, 7],
            vec![0, 1, 2, 3, 1_000_000],
            vec![5, 500, u64::MAX],
        ] {
            let mut bytes = Vec::new();
            encode_row_vd(&row, &mut bytes);
            let mut back = Vec::new();
            assert!(decode_row_vd(&bytes, &mut back));
            assert_eq!(back, row);
        }
        // truncated stream decodes the prefix and reports malformed
        let mut bytes = Vec::new();
        encode_row_vd(&[1, 300], &mut bytes);
        let mut back = Vec::new();
        assert!(!decode_row_vd(&bytes[..bytes.len() - 1], &mut back));
        assert_eq!(back, vec![1]);
    }

    #[test]
    fn csr2_write_then_read_roundtrip() {
        let dir = tmpdir("v2_roundtrip");
        // rows: vertex 10: [3, 7]; vertex 11: []; vertex 12: [0]
        let lens = vec![2u64, 0, 1];
        let mut sink =
            CsrSink::create(&dir, "s.csr2", OutputFormat::Csr2, 10, lens.into_iter()).unwrap();
        sink.push(10, 3).unwrap();
        sink.push(10, 7).unwrap();
        sink.push(12, 0).unwrap();
        let (name, bytes) = sink.finish().unwrap().unwrap();
        assert_eq!(name, "s.csr2");
        // stream: row 10 = varint(3), varint(4); row 12 = varint(0) → 3 bytes
        assert_eq!(bytes, HEADER + 8 * 4 + 3);
        let r = CsrMap::open(&dir.join("s.csr2")).unwrap();
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.offsets(), &[0, 2, 2, 3]);
        assert_eq!(r.row(10).unwrap(), RowRef::Decoded(vec![3, 7]));
        assert_eq!(r.row(11).unwrap(), RowRef::Decoded(vec![]));
        assert_eq!(r.row(12).unwrap(), RowRef::Decoded(vec![0]));
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        assert_eq!(r.row_bytes_vd(10).unwrap(), &[3u8, 4]);
        assert_eq!(
            r.entries().collect::<Vec<_>>(),
            vec![(10, 3), (10, 7), (12, 0)]
        );
        let rows: Vec<(u64, Vec<u64>)> = r.rows().map(|(p, row)| (p, row.into())).collect();
        assert_eq!(rows, vec![(10, vec![3, 7]), (11, vec![]), (12, vec![0])]);
    }

    #[test]
    fn csr_map_dispatches_on_magic_and_rows_agree() {
        let dir = tmpdir("map_dispatch");
        let lens = vec![2u64, 0, 1];
        let mut s1 = CsrSink::create(
            &dir,
            "a.csr",
            OutputFormat::Csr,
            10,
            lens.clone().into_iter(),
        )
        .unwrap();
        let mut s2 =
            CsrSink::create(&dir, "a.csr2", OutputFormat::Csr2, 10, lens.into_iter()).unwrap();
        for (p, q) in [(10, 3), (10, 7), (12, 0)] {
            s1.push(p, q).unwrap();
            s2.push(p, q).unwrap();
        }
        s1.finish().unwrap();
        s2.finish().unwrap();
        let v1 = CsrMap::open(&dir.join("a.csr")).unwrap();
        let v2 = CsrMap::open(&dir.join("a.csr2")).unwrap();
        assert!(!v1.is_v2());
        assert!(v2.is_v2());
        for v in 9..=13u64 {
            match (v1.row(v), v2.row(v)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.as_slice(), b.as_slice(), "row {v}"),
                (a, b) => panic!("row {v} residency disagrees: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(
            v1.entries().collect::<Vec<_>>(),
            v2.entries().collect::<Vec<_>>()
        );
        let r1: Vec<(u64, Vec<u64>)> = v1.rows().map(|(p, r)| (p, r.into())).collect();
        let r2: Vec<(u64, Vec<u64>)> = v2.rows().map(|(p, r)| (p, r.into())).collect();
        assert_eq!(r1, r2);
        assert!(v1.row_bytes_vd(10).is_none(), "v1 has no encoded bytes");
        assert_eq!(v2.row_bytes_vd(10).unwrap(), &[3u8, 4]);
        // unknown magic is a named error
        std::fs::write(dir.join("x.csr"), b"NOTACSRX________").unwrap();
        let err = match CsrMap::open(&dir.join("x.csr")) {
            Err(e) => e,
            Ok(_) => panic!("unknown magic must not open"),
        };
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn csr2_sink_rejects_unsorted_columns_and_underfill() {
        let dir = tmpdir("v2_order");
        let mut sink = CsrSink::create(
            &dir,
            "bad.csr2",
            OutputFormat::Csr2,
            0,
            vec![3u64].into_iter(),
        )
        .unwrap();
        sink.push(0, 5).unwrap();
        let err = sink.push(0, 5).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "{err}");
        let mut sink2 = CsrSink::create(
            &dir,
            "bad2.csr2",
            OutputFormat::Csr2,
            0,
            vec![2u64].into_iter(),
        )
        .unwrap();
        sink2.push(0, 1).unwrap();
        assert!(sink2.finish().is_err(), "underfull finish must fail");
        assert!(!dir.join("bad.csr2").exists());
        assert!(!dir.join("bad2.csr2").exists());
    }

    #[test]
    fn csr2_reader_rejects_overflow_and_corruption() {
        let dir = tmpdir("v2_corrupt");
        // overflowing header must not panic
        let path = dir.join("evil.csr2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC2);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&((1u64 << 61) - 1).to_le_bytes()); // num_rows
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = match CsrMap::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("overflowing header must not open"),
        };
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(Codec::V2.file_size(u64::MAX, 1), None);

        let mut sink = CsrSink::create(
            &dir,
            "c.csr2",
            OutputFormat::Csr2,
            0,
            vec![2u64].into_iter(),
        )
        .unwrap();
        sink.push(0, 300).unwrap();
        sink.push(0, 301).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr2");
        let good = std::fs::read(&path).unwrap();
        // the magic, not the file name, picks the format
        assert!(CsrMap::open(&path).unwrap().is_v2());
        // bad magic
        let mut bad = good.clone();
        bad[7] = b'9';
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrMap::open(&path).is_err());
        // truncated stream no longer matches the offset table
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(CsrMap::open(&path).is_err());
        // stream shorter than nnz entries
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&1u64.to_le_bytes()); // offsets[1] = 1
        bad.truncate(good.len() - 2); // stream shrinks to 1 byte < nnz 2
        std::fs::write(&path, &bad).unwrap();
        let err = match CsrMap::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("short stream must not open"),
        };
        assert!(err.to_string().contains("cannot hold"), "{err}");
        // non-monotone offsets
        let mut bad = good.clone();
        bad[32..40].copy_from_slice(&2u64.to_le_bytes()); // offsets[0] = 2
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrMap::open(&path).is_err());
    }

    #[test]
    fn reader_rejects_corruption() {
        let dir = tmpdir("corrupt");
        let mut sink =
            CsrSink::create(&dir, "c.csr", OutputFormat::Csr, 0, vec![1u64].into_iter()).unwrap();
        sink.push(0, 9).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr");
        let good = std::fs::read(&path).unwrap();
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrMap::open(&path).is_err());
        // truncated
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(CsrMap::open(&path).is_err());
        // offsets endpoint corrupt (nnz in header says 1, offsets say 2)
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrMap::open(&path).is_err());
    }
}
