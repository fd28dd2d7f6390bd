//! The on-disk shard contract of ARCHITECTURE.md §"CSR shard" and
//! §"Shard format v2", pinned two ways:
//!
//! * **golden bytes** — the worked-example run (3-triangle ⊗ 3-triangle,
//!   one shard) streamed as `csr` and as `csr2` must produce exactly the
//!   hard-coded files below;
//! * **a conformance table** — one row per "a reader must enforce" rule
//!   and per csr2 row-decoding rule. Each row corrupts the golden shard in
//!   place and names the validation level that must catch it: the file
//!   itself (`CsrMap::open`), the manifest cross-check (`ShardSet::open`),
//!   the row fetch, or content verification. Whatever the level, every
//!   read a caller can make of a shard that opens must return without
//!   panicking.

use kron::KronProduct;
use kron_graph::Graph;
use kron_stream::{
    load_manifest, stream_product, verify_shards, CsrMap, OutputFormat, ShardSet, StreamConfig,
};
use std::path::{Path, PathBuf};

/// v1 file of the worked-example run, one little-endian `u64` per line.
const GOLDEN_CSR: &str = "
    4b 52 4f 4e 43 53 52 31  # magic KRONCSR1
    00 00 00 00 00 00 00 00  # vertex_lo 0
    09 00 00 00 00 00 00 00  # num_rows 9
    24 00 00 00 00 00 00 00  # nnz 36
    00 00 00 00 00 00 00 00  # offsets[0..=9]: 0, 4, …, 36 entries
    04 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    0c 00 00 00 00 00 00 00
    10 00 00 00 00 00 00 00
    14 00 00 00 00 00 00 00
    18 00 00 00 00 00 00 00
    1c 00 00 00 00 00 00 00
    20 00 00 00 00 00 00 00
    24 00 00 00 00 00 00 00
    04 00 00 00 00 00 00 00  # row 0: 4 5 7 8
    05 00 00 00 00 00 00 00
    07 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    03 00 00 00 00 00 00 00  # row 1: 3 5 6 8
    05 00 00 00 00 00 00 00
    06 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    03 00 00 00 00 00 00 00  # row 2: 3 4 6 7
    04 00 00 00 00 00 00 00
    06 00 00 00 00 00 00 00
    07 00 00 00 00 00 00 00
    01 00 00 00 00 00 00 00  # row 3: 1 2 7 8
    02 00 00 00 00 00 00 00
    07 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    00 00 00 00 00 00 00 00  # row 4: 0 2 6 8
    02 00 00 00 00 00 00 00
    06 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    00 00 00 00 00 00 00 00  # row 5: 0 1 6 7
    01 00 00 00 00 00 00 00
    06 00 00 00 00 00 00 00
    07 00 00 00 00 00 00 00
    01 00 00 00 00 00 00 00  # row 6: 1 2 4 5
    02 00 00 00 00 00 00 00
    04 00 00 00 00 00 00 00
    05 00 00 00 00 00 00 00
    00 00 00 00 00 00 00 00  # row 7: 0 2 3 5
    02 00 00 00 00 00 00 00
    03 00 00 00 00 00 00 00
    05 00 00 00 00 00 00 00
    00 00 00 00 00 00 00 00  # row 8: 0 1 3 4
    01 00 00 00 00 00 00 00
    03 00 00 00 00 00 00 00
    04 00 00 00 00 00 00 00
";

/// csr2 file of the same run: same header and offsets (every column fits
/// one varint byte here, so byte positions equal entry counts), then the
/// delta-encoded stream, one row per line.
const GOLDEN_CSR2: &str = "
    4b 52 4f 4e 43 53 52 32  # magic KRONCSR2
    00 00 00 00 00 00 00 00  # vertex_lo 0
    09 00 00 00 00 00 00 00  # num_rows 9
    24 00 00 00 00 00 00 00  # nnz 36
    00 00 00 00 00 00 00 00  # offsets[0..=9]: 0, 4, …, 36 bytes
    04 00 00 00 00 00 00 00
    08 00 00 00 00 00 00 00
    0c 00 00 00 00 00 00 00
    10 00 00 00 00 00 00 00
    14 00 00 00 00 00 00 00
    18 00 00 00 00 00 00 00
    1c 00 00 00 00 00 00 00
    20 00 00 00 00 00 00 00
    24 00 00 00 00 00 00 00
    04 01 02 01  # row 0: 4, +1, +2, +1
    03 02 01 02  # row 1: 3, +2, +1, +2
    03 01 02 01  # row 2
    01 01 05 01  # row 3
    00 02 04 02  # row 4: the §Shard format v2 worked example
    00 01 05 01  # row 5
    01 01 02 01  # row 6
    00 02 01 02  # row 7
    00 01 02 01  # row 8
";

/// Parse a golden listing: two-digit hex bytes, `#` starts a comment.
fn hex(listing: &str) -> Vec<u8> {
    listing
        .lines()
        .flat_map(|line| line.split('#').next().unwrap().split_whitespace())
        .map(|b| u8::from_str_radix(b, 16).unwrap())
        .collect()
}

/// Byte position of the column section in both golden files.
const COLS: usize = 32 + 8 * 10;

fn triangle_product() -> KronProduct {
    let t = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    KronProduct::new(t.clone(), t)
}

/// Stream the worked-example run into a fresh directory; returns the
/// directory and the path of its single artifact.
fn worked_example(format: OutputFormat, tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "kron_shard_spec_{tag}_{}_{}",
        format.as_str(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StreamConfig::new(&dir, format);
    cfg.shards = 1;
    stream_product(&triangle_product(), &cfg).unwrap();
    let m = load_manifest(&dir, 0).unwrap();
    let path = dir.join(m.file.as_deref().unwrap());
    (dir, path)
}

#[test]
fn worked_example_run_has_the_golden_bytes() {
    for (format, golden) in [
        (OutputFormat::Csr, GOLDEN_CSR),
        (OutputFormat::Csr2, GOLDEN_CSR2),
    ] {
        let (dir, path) = worked_example(format, "golden");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, hex(golden), "{} bytes drifted", format.as_str());
        assert_eq!(
            load_manifest(&dir, 0).unwrap().file_bytes,
            bytes.len() as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(hex(GOLDEN_CSR).len(), 400);
    assert_eq!(hex(GOLDEN_CSR2).len(), 148);
    assert_eq!(
        &hex(GOLDEN_CSR2)[COLS + 16..COLS + 20],
        [0x00, 0x02, 0x04, 0x02]
    );
}

/// Where a corruption must be caught.
#[derive(Debug)]
enum Caught {
    /// `CsrMap::open` refuses the file; the error names the file and
    /// contains the given text.
    Open(&'static str),
    /// The file opens but contradicts its manifest: `ShardSet::open`
    /// refuses it with an error containing the given text.
    Manifest(&'static str),
    /// The file opens, but this product vertex's row does not decode:
    /// the reader serves no row and the verified open fails.
    Row(u64),
    /// The file opens and every row decodes, but content verification
    /// (row lengths, column order, checksum) fails.
    Verify,
}

struct Case {
    format: OutputFormat,
    rule: &'static str,
    corrupt: fn(&mut Vec<u8>),
    caught: Caught,
}

/// Overwrite the `u64` at word index `i` (0 = magic, 1 = vertex_lo,
/// 2 = num_rows, 3 = nnz, 4 + r = offsets[r]).
fn set_word(b: &mut [u8], i: usize, x: u64) {
    b[8 * i..8 * i + 8].copy_from_slice(&x.to_le_bytes());
}

fn cases() -> Vec<Case> {
    use Caught::*;
    use OutputFormat::{Csr, Csr2};
    vec![
        // §CSR shard: "file size is exactly 32 + 8·(num_rows + 1) + 8·nnz"
        Case {
            format: Csr,
            rule: "v1 size: file truncated by one column",
            corrupt: |b| b.truncate(b.len() - 8),
            caught: Open("bytes"),
        },
        Case {
            format: Csr,
            rule: "v1 size: trailing byte",
            corrupt: |b| b.push(0),
            caught: Open("bytes"),
        },
        Case {
            format: Csr,
            rule: "v1 size: computed with overflow checks",
            corrupt: |b| set_word(b, 2, (1 << 61) - 1),
            caught: Open("overflow"),
        },
        // "the header agrees with the manifest"
        Case {
            format: Csr,
            rule: "v1 header vs manifest: vertex_lo",
            corrupt: |b| set_word(b, 1, 1),
            caught: Manifest("header"),
        },
        Case {
            format: Csr,
            rule: "v1 header vs manifest: num_rows",
            corrupt: |b| {
                // a valid 8-row shard: drop offsets[9] and row 8's columns
                set_word(b, 2, 8);
                set_word(b, 3, 32);
                b.truncate(b.len() - 32);
                b.drain(8 * 13..8 * 14);
            },
            caught: Manifest("header"),
        },
        Case {
            format: Csr,
            rule: "v1 header vs manifest: nnz",
            corrupt: |b| {
                // a valid shard whose last row lost a column
                set_word(b, 3, 35);
                set_word(b, 13, 35);
                b.truncate(b.len() - 8);
            },
            caught: Manifest("header"),
        },
        Case {
            format: Csr,
            rule: "v1 magic",
            corrupt: |b| b[0] = b'X',
            caught: Open("magic"),
        },
        Case {
            format: Csr,
            rule: "v1 magic agrees with the manifest's format",
            corrupt: |b| *b = hex(GOLDEN_CSR2),
            caught: Manifest("magic"),
        },
        // "offsets[0] = 0, offsets[num_rows] = nnz, and offsets is monotone"
        Case {
            format: Csr,
            rule: "v1 offsets[0] = 0",
            corrupt: |b| set_word(b, 4, 2),
            caught: Open(""),
        },
        Case {
            format: Csr,
            rule: "v1 offsets[num_rows] = nnz",
            corrupt: |b| set_word(b, 13, 35),
            caught: Open(""),
        },
        Case {
            format: Csr,
            rule: "v1 offsets monotone",
            corrupt: |b| set_word(b, 6, 13),
            caught: Open("monotone"),
        },
        // "sorted strictly ascending" — a content rule, caught by verify
        Case {
            format: Csr,
            rule: "v1 row columns strictly ascending",
            corrupt: |b| {
                let (c0, c1) = (COLS, COLS + 8);
                let first: [u8; 8] = b[c0..c1].try_into().unwrap();
                b.copy_within(c1..c1 + 8, c0);
                b[c1..c1 + 8].copy_from_slice(&first);
            },
            caught: Verify,
        },
        // §Shard format v2: "file size is exactly 32 + 8·(num_rows + 1) +
        // offsets[num_rows]"
        Case {
            format: Csr2,
            rule: "v2 size: stream truncated by one byte",
            corrupt: |b| b.truncate(b.len() - 1),
            caught: Open("bytes"),
        },
        Case {
            format: Csr2,
            rule: "v2 size: trailing byte",
            corrupt: |b| b.push(1),
            caught: Open("bytes"),
        },
        Case {
            format: Csr2,
            rule: "v2 size: computed with overflow checks",
            corrupt: |b| set_word(b, 2, (1 << 61) - 1),
            caught: Open("overflow"),
        },
        // "the header agrees with the manifest"
        Case {
            format: Csr2,
            rule: "v2 header vs manifest: vertex_lo",
            corrupt: |b| set_word(b, 1, 1),
            caught: Manifest("header"),
        },
        Case {
            format: Csr2,
            rule: "v2 header vs manifest: num_rows",
            corrupt: |b| {
                set_word(b, 2, 8);
                set_word(b, 3, 32);
                b.truncate(b.len() - 4);
                b.drain(8 * 13..8 * 14);
            },
            caught: Manifest("header"),
        },
        Case {
            format: Csr2,
            rule: "v2 header vs manifest: nnz",
            corrupt: |b| {
                set_word(b, 3, 35);
                set_word(b, 13, 35);
                b.truncate(b.len() - 1);
            },
            caught: Manifest("header"),
        },
        Case {
            format: Csr2,
            rule: "v2 magic",
            corrupt: |b| b[7] = b'9',
            caught: Open("magic"),
        },
        Case {
            format: Csr2,
            rule: "v2 magic agrees with the manifest's format",
            corrupt: |b| *b = hex(GOLDEN_CSR),
            caught: Manifest("magic"),
        },
        // "offsets[0] = 0 and offsets is monotone non-decreasing"
        Case {
            format: Csr2,
            rule: "v2 offsets[0] = 0",
            corrupt: |b| set_word(b, 4, 2),
            caught: Open(""),
        },
        Case {
            format: Csr2,
            rule: "v2 offsets monotone",
            corrupt: |b| set_word(b, 6, 13),
            caught: Open("monotone"),
        },
        // "offsets[num_rows] ≥ nnz (one byte per entry at minimum)"
        Case {
            format: Csr2,
            rule: "v2 stream holds nnz entries",
            corrupt: |b| set_word(b, 3, 37),
            caught: Open("cannot hold"),
        },
        // per-row decoding: "a slice that ends inside a varint"
        Case {
            format: Csr2,
            rule: "v2 row ends inside a varint",
            corrupt: |b| b[COLS + 19] = 0x82,
            caught: Row(4),
        },
        // "a varint that overflows 64 bits": row 0 takes rows 1 and 2's
        // bytes, and its first varint needs 70 bits
        Case {
            format: Csr2,
            rule: "v2 row varint overflows 64 bits",
            corrupt: |b| {
                set_word(b, 5, 12);
                set_word(b, 6, 12);
                b[COLS..COLS + 10]
                    .copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
            },
            caught: Row(0),
        },
        // "a gap of 0"
        Case {
            format: Csr2,
            rule: "v2 row gap of zero",
            corrupt: |b| b[COLS + 17] = 0,
            caught: Row(4),
        },
        // "leftover bytes after the row's last column": row 2 takes row
        // 3's first byte, which decodes as one column too many — only the
        // closed-form row length can tell
        Case {
            format: Csr2,
            rule: "v2 row leftover bytes",
            corrupt: |b| set_word(b, 7, 13),
            caught: Verify,
        },
    ]
}

/// Every read a caller can make of an opened shard; none may panic.
fn read_everything(map: &CsrMap) {
    for v in (0..=10).chain([u64::MAX]) {
        let _ = map.row(v);
        let _ = map.row_bytes_vd(v);
    }
    let _ = map.rows().map(|(_, row)| row.len()).sum::<usize>();
    let _ = map.entries().count();
}

fn check(case: &Case, dir: &Path, path: &Path) {
    let rule = case.rule;
    let name = path.file_name().unwrap().to_str().unwrap();
    match case.caught {
        Caught::Open(text) => {
            let err = match CsrMap::open(path) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("{rule}: the corrupt file opened"),
            };
            assert!(err.contains(name) && err.contains(text), "{rule}: {err}");
            assert!(ShardSet::open(dir).is_err(), "{rule}");
        }
        Caught::Manifest(text) => {
            read_everything(&CsrMap::open(path).unwrap());
            let err = ShardSet::open(dir).unwrap_err().to_string();
            assert!(err.contains(name) && err.contains(text), "{rule}: {err}");
        }
        Caught::Row(v) => {
            let map = CsrMap::open(path).unwrap();
            read_everything(&map);
            assert!(map.row(v).is_none(), "{rule}: row {v} must not decode");
            assert!(ShardSet::open(dir).is_ok(), "{rule}: structure is intact");
            assert!(ShardSet::open_verified(dir).is_err(), "{rule}");
        }
        Caught::Verify => {
            let map = CsrMap::open(path).unwrap();
            read_everything(&map);
            assert!((0..9).all(|v| map.row(v).is_some()), "{rule}");
            assert!(ShardSet::open(dir).is_ok(), "{rule}: structure is intact");
        }
    }
    let err = verify_shards(dir, false).expect_err(rule);
    assert!(
        matches!(err, kron_stream::StreamError::Shard(0, _)),
        "{rule}: {err}"
    );
}

#[test]
fn every_reader_rule_of_the_spec_is_enforced() {
    for format in [OutputFormat::Csr, OutputFormat::Csr2] {
        let (dir, path) = worked_example(format, "table");
        let good = std::fs::read(&path).unwrap();
        ShardSet::open_verified(&dir).unwrap();
        for case in cases().iter().filter(|c| c.format == format) {
            let mut bad = good.clone();
            (case.corrupt)(&mut bad);
            assert_ne!(bad, good, "{}: corruption is a no-op", case.rule);
            std::fs::write(&path, &bad).unwrap();
            check(case, &dir, &path);
        }
        std::fs::write(&path, &good).unwrap();
        verify_shards(&dir, true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
