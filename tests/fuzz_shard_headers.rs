//! Fuzzing the csr / csr2 shard parsers with hostile bytes.
//!
//! Valid v1 and v2 shards get random byte flips (biased toward the header
//! and the offset table, the parts `CsrMap::open` parses), offsets nudged
//! by a few units (which moves row boundaries but often keeps the table
//! monotone), header words overwritten with random, near-`u64::MAX` or
//! small values, and truncations. For every input `CsrMap::open` must
//! either refuse the file or open it, and on an open every row read —
//! `row`, `row_bytes_vd`, `rows`, `entries` — must return without
//! panicking. Debug test builds check integer overflow, so a header whose
//! vertex range wraps `u64` is caught here too.

use kron::KronProduct;
use kron_graph::Graph;
use kron_stream::{load_manifest, stream_product, CsrMap, OutputFormat, StreamConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Valid shard files to mutate: both formats of a tiny product whose
/// columns fit one varint byte, and of one with multi-byte varints.
fn bases() -> &'static [Vec<u8>] {
    static BASES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BASES.get_or_init(|| {
        let t = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let big = kron_gen::holme_kim(50, 2, 0.5, 3).with_all_self_loops();
        let products = [
            KronProduct::new(t.clone(), t.clone()),
            KronProduct::new(big, t),
        ];
        let mut out = Vec::new();
        for (i, c) in products.iter().enumerate() {
            for format in [OutputFormat::Csr, OutputFormat::Csr2] {
                let dir = std::env::temp_dir().join(format!(
                    "kron_fuzz_base_{i}_{}_{}",
                    format.as_str(),
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let mut cfg = StreamConfig::new(&dir, format);
                cfg.shards = 1;
                stream_product(c, &cfg).unwrap();
                let m = load_manifest(&dir, 0).unwrap();
                out.push(std::fs::read(dir.join(m.file.as_deref().unwrap())).unwrap());
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        out
    })
}

/// Every read a caller can make of an opened shard.
fn read_everything(map: &CsrMap) {
    let lo = map.vertex_lo();
    let hi = lo.saturating_add(map.num_rows());
    for v in [0, lo.wrapping_sub(1), lo, hi.wrapping_sub(1), hi, u64::MAX] {
        let _ = map.row(v);
        let _ = map.row_bytes_vd(v);
    }
    for (v, row) in map.rows() {
        let _ = map.row(v);
        let _ = map.row_bytes_vd(v);
        let _ = row.len();
    }
    let _ = map.entries().count();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_shards_open_cleanly_or_are_refused(
        base in 0usize..4,
        flips in proptest::collection::vec((0u8..5, 0usize..1 << 20, 1u8..=255), 0..=6),
        word in (0usize..16, 0u8..3, 0u64..=u64::MAX),
        cut in (0u8..4, 0usize..1 << 20),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let mut bytes = bases()[base].clone();
        let num_rows = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let table = 32 + 8 * (num_rows + 1);
        for (kind, at, mask) in flips {
            match kind {
                0 => bytes[at % 32] ^= mask,
                1 => bytes[32 + at % (table - 32)] ^= mask,
                2 => {
                    let w = 32 + 8 * (at % (num_rows + 1));
                    let old = u64::from_le_bytes(bytes[w..w + 8].try_into().unwrap());
                    let delta = u64::from(mask % 4) + 1;
                    let new = if mask & 0x80 == 0 {
                        old.wrapping_add(delta)
                    } else {
                        old.wrapping_sub(delta)
                    };
                    bytes[w..w + 8].copy_from_slice(&new.to_le_bytes());
                }
                _ => {
                    let pos = at % bytes.len();
                    bytes[pos] ^= mask;
                }
            }
        }
        // words 1..=3 are vertex_lo, num_rows, nnz; 4 is offsets[0] and
        // 5 the final offset; the rest leave the words alone. Values are
        // random, near u64::MAX (overflow edges), or small.
        let (which, kind, value) = word;
        let value = match kind {
            0 => value,
            1 => u64::MAX - value % 16,
            _ => value % 64,
        };
        match which {
            1..=4 => bytes[8 * which..8 * which + 8].copy_from_slice(&value.to_le_bytes()),
            5 => bytes[table - 8..table].copy_from_slice(&value.to_le_bytes()),
            _ => {}
        }
        if cut.0 == 0 {
            bytes.truncate(cut.1 % (bytes.len() + 1));
        }

        let path = std::env::temp_dir().join(format!(
            "kron_fuzz_shard_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(map) = CsrMap::open(&path) {
            read_everything(&map);
        }
        std::fs::remove_file(&path).ok();
    }
}
