//! Integration + property tests of the `kron-stream` sharding subsystem:
//! shard completeness against the generator loop, CSR round-trips through
//! the mmap reader, and billion-edge-scale manifest arithmetic.

use kron::KronProduct;
use kron_gen::{rmat, RmatParams};
use kron_graph::Graph;
use kron_stream::{
    load_manifest, run_shard, stream_product, verify_shards, CsrMap, MemorySink, OutputFormat,
    ShardPlan, StreamConfig,
};
use proptest::prelude::*;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_int_stream_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An arbitrary undirected graph on 2..=8 vertices, loops allowed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=8).prop_flat_map(|n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 0..=(n * n / 2))
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shard completeness: concatenating all shard streams reproduces
    /// `KronProduct::adjacency_entries()` exactly (same multiset) for any
    /// factor pair and shard count — including counts above `n_A`, where
    /// some shards are empty.
    #[test]
    fn shards_concatenate_to_generator_loop(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..20,
    ) {
        let n_a = a.num_vertices();
        let c = KronProduct::new(a, b);
        let plan = ShardPlan::new(&c, shards);
        prop_assert_eq!(plan.len(), shards);
        let mut all: Vec<(u64, u64)> = Vec::new();
        for spec in plan.iter() {
            let mut sink = MemorySink::default();
            let m = run_shard(&c, spec, OutputFormat::Count, &mut sink).unwrap();
            prop_assert_eq!(m.entries as usize, sink.entries.len());
            all.extend(sink.entries);
        }
        let _ = n_a; // shard counts beyond n_A covered by the 1..20 range
        prop_assert_eq!(all.len() as u128, c.nnz());
        let mut expect: Vec<(u64, u64)> = c.adjacency_entries().collect();
        all.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(all, expect);
    }

    /// Per-shard closed-form checksums tile the global statistics for any
    /// factor pair and shard count.
    #[test]
    fn shard_stats_tile_global_stats(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..16,
    ) {
        let c = KronProduct::new(a, b);
        let plan = ShardPlan::new(&c, shards);
        prop_assert_eq!(plan.total_entries(), c.nnz());
        let loops: u128 = plan.iter().map(|s| s.stats.self_loops).sum();
        prop_assert_eq!(loops, c.num_self_loops());
        let tri: u128 = plan.iter().map(|s| s.stats.triangle_sum).sum();
        prop_assert_eq!(tri, 3 * c.total_triangles());
        let deg: u128 = plan.iter().map(|s| s.stats.degree_sum).sum();
        prop_assert_eq!(deg, c.nnz() - c.num_self_loops());
    }
}

#[test]
fn csr_artifacts_roundtrip_bit_exactly() {
    // acceptance: the mmap CSR reader reproduces a small product exactly
    let dir = tmpdir("roundtrip");
    let a = kron_gen::holme_kim(40, 3, 0.7, 11);
    let b = kron_gen::one_triangle_per_edge(24, 5).with_all_self_loops();
    let c = KronProduct::new(a, b);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 9;
    stream_product(&c, &cfg).unwrap();
    verify_shards(&dir, true).unwrap();
    let mut seen_rows = 0u64;
    for shard in 0..cfg.shards {
        let m = load_manifest(&dir, shard).unwrap();
        let r = CsrMap::open(&dir.join(m.file.as_deref().unwrap())).unwrap();
        for p in m.vertices.clone() {
            assert_eq!(&*r.row(p).unwrap(), c.neighbors(p).as_slice(), "row {p}");
            seen_rows += 1;
        }
    }
    assert_eq!(seen_rows, c.num_vertices());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_artifacts_decode_to_generator_entries() {
    let dir = tmpdir("edges_decode");
    let a = kron_gen::erdos_renyi(30, 0.2, 7);
    let c = KronProduct::new(a.clone(), a);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Edges);
    cfg.shards = 5;
    stream_product(&c, &cfg).unwrap();
    let mut decoded: Vec<(u64, u64)> = Vec::new();
    for shard in 0..cfg.shards {
        let m = load_manifest(&dir, shard).unwrap();
        let bytes = std::fs::read(dir.join(m.file.as_deref().unwrap())).unwrap();
        assert_eq!(bytes.len() as u128, 16 * m.entries);
        for pair in bytes.chunks_exact(16) {
            decoded.push((
                u64::from_le_bytes(pair[..8].try_into().unwrap()),
                u64::from_le_bytes(pair[8..].try_into().unwrap()),
            ));
        }
    }
    let mut expect: Vec<(u64, u64)> = c.adjacency_entries().collect();
    decoded.sort_unstable();
    expect.sort_unstable();
    assert_eq!(decoded, expect);
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance-scale plan: two 2¹⁰-vertex R-MAT factors whose product
/// has ≥ 10⁹ adjacency entries, across 8+ shards. Manifest arithmetic is
/// closed form, so this is fast; the `#[ignore]`d test below actually
/// streams the billion entries.
#[test]
fn billion_edge_plan_manifests_sum_exactly() {
    let a = rmat(10, 32, RmatParams::graph500(), 42);
    let b = rmat(10, 32, RmatParams::graph500(), 43);
    let c = KronProduct::new(a, b);
    assert!(c.nnz() >= 1_000_000_000, "product too small: {}", c.nnz());
    for shards in [8, 13, 64] {
        let plan = ShardPlan::new(&c, shards);
        let sum: u128 = plan.iter().map(|s| s.stats.nnz).sum();
        assert_eq!(
            sum,
            c.nnz(),
            "per-shard edge counts must sum to nnz(A)·nnz(B)"
        );
        let tri: u128 = plan.iter().map(|s| s.stats.triangle_sum).sum();
        assert_eq!(tri, 3 * c.total_triangles());
        // nnz balance: no shard more than 2× the fair share at this scale
        let fair = c.nnz() / shards as u128;
        assert!(plan.max_shard_entries() < 2 * fair);
    }
}

/// Full acceptance run: stream all ≥10⁹ entries (count sinks — no 16 GB
/// artifact), then `verify-shards --rehash` every shard. Run explicitly:
/// `cargo test --release -p kron-suite -- --ignored billion_edge_stream`.
#[test]
#[ignore = "streams >1e9 entries; run in release"]
fn billion_edge_stream_validates() {
    let dir = tmpdir("billion");
    let a = rmat(10, 32, RmatParams::graph500(), 42);
    let b = rmat(10, 32, RmatParams::graph500(), 43);
    let c = KronProduct::new(a, b);
    assert!(c.nnz() >= 1_000_000_000);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Count);
    cfg.shards = 64;
    let run = stream_product(&c, &cfg).unwrap();
    assert_eq!(run.total_entries, c.nnz());
    let report = verify_shards(&dir, true).unwrap();
    assert_eq!(report.total_entries, c.nnz());
    std::fs::remove_dir_all(&dir).ok();
}
