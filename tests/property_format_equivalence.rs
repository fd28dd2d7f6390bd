//! v1 ↔ csr2 equivalence: the compressed shard format is an encoding,
//! not a semantic change.
//!
//! For randomized small products streamed twice — once as `csr` (v1,
//! raw `u64` columns) and once as `csr2` (varint delta columns) — every
//! observable answer must be **byte-identical** across the two runs:
//! the engine's full query grid, whole-graph analyze kernels' result
//! documents, an HTTP server's `/query` and `/batch` wire bytes, and a
//! 2-node cluster resident on the csr2 artifact versus a single node on
//! the v1 twin. A cross-check engine over the csr2 run must reconcile
//! clean against the closed forms, and `kron compact`'s library entry
//! point must turn the v1 twin into a csr2 run that still answers the
//! same.

use kron::KronProduct;
use kron_analyze::{run_kernel, Kernel, KernelSpec};
use kron_graph::Graph;
use kron_serve::http::{encode_query_component, Client};
use kron_serve::{
    AnswerSource, OpenOptions, PeerSpec, ServeEngine, ServeError, Server, ServerOptions,
};
use kron_stream::{compact_run, stream_product, OutputFormat, StreamConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// An arbitrary undirected graph on 2..=6 vertices, loops allowed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=6).prop_flat_map(move |n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 1..=(n * n / 2).max(2))
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

/// A unique scratch directory per generated case.
fn case_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kron_prop_fmt_{tag}_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stream `c` into a fresh directory in the given format.
fn stream(c: &KronProduct, fmt: OutputFormat, shards: usize, tag: &str) -> std::path::PathBuf {
    let dir = case_dir(tag);
    let mut cfg = StreamConfig::new(&dir, fmt);
    cfg.shards = shards;
    stream_product(c, &cfg).unwrap();
    dir
}

/// Every query kind at every vertex, plus out-of-range error shapes —
/// the same grid `integration_cluster` replays.
fn query_grid(n: u64) -> Vec<String> {
    let mut queries = Vec::new();
    for v in 0..n {
        queries.push(format!("degree {v}"));
        queries.push(format!("neighbors {v}"));
        queries.push(format!("tri_vertex {v}"));
        queries.push(format!("has_edge {v} {}", (v + 3) % n));
        queries.push(format!("tri_edge {v} {}", (v + 1) % n));
    }
    queries.push(format!("degree {n}")); // out of range → 422
    queries.push(format!("tri_edge {n} 0"));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine answers, kernel result documents, and the cross-check
    /// audit are identical between a v1 run and its csr2 twin — and
    /// stay identical after `compact_run` rewrites the v1 twin in
    /// place.
    #[test]
    fn engine_and_kernels_are_format_blind(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..4,
    ) {
        let c = KronProduct::new(a, b);
        let v1 = stream(&c, OutputFormat::Csr, shards, "v1");
        let v2 = stream(&c, OutputFormat::Csr2, shards, "v2");

        let e1 = ServeEngine::open_verified(&v1).unwrap();
        let e2 = ServeEngine::open_verified(&v2).unwrap();
        let audit = ServeEngine::open_with(
            &v2,
            &OpenOptions { source: AnswerSource::CrossCheck, ..OpenOptions::default() },
        ).unwrap();

        let n = c.num_vertices();
        for v in 0..n {
            prop_assert_eq!(e1.degree(v).unwrap(), e2.degree(v).unwrap());
            prop_assert_eq!(e1.neighbors(v).unwrap(), e2.neighbors(v).unwrap());
            prop_assert_eq!(
                e1.vertex_triangles(v).unwrap(),
                e2.vertex_triangles(v).unwrap()
            );
            prop_assert_eq!(audit.neighbors(v).unwrap().as_ref(), c.neighbors(v).as_slice());
            for q in 0..n {
                prop_assert_eq!(e1.has_edge(v, q).unwrap(), e2.has_edge(v, q).unwrap());
                prop_assert_eq!(
                    e1.edge_triangles(v, q).unwrap(),
                    e2.edge_triangles(v, q).unwrap()
                );
                audit.edge_triangles(v, q).unwrap();
            }
        }
        prop_assert_eq!(audit.mismatch_count(), 0, "csr2 must reconcile clean");

        // Whole-graph kernels: byte-identical result documents.
        let stop = AtomicBool::new(false);
        for kernel in [Kernel::Bfs, Kernel::Cc, Kernel::Pagerank, Kernel::TriCensus] {
            let spec = KernelSpec::new(kernel);
            let d1 = run_kernel(e1.shard_set(), &spec, &stop).unwrap();
            let d2 = run_kernel(e2.shard_set(), &spec, &stop).unwrap();
            prop_assert_eq!(
                d1.to_string(),
                d2.to_string(),
                "kernel {:?} diverged between formats",
                kernel
            );
        }

        // In-place conversion: the compacted v1 twin is now csr2 and
        // still answers the original grid.
        let report = compact_run(&v1).unwrap();
        prop_assert_eq!(report.converted, shards);
        let e1c = ServeEngine::open_verified(&v1).unwrap();
        for v in 0..n {
            prop_assert_eq!(e1c.neighbors(v).unwrap(), e2.neighbors(v).unwrap());
            prop_assert_eq!(
                e1c.vertex_triangles(v).unwrap(),
                e2.vertex_triangles(v).unwrap()
            );
        }

        std::fs::remove_dir_all(&v1).ok();
        std::fs::remove_dir_all(&v2).ok();
    }

    /// The wire is format-blind too: a server over the csr2 run — and a
    /// 2-node cluster resident on it, exchanging varint rows — answers
    /// `/query` and `/batch` byte-identically to a server over the v1
    /// twin.
    #[test]
    fn servers_and_cluster_answer_byte_identically(
        a in arb_graph(),
        b in arb_graph(),
    ) {
        let c = KronProduct::new(a, b);
        // ≥ 2 shards so the cluster split is real
        let v1 = stream(&c, OutputFormat::Csr, 2, "wire_v1");
        let v2 = stream(&c, OutputFormat::Csr2, 2, "wire_v2");
        let n = c.num_vertices();

        let single_srv = Server::bind("127.0.0.1:0").unwrap();
        let node0_srv = Server::bind("127.0.0.1:0").unwrap();
        let node1_srv = Server::bind("127.0.0.1:0").unwrap();
        let (addr_single, addr0, addr1) = (
            single_srv.local_addr().unwrap(),
            node0_srv.local_addr().unwrap(),
            node1_srv.local_addr().unwrap(),
        );

        let single = ServeEngine::open_verified(&v1).unwrap();
        let node = |subset: std::ops::Range<usize>, peer: String, peer_shards| {
            ServeEngine::open_with(
                &v2,
                &OpenOptions {
                    shard_subset: Some(subset),
                    peers: vec![PeerSpec { shards: peer_shards, addr: peer }],
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        };
        let node0 = node(0..1, addr1.to_string(), 1..2);
        let node1 = node(1..2, addr0.to_string(), 0..1);

        let stop = AtomicBool::new(false);
        let opts = ServerOptions::default();
        std::thread::scope(|s| {
            s.spawn(|| single_srv.run(&single, &opts, &stop).unwrap());
            s.spawn(|| node0_srv.run(&node0, &opts, &stop).unwrap());
            s.spawn(|| node1_srv.run(&node1, &opts, &stop).unwrap());

            let mut one = Client::connect(addr_single).unwrap();
            let mut n0 = Client::connect(addr0).unwrap();

            // plain asserts: the scope closure cannot carry a
            // TestCaseResult, and a panic still fails the case
            let queries = query_grid(n);
            for q in &queries {
                let path = format!("/query?q={}", encode_query_component(q));
                let want = one.get(&path).unwrap();
                let got = n0.get(&path).unwrap();
                assert_eq!(got, want, "cluster node over csr2 diverged on {q}");
            }
            let body: String = queries.iter().map(|q| format!("{q}\n")).collect();
            let want = one.post("/batch", body.as_bytes()).unwrap();
            let got = n0.post("/batch", body.as_bytes()).unwrap();
            assert_eq!(got, want, "batch diverged between formats");
            assert_eq!(want.0, 200);

            stop.store(true, Ordering::SeqCst);
            drop((one, n0));
        });

        std::fs::remove_dir_all(&v1).ok();
        std::fs::remove_dir_all(&v2).ok();
    }
}

/// A csr2 row whose stream repeats a column — a zero gap — is
/// corruption, never a short or duplicated row: the decoder rejects it,
/// the reader serves no row, the verified open fails, and an unverified
/// engine answers `Corrupt` on every query that needs the row, without
/// ever admitting it to the row cache.
#[test]
fn csr2_zero_gap_is_corruption_on_every_read_path() {
    let mut prefix = Vec::new();
    assert!(!kron_stream::decode_row_vd(&[5, 0, 1], &mut prefix));
    assert_eq!(prefix, [5], "only the columns before the zero gap decode");

    // triangle ⊗ triangle: vertex 4's row {0, 2, 6, 8} is the stream
    // bytes 00 02 04 02; zeroing the first gap makes it 00 00 04 02
    let t = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    let c = KronProduct::new(t.clone(), t);
    assert_eq!(c.neighbors(4), [0, 2, 6, 8]);
    let dir = stream(&c, OutputFormat::Csr2, 1, "zero_gap");
    let m = kron_stream::load_manifest(&dir, 0).unwrap();
    let path = dir.join(m.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    let rows = c.num_vertices() as usize;
    let offset_4 = u64::from_le_bytes(bytes[32 + 8 * 4..32 + 8 * 5].try_into().unwrap());
    let gap = 32 + 8 * (rows + 1) + offset_4 as usize + 1;
    assert_eq!(bytes[gap], 2);
    bytes[gap] = 0;
    std::fs::write(&path, &bytes).unwrap();

    let reader = kron_stream::CsrMap::open(&path).unwrap();
    assert!(
        reader.row(4).is_none(),
        "a row that does not decode is no row"
    );
    assert_eq!(&*reader.row(3).unwrap(), c.neighbors(3).as_slice());
    assert!(ServeEngine::open_verified(&dir).is_err());

    let e = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            verify_checksums: false,
            row_cache_bytes: 64 << 10,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    for _ in 0..2 {
        let err = e.degree(4).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "{err}");
    }
    let rep = e.routing();
    assert_eq!((rep.cache_hits, rep.cache_bytes), (0, 0), "{rep}");
    assert!(matches!(e.neighbors(4), Err(ServeError::Corrupt(_))));
    // vertex 0 lists 4 as a neighbour: the triangle kernel's row fetch
    // surfaces the same corruption
    assert!(c.neighbors(0).contains(&4));
    assert!(matches!(e.vertex_triangles(0), Err(ServeError::Corrupt(_))));
    assert_eq!(e.degree(3).unwrap(), c.degree(3), "other rows still answer");
    std::fs::remove_dir_all(&dir).ok();
}
