//! `offline-validate`: the paper's generate-then-recount loop. Each
//! round streams the product of two web factors to csr2 shards, verifies
//! them against the factors (rehashing every shard), reopens them with
//! checksums verified, and runs the tri-census (validated against the
//! closed forms), PageRank, connected components and BFS over them. No
//! HTTP is involved.

use crate::common::{self, fig, product, Ctx, Report};
use crate::stats;
use crate::trace;
use kron::KronProduct;
use kron_analyze::{run_kernel, Kernel, KernelSpec};
use kron_stream::json::Json;
use kron_stream::{stream_product, verify_shards, OutputFormat, ShardSet, StreamConfig};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Factor orders: the product has about 1.06M adjacency entries; its
/// tri-census alone takes ~0.7 s on two cores, so a 20 s run holds about
/// twenty rounds.
pub const N_A: usize = 180;
pub const N_B: usize = 170;
pub const SHARDS: usize = 8;
/// Rounds measured even when the time is up.
const MIN_ROUNDS: usize = 3;
/// Setup repetitions (the setup time is their median).
const SETUPS: usize = 61;

/// One round's phase timings (seconds) and sizes.
#[derive(Clone, Debug, Default)]
struct Round {
    stream_s: f64,
    verify_s: f64,
    census_s: f64,
    pagerank_s: f64,
    pagerank_iters: u64,
    wedge_checks: u64,
    total_s: f64,
    artifact_bytes: u64,
}

/// Result documents of the first round, which later rounds must repeat
/// byte for byte (the kernels are deterministic).
#[derive(Default)]
struct Docs {
    census: Option<String>,
    pagerank: Option<String>,
    cc: Option<String>,
    bfs: Option<String>,
}

fn kernel(set: &ShardSet, spec: &KernelSpec, name: &'static str) -> Result<Json, String> {
    let _s = trace::span(name);
    run_kernel(set, spec, &AtomicBool::new(false)).map_err(|e| format!("{name}: {e}"))
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

/// Compare a result document with the first round's.
fn same_doc(slot: &mut Option<String>, doc: &Json, what: &str) -> Option<String> {
    let text = doc.to_string();
    match slot {
        None => {
            *slot = Some(text);
            None
        }
        Some(first) if *first == text => None,
        Some(_) => Some(format!("{what}: result differs from the first round")),
    }
}

/// One generate-then-recount round; every phase is one operation.
fn round(
    ctx: &Ctx,
    prod: &KronProduct,
    dir: &Path,
    docs: &mut Docs,
    rep: &mut Report,
) -> Option<Round> {
    let nnz = prod.nnz();
    let nv = prod.num_vertices();
    let _r = trace::span("offline.round");
    let t_round = Instant::now();
    let mut r = Round::default();

    let mut cfg = StreamConfig::new(dir, OutputFormat::Csr2);
    cfg.shards = SHARDS;
    cfg.threads = ctx.cores;
    let (res, t) = common::time(|| {
        let _s = trace::span("stream.stream_product.csr2");
        stream_product(prod, &cfg)
    });
    r.stream_s = t.as_secs_f64();
    rep.op(match res {
        Err(e) => Some(format!("stream_product: {e}")),
        Ok(s) if s.total_entries != nnz => Some(format!(
            "stream_product wrote {} entries, expected {nnz}",
            s.total_entries
        )),
        Ok(_) => None,
    });
    r.artifact_bytes = common::artifact_bytes(dir);

    let (res, t) = common::time(|| {
        let _s = trace::span("stream.verify_shards");
        verify_shards(dir, true)
    });
    r.verify_s = t.as_secs_f64();
    rep.op(match res {
        Err(e) => Some(format!("verify_shards: {e}")),
        Ok(v) if v.total_entries != nnz || !v.rehashed => {
            Some(format!("verify_shards checked {} entries", v.total_entries))
        }
        Ok(_) => None,
    });

    let set = {
        let _s = trace::span("stream.open_verified");
        ShardSet::open_verified(dir)
    };
    let set = match set {
        Ok(set) if set.total_entries() == nnz => {
            rep.op(None);
            set
        }
        Ok(set) => {
            rep.op(Some(format!(
                "open_verified saw {} entries",
                set.total_entries()
            )));
            return None;
        }
        Err(e) => {
            rep.op(Some(format!("open_verified: {e}")));
            return None;
        }
    };

    let (res, t) = common::time(|| {
        kernel(
            &set,
            &KernelSpec::new(Kernel::TriCensus),
            "analyze.tri-census",
        )
    });
    r.census_s = t.as_secs_f64();
    rep.op(res
        .and_then(|doc| {
            // run_kernel already failed the census if it contradicts the
            // closed forms; check the headline total once more here.
            r.wedge_checks = doc.get("wedge_checks").and_then(Json::as_u64).unwrap_or(0);
            let tri = doc.get("triangles").and_then(Json::as_u128);
            if tri != Some(prod.total_triangles()) {
                return Err(format!(
                    "tri-census counted {tri:?} triangles, closed form {}",
                    prod.total_triangles()
                ));
            }
            same_doc(&mut docs.census, &doc, "tri-census").map_or(Ok(()), Err)
        })
        .err());

    let (res, t) =
        common::time(|| kernel(&set, &KernelSpec::new(Kernel::Pagerank), "analyze.pagerank"));
    r.pagerank_s = t.as_secs_f64();
    rep.op(res
        .and_then(|doc| {
            r.pagerank_iters = doc.get("iterations").and_then(Json::as_u64).unwrap_or(0);
            let sum = num(&doc, "sum").unwrap_or(0.0);
            if r.pagerank_iters == 0 || (sum - 1.0).abs() > 1e-6 {
                return Err(format!(
                    "pagerank: {} iterations, rank sum {sum}",
                    r.pagerank_iters
                ));
            }
            same_doc(&mut docs.pagerank, &doc, "pagerank").map_or(Ok(()), Err)
        })
        .err());

    // Both factors are connected and hold triangles (so are not
    // bipartite), hence their product is connected (Weichsel).
    let res = kernel(&set, &KernelSpec::new(Kernel::Cc), "analyze.cc");
    rep.op(res
        .and_then(|doc| {
            if num(&doc, "components") != Some(1.0) {
                return Err(format!(
                    "cc: {:?} components, expected 1",
                    num(&doc, "components")
                ));
            }
            same_doc(&mut docs.cc, &doc, "cc").map_or(Ok(()), Err)
        })
        .err());

    let mut bfs = KernelSpec::new(Kernel::Bfs);
    bfs.source = ctx.seed_for("bfs-source") % nv;
    let res = kernel(&set, &bfs, "analyze.bfs");
    rep.op(res
        .and_then(|doc| {
            if num(&doc, "reached") != Some(nv as f64) {
                return Err(format!(
                    "bfs reached {:?} of {nv} vertices",
                    num(&doc, "reached")
                ));
            }
            same_doc(&mut docs.bfs, &doc, "bfs").map_or(Ok(()), Err)
        })
        .err());

    r.total_s = t_round.elapsed().as_secs_f64();
    Some(r)
}

/// Rounds until `seconds` have passed (at least [`MIN_ROUNDS`]).
fn measure(
    ctx: &Ctx,
    prod: &KronProduct,
    dir: &Path,
    seconds: f64,
    docs: &mut Docs,
    rep: &mut Report,
) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        match round(ctx, prod, dir, docs, rep) {
            Some(r) => rounds.push(r),
            None if rounds.is_empty() => break,
            None => {}
        }
    }
    rounds
}

/// The gated figures of a set of rounds: `throughput_per_s` is
/// `pagerank_entries_per_s` (entries × iterations ÷ median PageRank
/// time), `p50_us` the median time of one whole generate-then-recount
/// round.
fn end_to_end(
    rep_e2e: &mut std::collections::BTreeMap<&'static str, common::Figure>,
    rounds: &[Round],
    nnz: f64,
) {
    let n = rounds.len();
    rep_e2e.insert(
        "throughput_per_s",
        fig(pagerank_rate(rounds, nnz), "1/s", n),
    );
    rep_e2e.insert("p50_us", fig(med_of(rounds, |r| r.total_s * 1e6), "us", n));
}

/// PageRank entries × iterations per second, over the median round.
fn pagerank_rate(rounds: &[Round], nnz: f64) -> f64 {
    let iters = med_of(rounds, |r| r.pagerank_iters as f64);
    nnz * iters / med_of(rounds, |r| r.pagerank_s)
}

fn med_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let (prod, setup_s, setups) = common::timed_setup(SETUPS, || product(N_A, N_B));
    let nnz = prod.nnz() as f64;
    rep.notes.push(format!(
        "offline-validate: factors web_factor({N_A}) x web_factor({N_B}), {} vertices, {} entries, {SHARDS} csr2 shards, {} stream threads",
        prod.num_vertices(),
        prod.nnz(),
        ctx.cores
    ));
    let dir = common::fresh_dir(ctx, "offline");
    let mut docs = Docs::default();

    let rounds = if ctx.trace {
        trace::enable(false);
        let plain = measure(ctx, &prod, &dir, ctx.seconds / 2.0, &mut docs, &mut rep);
        end_to_end(&mut rep.untraced, &plain, nnz);
        trace::enable(true);
        let traced = measure(ctx, &prod, &dir, ctx.seconds / 2.0, &mut docs, &mut rep);
        probes(ctx, &prod, &dir, &mut rep);
        traced
    } else {
        measure(ctx, &prod, &dir, ctx.seconds, &mut docs, &mut rep)
    };
    let n = rounds.len();
    end_to_end(&mut rep.end_to_end, &rounds, nnz);
    rep.end_to_end.insert("setup_s", fig(setup_s, "s", setups));
    let bytes_per_entry = rounds.last().map_or(0, |r| r.artifact_bytes) as f64 / nnz;
    rep.end_to_end
        .insert("artifact_bytes_per_entry", fig(bytes_per_entry, "B", n));
    rep.named = vec![
        (
            "stream_entries_per_s",
            fig(nnz / med_of(&rounds, |r| r.stream_s), "1/s", n),
        ),
        (
            "verify_entries_per_s",
            fig(nnz / med_of(&rounds, |r| r.verify_s), "1/s", n),
        ),
        (
            "census_entries_per_s",
            fig(nnz / med_of(&rounds, |r| r.census_s), "1/s", n),
        ),
        (
            "pagerank_entries_per_s",
            fig(pagerank_rate(&rounds, nnz), "1/s", n),
        ),
    ];
    if ctx.trace {
        rep.spans = trace::take();
        layers(&mut rep, &rounds);
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// Layer probes that the end-to-end loop does not make: the raw entry
/// enumeration, closed-form point evaluation, the count sink, a row scan
/// of the shards, and PageRank on one thread.
fn probes(ctx: &Ctx, prod: &KronProduct, dir: &Path, rep: &mut Report) {
    let nnz = prod.nnz();
    let count = {
        let _s = trace::span("core.fold_adjacency_entries");
        prod.fold_adjacency_entries(|| 0u128, |acc, _, _| acc + 1, |a, b| a + b)
    };
    rep.op((count != nnz).then(|| format!("fold_adjacency_entries counted {count} of {nnz}")));

    // Thm. 1 of the paper, summed: loopless factors give
    // τ(A ⊗ B) = 6·τ(A)·τ(B).
    let (a, b) = prod.factors();
    let (ta, tb) = {
        let _s = trace::span("triangles.count_triangles");
        (
            kron_triangles::count_triangles(a).triangles,
            kron_triangles::count_triangles(b).triangles,
        )
    };
    let six = 6 * u128::from(ta) * u128::from(tb);
    rep.op((six != prod.total_triangles()).then(|| {
        format!(
            "6·τ(A)·τ(B) = {six}, closed-form total {}",
            prod.total_triangles()
        )
    }));

    let nv = prod.num_vertices();
    let calls = 200_000u64;
    let mut x = ctx.seed_for("closed-form");
    let (sum, t) = common::time(|| {
        let _s = trace::span("core.closed_form");
        let mut sum = 0u64;
        for _ in 0..calls {
            x = common::splitmix(x);
            let v = x % nv;
            sum = sum
                .wrapping_add(prod.vertex_triangles(v))
                .wrapping_add(prod.degree(v));
        }
        sum
    });
    std::hint::black_box(sum);
    rep.layers
        .insert("core.closed_form_ns", t.as_nanos() as f64 / calls as f64);

    let count_dir = common::fresh_dir(ctx, "offline-count");
    let mut cfg = StreamConfig::new(&count_dir, OutputFormat::Count);
    cfg.shards = SHARDS;
    cfg.threads = ctx.cores;
    let res = {
        let _s = trace::span("stream.stream_product.count");
        stream_product(prod, &cfg)
    };
    rep.op(match res {
        Ok(s) if s.total_entries == nnz => None,
        Ok(s) => Some(format!("count sink saw {} entries", s.total_entries)),
        Err(e) => Some(format!("count sink: {e}")),
    });
    let _ = std::fs::remove_dir_all(&count_dir);

    match ShardSet::open(dir) {
        Err(e) => rep.op(Some(format!("open for row scan: {e}"))),
        Ok(set) => {
            let (entries, t) = common::time(|| {
                let _s = trace::span("stream.shard_rows");
                let mut entries = 0u128;
                for shard in 0..set.num_shards() {
                    for (_, row) in set.shard_rows(shard).into_iter().flatten() {
                        entries += row.len() as u128;
                    }
                }
                entries
            });
            rep.op((entries != nnz).then(|| format!("row scan saw {entries} of {nnz} entries")));
            rep.layers.insert(
                "stream.row_scan_entries_per_s",
                nnz as f64 / t.as_secs_f64(),
            );

            // PageRank on one thread, for the scaling ratio.
            let saved = std::env::var("RAYON_NUM_THREADS").ok();
            std::env::set_var("RAYON_NUM_THREADS", "1");
            let res = kernel(
                &set,
                &KernelSpec::new(Kernel::Pagerank),
                "analyze.pagerank.1thread",
            );
            match saved {
                Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
            rep.op(res.err());
        }
    }
}

fn layers(rep: &mut Report, rounds: &[Round]) {
    let spans = &rep.spans;
    let census_s = trace::median_s(spans, "analyze.tri-census");
    let pagerank_s = trace::median_s(spans, "analyze.pagerank");
    let wedge_checks = med_of(rounds, |r| r.wedge_checks as f64);
    let l = &mut rep.layers;
    l.insert("gen.factor_s", trace::median_s(spans, "gen.web_factor"));
    l.insert(
        "core.enumerate_s",
        trace::median_s(spans, "core.fold_adjacency_entries"),
    );
    l.insert(
        "stream.count_sink_s",
        trace::median_s(spans, "stream.stream_product.count"),
    );
    l.insert(
        "stream.csr2_write_s",
        trace::median_s(spans, "stream.stream_product.csr2"),
    );
    l.insert(
        "stream.verify_s",
        trace::median_s(spans, "stream.verify_shards"),
    );
    l.insert(
        "stream.open_verified_s",
        trace::median_s(spans, "stream.open_verified"),
    );
    l.insert(
        "stream.artifact_bytes",
        rounds.last().map_or(0.0, |r| r.artifact_bytes as f64),
    );
    l.insert("triangles.wedge_checks", wedge_checks);
    l.insert(
        "analyze.census_wedge_checks_per_s",
        if census_s > 0.0 {
            wedge_checks / census_s
        } else {
            0.0
        },
    );
    l.insert("analyze.census_s", census_s);
    l.insert("analyze.pagerank_s", pagerank_s);
    l.insert("analyze.cc_s", trace::median_s(spans, "analyze.cc"));
    l.insert("analyze.bfs_s", trace::median_s(spans, "analyze.bfs"));
    l.insert(
        "analyze.pagerank_iterations",
        med_of(rounds, |r| r.pagerank_iters as f64),
    );
    let one = trace::median_s(spans, "analyze.pagerank.1thread");
    l.insert(
        "analyze.pagerank_scaling",
        if pagerank_s > 0.0 {
            one / pagerank_s
        } else {
            0.0
        },
    );
}
