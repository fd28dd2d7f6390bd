//! Sharded edge-stream generation throughput: edges/sec per sink kind.
//!
//! `CountSink` isolates the generation kernel (compose + hash); the
//! edge-list and CSR sinks add their serialization and I/O cost on top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kron::KronProduct;
use kron_bench::web_factor;
use kron_stream::{run_shard, CountSink, CsrSink, EdgeListSink, OutputFormat, ShardPlan};
use std::hint::black_box;
use std::time::Duration;

fn bench_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let dir = std::env::temp_dir().join(format!("kron_bench_stream_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for n in [300usize, 1000] {
        let prod = KronProduct::new(web_factor(n), web_factor(n));
        let plan = ShardPlan::new(&prod, 8);
        let spec = plan.get(0).unwrap().clone();
        let entries = spec.stats.nnz as u64;
        group.throughput(Throughput::Elements(entries));
        group.bench_with_input(BenchmarkId::new("count", n), &prod, |b, prod| {
            b.iter(|| {
                let mut sink = CountSink::default();
                black_box(run_shard(prod, &spec, OutputFormat::Count, &mut sink).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("edges", n), &prod, |b, prod| {
            b.iter(|| {
                let mut sink = EdgeListSink::create(&dir, "bench.edges").unwrap();
                black_box(run_shard(prod, &spec, OutputFormat::Edges, &mut sink).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("csr", n), &prod, |b, prod| {
            b.iter(|| {
                let mut sink = CsrSink::create(
                    &dir,
                    "bench.csr",
                    OutputFormat::Csr,
                    spec.stats.vertices.start,
                    prod.row_lengths_in_rows(spec.stats.rows.clone()),
                )
                .unwrap();
                black_box(run_shard(prod, &spec, OutputFormat::Csr, &mut sink).unwrap())
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
