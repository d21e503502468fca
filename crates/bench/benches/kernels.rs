//! Wall-clock benchmarks of the in-memory MTTKRP kernels: the tiled local
//! kernel (`core::kernels::local_mttkrp`, one thread), the two-step (KRP +
//! matmul) variant the paper's Section V-C3 mentions, the same local
//! kernel partitioned over a 2-thread rayon pool (`mttkrp_native`), and
//! the brute-force oracle (Definition 2.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mttkrp_bench::setup_problem;
use mttkrp_core::kernels::{local_mttkrp, local_mttkrp_twostep, native_tile};
use mttkrp_exec::{mttkrp_native, DEFAULT_CACHE_WORDS};
use mttkrp_tensor::{mttkrp_reference, Matrix};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_mttkrp");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("failed to build rayon thread pool");
    for &(dim, r) in &[(16usize, 8usize), (32, 8), (32, 32)] {
        let (x, factors) = setup_problem(&[dim, dim, dim], r, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let label = format!("{dim}^3_r{r}");
        group.bench_with_input(BenchmarkId::new("local", &label), &(), |b, _| {
            b.iter(|| black_box(local_mttkrp(&x, &refs, 0)))
        });
        group.bench_with_input(BenchmarkId::new("twostep", &label), &(), |b, _| {
            b.iter(|| black_box(local_mttkrp_twostep(&x, &refs, 0)))
        });
        let tile = native_tile(DEFAULT_CACHE_WORDS, 3, r);
        group.bench_with_input(BenchmarkId::new("rayon", &label), &(), |b, _| {
            b.iter(|| black_box(mttkrp_native(&x, &refs, 0, tile, &pool)))
        });
        if dim <= 16 {
            group.bench_with_input(BenchmarkId::new("oracle", &label), &(), |b, _| {
                b.iter(|| black_box(mttkrp_reference(&x, &refs, 0)))
            });
        }
    }
    group.finish();
}

fn bench_modes(c: &mut Criterion) {
    // Kernel cost should be roughly mode-independent (the tensor is
    // streamed once regardless of n).
    let mut group = c.benchmark_group("mttkrp_by_mode");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    let (x, factors) = setup_problem(&[24, 24, 24], 16, 2);
    let refs: Vec<&Matrix> = factors.iter().collect();
    for n in 0..3 {
        group.bench_with_input(BenchmarkId::new("local", n), &n, |b, &n| {
            b.iter(|| black_box(local_mttkrp(&x, &refs, n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_modes);
criterion_main!(benches);
