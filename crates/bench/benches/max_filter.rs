//! Max-filter entry points at the geometries the benchmark workloads
//! filter: the forward-only shifted-row kernel (`DenseNet`, inference),
//! the same kernel with its argmax (training), and the paper's heap
//! variant as the ablation (§II: "we keep a heap of size k ... each
//! operation taking log k").

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use znn_ops::filter::{max_filter, max_filter_output, FilterImpl};
use znn_tensor::{ops, Vec3};

fn bench_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_filter");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    // (name, image, window, dilation): train3d_fft's first filter,
    // train3d_direct's second (dilated), serve3d_dense's window, and
    // train2d_recover's first
    let cases = [
        ("51^3_s1", Vec3::cube(51), Vec3::cube(2), Vec3::one()),
        ("42^3_s2", Vec3::cube(42), Vec3::cube(2), Vec3::cube(2)),
        ("31x31x29_s1", Vec3::new(31, 31, 29), Vec3::cube(2), Vec3::one()),
        ("91^2_s1", Vec3::flat(91, 91), Vec3::flat(2, 2), Vec3::one()),
    ];
    for (name, n, k, s) in cases {
        let img = ops::random(n, 1);
        group.bench_function(format!("output/{name}"), |b| {
            b.iter(|| black_box(max_filter_output(black_box(&img), k, s)))
        });
        for (label, which) in [("argmax", FilterImpl::Deque), ("heap", FilterImpl::Heap)] {
            group.bench_function(format!("{label}/{name}"), |b| {
                b.iter(|| black_box(max_filter(black_box(&img), k, s, which)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filter);
criterion_main!(benches);
