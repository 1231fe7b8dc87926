//! Allocator ablation (§VII-C): pooled power-of-two recycling vs the
//! system allocator for image-sized buffers, through the RAII
//! `PoolSet` leases the training engine uses (storage returns on drop).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use znn_alloc::PoolSet;
use znn_tensor::{Tensor3, Vec3};

fn bench_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let shapes: Vec<Vec3> = (2..10).map(|s| Vec3::cube(s * 4)).collect();

    let set = PoolSet::new();
    for &s in &shapes {
        drop(set.image(s));
    }
    group.bench_function("poolset_lease", |b| {
        b.iter(|| {
            for &s in &shapes {
                // RAII lease: recycled on drop, no explicit put
                black_box(set.image(black_box(s)));
            }
        })
    });
    group.bench_function("system", |b| {
        b.iter(|| {
            for &s in &shapes {
                let img = Tensor3::<f32>::zeros(black_box(s));
                black_box(img);
            }
        })
    });
    group.finish();
}

/// Contention ablation: N threads hammer one shared `PoolSet` with
/// lease/recycle cycles of a fixed class (the worst case for the
/// pool's lock — every thread hits the same size-class free list).
/// Scaling t1 → t8 exposes how much of the §VII-C win survives
/// multi-worker training.
fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    let shape = Vec3::cube(32);
    const LEASES_PER_THREAD: usize = 64;
    for threads in [1usize, 2, 4, 8] {
        let set = PoolSet::new();
        // warm one chunk per thread so the steady state recycles
        let warm: Vec<_> = (0..threads).map(|_| set.image(shape)).collect();
        drop(warm);
        group.bench_function(format!("poolset_contended_t{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| {
                            for _ in 0..LEASES_PER_THREAD {
                                black_box(set.image(black_box(shape)));
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alloc, bench_contention);
criterion_main!(benches);
