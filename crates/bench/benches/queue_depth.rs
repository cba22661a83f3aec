//! Reproduces queue_depth of the RoMe paper. The table is printed once, then the
//! underlying simulation kernel is timed by Criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", rome_bench::queue_depth_table());
    c.bench_function("queue_depth", |b| {
        b.iter(|| {
            black_box({
                let mut c = rome_mc::ChannelController::new(
                    rome_mc::ControllerConfig::hbm4_with_queue_depth(16),
                );
                rome_engine::simulate::run_to_completion(
                    &mut c,
                    rome_mc::workload::streaming_reads(0, 64 * 1024, 32),
                )
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
