//! Reproduces vba_design_space of the RoMe paper. The table is printed once, then the
//! underlying simulation kernel is timed by Criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!("\n{}", rome_bench::vba_design_space_table());
    c.bench_function("vba_design_space", |b| {
        b.iter(|| {
            black_box({
                let mut c = rome_core::RomeController::new(
                    rome_core::RomeControllerConfig::paper_default(),
                );
                rome_engine::simulate::run_to_completion(
                    &mut c,
                    rome_mc::workload::streaming_reads(0, 256 * 1024, 4096),
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
