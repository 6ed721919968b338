//! Regenerates Figure 6: run-time speedups of formally verified candidates
//! over GCC, Clang and ICC, grouped by kernel category.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_bench::{quick_config, REPRESENTATIVE_KERNELS};
use lv_core::{figure6, table3, NoopObserver};

fn bench(c: &mut Criterion) {
    let config = quick_config(REPRESENTATIVE_KERNELS);
    let table = table3(&config, &NoopObserver);
    let fig = figure6(&config, &table.verdicts);
    println!(
        "\n=== Figure 6: speedups of verified candidates ===\n{}",
        fig.render()
    );
    println!("geomean: {:?}", fig.geomean());
    c.bench_function("fig6_speedup", |b| {
        b.iter(|| figure6(&config, &table.verdicts))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
