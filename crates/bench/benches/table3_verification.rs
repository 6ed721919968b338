//! Regenerates Table 3: the equivalence-checking funnel
//! (Checksum / Alive2 / C-Unroll / Splitting).

use criterion::{criterion_group, criterion_main, Criterion};
use lv_bench::{quick_config, REPRESENTATIVE_KERNELS};
use lv_core::{table3, NoopObserver};

fn bench(c: &mut Criterion) {
    let table = table3(&quick_config(REPRESENTATIVE_KERNELS), &NoopObserver);
    println!(
        "\n=== Table 3: verification funnel (representative subset) ===\n{}",
        table.render()
    );
    let tiny = quick_config(&["s000", "s212", "s2711"]);
    c.bench_function("table3_verification_funnel", |b| {
        b.iter(|| table3(&tiny, &NoopObserver))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
