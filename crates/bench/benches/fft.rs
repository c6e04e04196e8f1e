//! FFT micro-benchmarks: the transform and the dominant-period extraction
//! the IceBreaker baseline runs per function.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cc_fft::{dominant_period, fft, Complex, FftPlan, PeriodFinder};

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for log_n in [8u32, 10, 12] {
        let n = 1usize << log_n;
        group.throughput(Throughput::Elements(n as u64));
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        // The free function builds its plan per call; the plan row is the
        // transform alone. Inputs are restored by copying into buffers
        // sized once, so no row times the allocator for its input.
        let mut buf = data.clone();
        group.bench_with_input(BenchmarkId::new("free", n), &data, |b, data| {
            b.iter(|| {
                buf.copy_from_slice(data);
                fft(&mut buf);
                buf[1]
            })
        });
        let plan = FftPlan::new(n);
        let re: Vec<f64> = data.iter().map(|z| z.re).collect();
        let im: Vec<f64> = data.iter().map(|z| z.im).collect();
        let (mut buf_re, mut buf_im) = (re.clone(), im.clone());
        group.bench_function(BenchmarkId::new("plan", n), |b| {
            b.iter(|| {
                buf_re.copy_from_slice(&re);
                buf_im.copy_from_slice(&im);
                plan.forward(&mut buf_re, &mut buf_im);
                buf_re[1]
            })
        });
    }
    group.finish();
}

fn bench_dominant_period(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominant_period");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for minutes in [120usize, 480, 1440] {
        let signal: Vec<f64> = (0..minutes)
            .map(|i| if i % 7 == 0 { 3.0 } else { 0.0 })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(minutes),
            &signal,
            |b, signal| b.iter(|| dominant_period(signal)),
        );
    }
    group.finish();
}

/// IceBreaker's per-call cost: one refresh analyses histories of many
/// lengths, so one `PeriodFinder` is reused across them (its plans and
/// buffers warm), against the free function that rebuilds both per call.
fn bench_dominant_period_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominant_period_sweep");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let signals: Vec<Vec<f64>> = [60usize, 240, 480]
        .iter()
        .map(|&minutes| {
            (0..minutes)
                .map(|i| if i % 7 == 0 { 3.0 } else { (i % 3) as f64 })
                .collect()
        })
        .collect();
    group.throughput(Throughput::Elements(signals.len() as u64));
    group.bench_function("free", |b| {
        b.iter(|| {
            signals
                .iter()
                .filter_map(|signal| dominant_period(signal))
                .sum::<f64>()
        })
    });
    let mut finder = PeriodFinder::new();
    group.bench_function("finder", |b| {
        b.iter(|| {
            signals
                .iter()
                .filter_map(|signal| finder.dominant_period(signal))
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_dominant_period,
    bench_dominant_period_sweep
);
criterion_main!(benches);
