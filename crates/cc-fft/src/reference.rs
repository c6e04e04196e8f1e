//! The original on-the-fly transform, kept verbatim as the bit-exactness
//! reference for [`FftPlan`](crate::FftPlan) and
//! [`PeriodFinder`](crate::PeriodFinder).

use std::f64::consts::PI;

use crate::Complex;

pub(crate) fn fft(data: &mut [Complex]) {
    fft_dir(data, false);
}

pub(crate) fn ifft(data: &mut [Complex]) {
    fft_dir(data, true);
    let n = data.len();
    if n > 0 {
        let scale = 1.0 / n as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }
}

fn fft_dir(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * PI / len as f64;
        let w_len = Complex::cis(angle);
        for chunk in data.chunks_exact_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

/// The original autocorrelation pipeline of `dominant_period`: the
/// normalized inverse transform of the zero-padded power spectrum, whose
/// `re` parts are the (scaled) autocorrelation lags.
pub(crate) fn autocorrelation(signal: &[f64]) -> Vec<Complex> {
    let n = signal.len();
    let mean = signal.iter().sum::<f64>() / n as f64;
    let padded = (2 * n).next_power_of_two();
    let mut data: Vec<Complex> = signal
        .iter()
        .map(|&v| Complex::from_real(v - mean))
        .chain(std::iter::repeat(Complex::ZERO))
        .take(padded)
        .collect();
    fft(&mut data);
    for v in data.iter_mut() {
        *v = Complex::from_real(v.norm_sq());
    }
    ifft(&mut data);
    data
}

/// The original `dominant_period` on top of [`autocorrelation`].
pub(crate) fn dominant_period(signal: &[f64]) -> Option<f64> {
    let n = signal.len();
    if n < 4 {
        return None;
    }
    let data = autocorrelation(signal);
    let r0 = data[0].re;
    if r0 <= 1e-12 {
        return None;
    }
    let max_lag = n / 2;
    let (best_lag, best_value) = (2..=max_lag)
        .map(|lag| (lag, data[lag].re / r0))
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    if best_value < 0.25 {
        return None;
    }
    Some(best_lag as f64)
}
