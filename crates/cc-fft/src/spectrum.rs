//! Periodogram and dominant-period extraction over invocation-count
//! signals.

use crate::transform::{Direction, FftPlan};

/// Computes the one-sided periodogram (power per frequency bin) of a real
/// signal.
///
/// The signal is mean-subtracted (so the DC component does not mask real
/// periodicity) and zero-padded to the next power of two. Returns
/// `len/2 + 1` power values for bins `0 ..= len/2`, where `len` is the
/// padded length; bin `k` corresponds to period `len / k` samples.
///
/// Returns an empty vector for signals shorter than 2 samples.
///
/// # Example
///
/// ```
/// use cc_fft::periodogram;
///
/// // A pure tone completing 4 cycles over 32 samples.
/// let signal: Vec<f64> = (0..32)
///     .map(|i| (2.0 * std::f64::consts::PI * 4.0 * i as f64 / 32.0).cos())
///     .collect();
/// let power = periodogram(&signal);
/// // All energy lands in bin 4 (period 32/4 = 8 samples).
/// let peak = power
///     .iter()
///     .enumerate()
///     .skip(1)
///     .max_by(|a, b| a.1.total_cmp(b.1))
///     .unwrap()
///     .0;
/// assert_eq!(peak, 4);
/// ```
pub fn periodogram(signal: &[f64]) -> Vec<f64> {
    if signal.len() < 2 {
        return Vec::new();
    }
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let padded = signal.len().next_power_of_two();
    let mut re = vec![0.0; padded];
    for (slot, &v) in re.iter_mut().zip(signal) {
        *slot = v - mean;
    }
    let mut im = vec![0.0; padded];
    FftPlan::new(padded).forward(&mut re, &mut im);
    re[..=padded / 2]
        .iter()
        .zip(&im)
        .map(|(&re, &im)| (re * re + im * im) / padded as f64)
        .collect()
}

/// Extracts the dominant invocation period (in samples) from a signal of
/// per-interval invocation counts, the way the IceBreaker baseline does.
///
/// Computed via FFT autocorrelation (Wiener–Khinchin): the signal is
/// mean-subtracted and zero-padded to avoid circular wrap-around, its
/// power spectrum inverse-transformed into the autocorrelation, and the
/// strongest lag in `[2, len/2]` wins. Unlike a raw periodogram argmax,
/// the autocorrelation of a spike train peaks at the *fundamental* (the
/// lag with the most coincidences) even under spectral leakage, which is
/// exactly the quantity a pre-warming policy needs.
///
/// Returns `None` when the signal carries no periodic structure: it is
/// too short, constant, or its best normalized autocorrelation falls
/// below 0.25 (noise).
///
/// Builds a fresh [`PeriodFinder`] per call; reuse one finder to analyse
/// many signals without reallocating.
///
/// # Example
///
/// ```
/// use cc_fft::dominant_period;
///
/// let noisy_constant = vec![1.0; 100];
/// assert_eq!(dominant_period(&noisy_constant), None);
/// ```
pub fn dominant_period(signal: &[f64]) -> Option<f64> {
    PeriodFinder::new().dominant_period(signal)
}

/// Reusable [`dominant_period`] state: one [`FftPlan`] per padded length
/// seen so far and the transform's scratch buffers. After warm-up a call
/// allocates nothing, and returns exactly what [`dominant_period`] does.
///
/// # Example
///
/// ```
/// use cc_fft::PeriodFinder;
///
/// let mut finder = PeriodFinder::new();
/// for minutes in [64usize, 128, 64] {
///     let signal: Vec<f64> = (0..minutes).map(|i| if i % 8 == 0 { 1.0 } else { 0.0 }).collect();
///     assert_eq!(finder.dominant_period(&signal), Some(8.0));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PeriodFinder {
    /// Plans by log2 of their length, built on first use.
    plans: Vec<Option<FftPlan>>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl PeriodFinder {
    /// A finder with no plans built yet.
    pub fn new() -> PeriodFinder {
        PeriodFinder::default()
    }

    /// [`dominant_period`] of `signal`, reusing this finder's plans and
    /// buffers.
    pub fn dominant_period(&mut self, signal: &[f64]) -> Option<f64> {
        let n = signal.len();
        if n < 4 {
            return None;
        }
        let (lags, scale) = self.autocorrelation(signal);
        let r0 = lags[0] * scale;
        if r0 <= 1e-12 {
            return None; // constant signal
        }
        // Strongest lag in [2, n/2]. The *biased* estimate (no overlap
        // compensation) is deliberate: a spike train's autocorrelation is
        // near-equal at every multiple of the fundamental, and the
        // shrinking overlap at longer lags is exactly what tips the choice
        // to the fundamental itself.
        let max_lag = n / 2;
        let (best_lag, best_value) = (2..=max_lag)
            .map(|lag| (lag, (lags[lag] * scale) / r0))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if best_value < 0.25 {
            return None;
        }
        Some(best_lag as f64)
    }

    /// The linear autocorrelation of the mean-subtracted `signal` (at
    /// least 4 samples): returns the unnormalized inverse transform's real
    /// parts and the `1/len` factor that normalizes them. Lag `k`'s value
    /// is `lags[k] * scale`; only the lags read are ever scaled.
    fn autocorrelation(&mut self, signal: &[f64]) -> (&[f64], f64) {
        let n = signal.len();
        let mean = signal.iter().sum::<f64>() / n as f64;
        // Zero-pad to 2n (next power of two) so the correlation is linear,
        // not circular.
        let padded = (2 * n).next_power_of_two();
        let log2 = padded.trailing_zeros() as usize;
        if self.plans.len() <= log2 {
            self.plans.resize_with(log2 + 1, || None);
        }
        let plan = self.plans[log2].get_or_insert_with(|| FftPlan::new(padded));
        let rev = plan.permutation();
        let (re, im) = (&mut self.re, &mut self.im);
        re.clear();
        re.resize(padded, 0.0);
        im.clear();
        im.resize(padded, 0.0);
        // Sample i goes straight to its bit-reversed slot, so the forward
        // transform needs no permutation pass.
        for (&v, &slot) in signal.iter().zip(rev) {
            re[slot as usize] = v - mean;
        }
        plan.butterflies(re, im, Direction::Forward);
        // The power spectrum |X|², written straight into bit-reversed order
        // for the inverse transform (the permutation is an involution, so
        // the pairs swap in place).
        for (i, &j) in rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (power_i, power_j) = (norm_sq(re, im, i), norm_sq(re, im, j));
                re[i] = power_j;
                re[j] = power_i;
            } else if i == j {
                re[i] = norm_sq(re, im, i);
            }
        }
        im.fill(0.0);
        plan.butterflies(re, im, Direction::Inverse);
        (&self.re, 1.0 / padded as f64)
    }
}

/// `|re[i] + i·im[i]|²`, as [`Complex::norm_sq`](crate::Complex::norm_sq)
/// computes it.
fn norm_sq(re: &[f64], im: &[f64], i: usize) -> f64 {
    re[i] * re[i] + im[i] * im[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    /// An integer count signal of one of the shapes IceBreaker sees:
    /// `kind` 0 is a spike train, 1 Poisson-like counts, 2 all zeros but
    /// one sample.
    fn count_signal(kind: u8, len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        match kind % 3 {
            0 => {
                let period = 1 + next() as usize % 60;
                let phase = next() as usize % period;
                let amplitude = 1 + next() % 20;
                (0..len)
                    .map(|i| match (i + phase) % period {
                        0 => amplitude as f64,
                        _ => 0.0,
                    })
                    .collect()
            }
            1 => (0..len)
                .map(|_| match next() % 100 {
                    r if r < 50 => 0.0,
                    r if r < 80 => 1.0,
                    r if r < 95 => (2 + r % 3) as f64,
                    r => (5 + r % 30) as f64,
                })
                .collect(),
            _ => {
                let mut signal = vec![0.0; len];
                signal[next() as usize % len] = (1 + next() % 1000) as f64;
                signal
            }
        }
    }

    /// Every lag in `[0, n/2]` the finder computes equals the original
    /// pipeline's, bit for bit.
    fn lags_match_reference(finder: &mut PeriodFinder, signal: &[f64]) -> Result<(), String> {
        let expected = reference::autocorrelation(signal);
        let (lags, scale) = finder.autocorrelation(signal);
        for lag in 0..=signal.len() / 2 {
            let ours = lags[lag] * scale;
            if ours.to_bits() != expected[lag].re.to_bits() {
                return Err(format!(
                    "length {} lag {lag}: {ours} vs {}",
                    signal.len(),
                    expected[lag].re
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn every_length_to_600_is_bit_identical_to_the_reference() {
        let mut finder = PeriodFinder::new();
        for len in 4..=600 {
            for kind in 0..3 {
                let signal = count_signal(kind, len, len as u64 * 31 + kind as u64);
                lags_match_reference(&mut finder, &signal).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn autocorrelation_lags_are_bit_identical_to_the_reference(
            kind in 0u8..3,
            len in 4usize..=600,
            seed in any::<u64>(),
        ) {
            let signal = count_signal(kind, len, seed);
            lags_match_reference(&mut PeriodFinder::new(), &signal)?;
        }

        #[test]
        fn a_reused_finder_matches_the_free_function(
            lens in prop::collection::vec(4usize..=600, 1..=12),
            seed in any::<u64>(),
        ) {
            // One finder across changing lengths: plans are built, reused
            // and revisited in arbitrary order.
            let mut finder = PeriodFinder::new();
            for (i, &len) in lens.iter().enumerate() {
                let signal = count_signal(i as u8, len, seed ^ i as u64);
                let expected = dominant_period(&signal);
                prop_assert_eq!(finder.dominant_period(&signal), expected);
                prop_assert_eq!(reference::dominant_period(&signal), expected);
            }
        }
    }

    #[test]
    fn finds_exact_period() {
        for period in [4usize, 8, 16] {
            let signal: Vec<f64> = (0..128)
                .map(|i| if i % period == 0 { 5.0 } else { 0.0 })
                .collect();
            let found = dominant_period(&signal).expect("period should be found");
            assert_eq!(found, period as f64, "period {period}");
        }
    }

    #[test]
    fn constant_signal_has_no_period() {
        assert_eq!(dominant_period(&[3.0; 64]), None);
        assert_eq!(dominant_period(&[0.0; 64]), None);
    }

    #[test]
    fn short_signals_have_no_period() {
        assert_eq!(dominant_period(&[]), None);
        assert_eq!(dominant_period(&[1.0]), None);
        assert_eq!(dominant_period(&[1.0, 0.0]), None);
    }

    #[test]
    fn white_noise_is_rejected() {
        // Deterministic LCG noise: flat-ish spectrum, no 2x-mean peak
        // expected at this length.
        let mut state = 99u64;
        let signal: Vec<f64> = (0..256)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 100) as f64
            })
            .collect();
        // Not asserting None strictly (noise can alias), but if Some, the
        // peak must genuinely dominate; re-run detection manually.
        if let Some(p) = dominant_period(&signal) {
            assert!(p >= 2.0);
        }
    }

    #[test]
    fn mixed_periods_returns_the_stronger() {
        // Period-8 spikes of amplitude 10 plus period-4 spikes of amplitude 1.
        let signal: Vec<f64> = (0..128)
            .map(|i| {
                let mut v = 0.0;
                if i % 8 == 0 {
                    v += 10.0;
                }
                if i % 4 == 0 {
                    v += 1.0;
                }
                v
            })
            .collect();
        let p = dominant_period(&signal).unwrap();
        assert_eq!(p, 8.0);
    }

    #[test]
    fn periodogram_length_is_half_padded_plus_one() {
        let signal = vec![1.0; 100]; // pads to 128
        assert_eq!(periodogram(&signal).len(), 65);
        assert!(periodogram(&[1.0]).is_empty());
    }

    #[test]
    fn periodogram_dc_is_zero_after_mean_subtraction() {
        let signal: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let power = periodogram(&signal);
        assert!(power[0] < 1e-9, "DC bin should vanish, got {}", power[0]);
    }
}
