//! Iterative radix-2 Cooley–Tukey FFT on precomputed plans.

use std::f64::consts::PI;

use crate::Complex;

/// Transform direction of one [`FftPlan`] pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    /// `X[k] = Σ x[n]·e^(-2πi·kn/N)`.
    Forward,
    /// `x[n] = Σ X[k]·e^(+2πi·kn/N)`, before the `1/N` normalization.
    Inverse,
}

/// Per-stage twiddle factors in structure-of-arrays layout. The stage of
/// butterfly span `half` owns entries `half - 1 .. 2 * half - 1`.
#[derive(Debug, Clone)]
struct Twiddles {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Twiddles {
    /// Fills every stage by the recurrence `w ← w · e^(±2πi/len)` from
    /// `w = 1`: the factors an on-the-fly butterfly loop would compute,
    /// bit for bit, hoisted out of the transform.
    fn new(n: usize, direction: Direction) -> Twiddles {
        let sign = match direction {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut re = Vec::with_capacity(n - 1);
        let mut im = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let angle = sign * 2.0 * PI / len as f64;
            let w_len = Complex::cis(angle);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                re.push(w.re);
                im.push(w.im);
                w = w * w_len;
            }
            len <<= 1;
        }
        Twiddles { re, im }
    }
}

/// Precomputed tables for in-place transforms of one power-of-two length:
/// the bit-reversal permutation and both directions' twiddle factors.
///
/// Building a plan costs one transform's worth of complex multiplies;
/// reusing it removes the twiddle recurrence (one complex multiply per
/// butterfly, and a loop-carried dependency) from every transform. The
/// tables hold exactly the factors the textbook loop computes on the fly,
/// and each butterfly keeps its operations and their order
/// (`v = b·w; a' = u + v; b' = u − v`), so results are bit-identical to
/// that loop.
///
/// Data is split into real and imaginary slices (structure of arrays).
///
/// # Example
///
/// ```
/// use cc_fft::FftPlan;
///
/// let plan = FftPlan::new(4);
/// let (mut re, mut im) = (vec![1.0; 4], vec![0.0; 4]);
/// plan.forward(&mut re, &mut im);
/// assert_eq!(re, [4.0, 0.0, 0.0, 0.0]);
/// plan.inverse(&mut re, &mut im);
/// assert_eq!(re, [1.0; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// `rev[i]` is `i` with its `log2(len)` low bits reversed.
    rev: Vec<u32>,
    forward: Twiddles,
    inverse: Twiddles,
}

impl FftPlan {
    /// Builds the plan for transforms of `len` points.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two (or exceeds `2^32`).
    pub fn new(len: usize) -> FftPlan {
        assert!(
            len.is_power_of_two(),
            "FFT length {len} must be a power of two"
        );
        let bits = len.trailing_zeros();
        assert!(bits <= 32, "FFT length {len} exceeds 2^32");
        let rev = (0..len as u64)
            .map(|i| match bits {
                0 => 0,
                _ => (i.reverse_bits() >> (64 - bits)) as u32,
            })
            .collect();
        FftPlan {
            rev,
            forward: Twiddles::new(len, Direction::Forward),
            inverse: Twiddles::new(len, Direction::Inverse),
        }
    }

    fn size(&self) -> usize {
        self.rev.len()
    }

    /// In-place forward FFT of `re + i·im`, natural order in and out.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the plan's.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        self.permute(re, im);
        self.butterflies(re, im, Direction::Forward);
    }

    /// In-place inverse FFT of `re + i·im`, including the `1/N`
    /// normalization, so `inverse(forward(x)) == x` up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the plan's.
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        self.permute(re, im);
        self.butterflies(re, im, Direction::Inverse);
        let scale = 1.0 / self.size() as f64;
        for v in re.iter_mut().chain(im.iter_mut()) {
            *v *= scale;
        }
    }

    /// The bit-reversal permutation: `permutation()[i]` is the slot input
    /// sample `i` occupies before the butterfly stages.
    pub(crate) fn permutation(&self) -> &[u32] {
        &self.rev
    }

    /// Reorders natural-order data into bit-reversed order (an involution).
    fn permute(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_len(re, im);
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
    }

    fn check_len(&self, re: &[f64], im: &[f64]) {
        assert!(
            re.len() == self.size() && im.len() == self.size(),
            "FFT plan of length {} given slices of {} and {}",
            self.size(),
            re.len(),
            im.len()
        );
    }

    /// The butterfly stages over data already in bit-reversed order.
    pub(crate) fn butterflies(&self, re: &mut [f64], im: &mut [f64], direction: Direction) {
        self.check_len(re, im);
        let tw = match direction {
            Direction::Forward => &self.forward,
            Direction::Inverse => &self.inverse,
        };
        let mut half = 1;
        while half < self.size() {
            // Spans 1 and 2 get constant-folded copies of the stage: their
            // chunks are too short for the general loop's overhead.
            match half {
                1 => stage(re, im, tw, 1),
                2 => stage(re, im, tw, 2),
                _ => stage(re, im, tw, half),
            }
            half <<= 1;
        }
    }
}

/// One butterfly stage of span `half` over every `2 * half` chunk.
#[inline(always)]
fn stage(re: &mut [f64], im: &mut [f64], tw: &Twiddles, half: usize) {
    let w_re = &tw.re[half - 1..2 * half - 1];
    let w_im = &tw.im[half - 1..2 * half - 1];
    let chunks = re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half));
    for (c_re, c_im) in chunks {
        let (a_re, b_re) = c_re.split_at_mut(half);
        let (a_im, b_im) = c_im.split_at_mut(half);
        // Re-borrowed to `half` so the loop indexes without checks.
        let (b_re, b_im) = (&mut b_re[..half], &mut b_im[..half]);
        let (w_re, w_im) = (&w_re[..half], &w_im[..half]);
        for k in 0..half {
            // v = b·w with Complex's multiply, then u ± v.
            let v_re = b_re[k] * w_re[k] - b_im[k] * w_im[k];
            let v_im = b_re[k] * w_im[k] + b_im[k] * w_re[k];
            let (u_re, u_im) = (a_re[k], a_im[k]);
            a_re[k] = u_re + v_re;
            a_im[k] = u_im + v_im;
            b_re[k] = u_re - v_re;
            b_im[k] = u_im - v_im;
        }
    }
}

/// In-place forward FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^(-2πi·kn/N)` for a power-of-two length.
/// Builds an [`FftPlan`] per call; reuse a plan to transform many signals
/// of one length.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (zero-length is allowed).
///
/// # Example
///
/// ```
/// use cc_fft::{fft, Complex};
///
/// let mut data = vec![Complex::ONE; 4];
/// fft(&mut data);
/// // A constant signal concentrates all energy in bin 0.
/// assert!((data[0].re - 4.0).abs() < 1e-12);
/// assert!(data[1].abs() < 1e-12);
/// ```
pub fn fft(data: &mut [Complex]) {
    transform(data, FftPlan::forward);
}

/// In-place inverse FFT (includes the `1/N` normalization, so
/// `ifft(fft(x)) == x`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (zero-length is allowed).
pub fn ifft(data: &mut [Complex]) {
    transform(data, FftPlan::inverse);
}

/// Runs one plan pass over interleaved complex data.
fn transform(data: &mut [Complex], pass: fn(&FftPlan, &mut [f64], &mut [f64])) {
    if data.is_empty() {
        return;
    }
    let plan = FftPlan::new(data.len());
    let mut re: Vec<f64> = data.iter().map(|z| z.re).collect();
    let mut im: Vec<f64> = data.iter().map(|z| z.im).collect();
    pass(&plan, &mut re, &mut im);
    for (z, (&re, &im)) in data.iter_mut().zip(re.iter().zip(&im)) {
        *z = Complex::new(re, im);
    }
}

/// Naive `O(n²)` DFT used as a reference implementation in tests and for
/// non-power-of-two lengths.
///
/// Allocates and returns the spectrum rather than transforming in place.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &x) in data.iter().enumerate() {
                let theta = -2.0 * PI * (k * i) as f64 / n as f64;
                acc += x * Complex::cis(theta);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "bin {i}: {x} vs {y}");
        }
    }

    /// Bitwise equality of two spectra, component by component.
    fn bits_equal(a: &[Complex], b: &[Complex]) -> Result<(), String> {
        if a.len() != b.len() {
            return Err(format!("lengths {} vs {}", a.len(), b.len()));
        }
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x.re.to_bits() != y.re.to_bits() || x.im.to_bits() != y.im.to_bits() {
                return Err(format!("length {} bin {i}: {x} vs {y}", a.len()));
            }
        }
        Ok(())
    }

    /// Deterministic pseudo-random complex data for a given length.
    fn lcg_data(n: usize, seed: u64) -> Vec<Complex> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2e3 - 1e3
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    #[test]
    fn matches_naive_dft() {
        let data: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expected = dft_naive(&data);
        let mut actual = data.clone();
        fft(&mut actual);
        assert_close(&actual, &expected, 1e-9);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        fft(&mut data);
        for bin in &data {
            assert!((bin.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut data: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        fft(&mut data);
        for (k, bin) in data.iter().enumerate() {
            if k == k0 {
                assert!((bin.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let mut empty: Vec<Complex> = vec![];
        fft(&mut empty);
        ifft(&mut empty);
        let mut one = vec![Complex::new(3.0, -1.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex::new(3.0, -1.0));
        ifft(&mut one);
        assert_eq!(one[0], Complex::new(3.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 12];
        fft(&mut data);
    }

    #[test]
    #[should_panic(expected = "given slices")]
    fn plan_rejects_mismatched_slices() {
        let plan = FftPlan::new(8);
        plan.forward(&mut [0.0; 8], &mut [0.0; 4]);
    }

    #[test]
    fn parseval_energy_conservation() {
        let data: Vec<Complex> = (0..128)
            .map(|i| Complex::new(((i * 37) % 11) as f64 - 5.0, 0.0))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sq()).sum();
        let mut spec = data.clone();
        fft(&mut spec);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn every_length_to_2048_is_bit_identical_to_the_reference() {
        for log_n in 0..=11 {
            let n = 1usize << log_n;
            let data = lcg_data(n, 17 + log_n as u64);
            let (mut ours, mut theirs) = (data.clone(), data.clone());
            fft(&mut ours);
            reference::fft(&mut theirs);
            bits_equal(&ours, &theirs).unwrap();
            ifft(&mut ours);
            reference::ifft(&mut theirs);
            bits_equal(&ours, &theirs).unwrap();
        }
    }

    proptest! {
        #[test]
        fn ifft_inverts_fft(
            values in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=128),
        ) {
            // Round length down to a power of two.
            let n = values.len().next_power_of_two() / 2;
            prop_assume!(n >= 1);
            let original: Vec<Complex> =
                values[..n].iter().map(|&(re, im)| Complex::new(re, im)).collect();
            let mut data = original.clone();
            fft(&mut data);
            ifft(&mut data);
            for (a, b) in data.iter().zip(&original) {
                prop_assert!((*a - *b).abs() < 1e-8);
            }
        }

        #[test]
        fn fft_is_linear(
            pairs in prop::collection::vec((-100f64..100.0, -100f64..100.0), 16),
            alpha in -10f64..10.0,
        ) {
            let x: Vec<Complex> = pairs.iter().map(|&(a, _)| Complex::from_real(a)).collect();
            let y: Vec<Complex> = pairs.iter().map(|&(_, b)| Complex::from_real(b)).collect();
            let combined: Vec<Complex> = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| a.scale(alpha) + b)
                .collect();

            let (mut fx, mut fy, mut fc) = (x.clone(), y.clone(), combined.clone());
            fft(&mut fx);
            fft(&mut fy);
            fft(&mut fc);
            for ((a, b), c) in fx.iter().zip(&fy).zip(&fc) {
                prop_assert!((a.scale(alpha) + *b - *c).abs() < 1e-6);
            }
        }

        #[test]
        fn fft_and_ifft_are_bit_identical_to_the_reference(
            log_n in 0u32..=11,
            seed in any::<u64>(),
        ) {
            let data = lcg_data(1 << log_n, seed);
            let (mut ours, mut theirs) = (data.clone(), data.clone());
            fft(&mut ours);
            reference::fft(&mut theirs);
            if let Err(e) = bits_equal(&ours, &theirs) {
                return Err(format!("fft: {e}"));
            }
            ifft(&mut ours);
            reference::ifft(&mut theirs);
            if let Err(e) = bits_equal(&ours, &theirs) {
                return Err(format!("ifft: {e}"));
            }
        }
    }
}
