//! A from-scratch radix-2 FFT and the spectral analysis the IceBreaker
//! baseline uses to predict function invocation periodicity.
//!
//! IceBreaker (Roy et al., ASPLOS '22) learns each function's invocation
//! period with a Fourier transform over its per-minute invocation counts
//! and pre-warms the function just before the next predicted invocation.
//! This crate supplies that dependency: a [`Complex`] type, an in-place
//! iterative Cooley–Tukey [`fft`]/[`ifft`] pair over a reusable
//! [`FftPlan`], a [`periodogram`], and [`dominant_period`] extraction —
//! allocation-free across calls through a [`PeriodFinder`].
//!
//! # Example
//!
//! ```
//! use cc_fft::dominant_period;
//!
//! // A clean periodic signal: spikes every 8 minutes.
//! let signal: Vec<f64> = (0..64).map(|i| if i % 8 == 0 { 1.0 } else { 0.0 }).collect();
//! assert_eq!(dominant_period(&signal), Some(8.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
#[cfg(test)]
mod reference;
mod spectrum;
mod transform;

pub use complex::Complex;
pub use spectrum::{dominant_period, periodogram, PeriodFinder};
pub use transform::{dft_naive, fft, ifft, FftPlan};
