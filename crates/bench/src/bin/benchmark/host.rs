//! The host-speed reference that set-up and closed-loop op times are scaled
//! by.
//!
//! On a shared host, neighbours change how fast this process runs: on the
//! 2-vCPU host the README's baselines come from, planner ops and a
//! memory-bound loop slowed and sped up together by up to 1.6× over minutes,
//! while a loop of dependent multiplies stayed within 2%. The reference is
//! therefore memory-bound: random read-modify-writes over a buffer four
//! times a core's L2. Timed right before and right after an op, it says how
//! fast the host let such code run around that op, and scaling the op's
//! wall time by `NOMINAL_MS / reference` removes most of the drift. Over ten
//! 25 s runs, the run-to-run spread of `plan-t2`'s median op time fell from
//! 13% (wall) to 1.8% (scaled) in a calm hour, and from 19% to 6% in a
//! noisy one.

use std::time::Instant;

/// The reference time scaled times are expressed at: about the reference's
/// median on the baseline host, so scaled and wall times read alike there.
pub const NOMINAL_MS: f64 = 5.0;
/// 8 MiB of words.
const WORDS: usize = 1 << 20;
/// Updates per pass: about 5 ms on the baseline host.
const UPDATES: u64 = 250_000;

pub struct HostRef {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl HostRef {
    /// Allocates and writes the whole buffer, so it stays resident for the
    /// rest of the process and adds exactly [`HostRef::bytes`] to its peak
    /// RSS.
    pub fn new() -> HostRef {
        HostRef {
            buf: (0..WORDS as u64).collect(),
            samples: Vec::new(),
        }
    }

    pub fn bytes(&self) -> u64 {
        (WORDS * std::mem::size_of::<u64>()) as u64
    }

    /// Times one pass of the reference, in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        // A full-period LCG modulo 2^20, so every pass visits distinct words.
        // The modulus is opaque to the compiler on purpose: with a hardware
        // division per step, this loop tracked the planner's slowdowns more
        // closely than the same loop with a mask or a pointer chase did.
        let len = std::hint::black_box(self.buf.len());
        let mut j = 1usize;
        for k in 0..UPDATES {
            j = j
                .wrapping_mul(2_862_933_555_777_941_757)
                .wrapping_add(3_037_000_493)
                % len;
            self.buf[j] = self.buf[j].wrapping_add(k);
        }
        std::hint::black_box(&mut self.buf);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// Every pass timed so far, in milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The factor that scales a duration measured between two reference passes
/// to the nominal host speed.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * NOMINAL_MS / (before_ms + after_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_bracketing_mean() {
        assert_eq!(scale(NOMINAL_MS, NOMINAL_MS), 1.0);
        // A host running memory-bound code at half speed doubles the
        // reference, so its op times are halved back.
        assert_eq!(scale(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), 0.5);
        assert_eq!(scale(4.0, 6.0), 1.0);
    }

    #[test]
    fn the_buffer_is_written_and_every_pass_is_recorded() {
        let mut host = HostRef::new();
        assert_eq!(host.bytes(), 8 << 20);
        assert!(host.buf.iter().enumerate().all(|(i, &w)| w == i as u64));
        let ms = host.time_ms();
        assert!(ms > 0.0);
        host.time_ms();
        assert_eq!(host.samples().len(), 2);
        assert_eq!(host.samples()[0], ms);
    }
}
