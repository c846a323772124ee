//! Deterministic virtual clock.
//!
//! All simulated time (startup time, quiescence time, state-transfer time,
//! benchmark durations) is accounted in nanoseconds on a [`VirtualClock`].
//! Costs are charged explicitly by the kernel and by the MCR runtime, which
//! makes timing experiments reproducible regardless of host load; wall-clock
//! measurements are layered on top by the benchmark harness where real
//! instruction counts matter (Table 3).

/// A point in simulated time, in nanoseconds since kernel boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(pub u64);

impl SimInstant {
    /// Nanoseconds elapsed since `earlier`. Saturates at zero.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// The duration expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

/// The kernel's monotonically increasing virtual clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> SimInstant {
        SimInstant(self.now)
    }

    /// Advances the clock by `d`.
    pub(crate) fn advance(&mut self, d: SimDuration) {
        self.now += d.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        let t0 = c.now();
        c.advance(SimDuration(5_000));
        c.advance(SimDuration(500));
        let t1 = c.now();
        assert_eq!(t1.duration_since(t0), SimDuration(5_500));
        assert_eq!(t0.duration_since(t1), SimDuration(0));
    }

    #[test]
    fn duration_conversions() {
        assert!((SimDuration(2_000_000).as_millis_f64() - 2.0).abs() < 1e-9);
        assert_eq!(SimDuration(1).saturating_add(SimDuration(2)), SimDuration(3));
    }
}
