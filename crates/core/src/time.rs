//! Discrete logical time (§3.2, §4.1).
//!
//! The paper defines query evaluation over "a discrete and ordered time
//! domain T of time instants τ" (in the spirit of CQL) and assumes services
//! are deterministic *at a given instant*. We reify that as a `u64` logical
//! instant: every invocation function receives the instant, every simulated
//! service is a pure function of (service, instant, input), and the
//! continuous executor advances instants one tick at a time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A discrete time instant `τ ∈ T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(pub u64);

impl Instant {
    /// The origin of the time domain.
    pub const ZERO: Instant = Instant(0);

    /// The next instant.
    pub fn next(self) -> Instant {
        Instant(self.0 + 1)
    }

    /// Raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ={}", self.0)
    }
}

impl Add<u64> for Instant {
    type Output = Instant;
    fn add(self, rhs: u64) -> Instant {
        Instant(self.0 + rhs)
    }
}

impl AddAssign<u64> for Instant {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Instant> for Instant {
    type Output = u64;
    fn sub(self, rhs: Instant) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl From<u64> for Instant {
    fn from(t: u64) -> Self {
        Instant(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Instant(5);
        assert_eq!(t.next(), Instant(6));
        assert_eq!(t + 3, Instant(8));
        assert_eq!(Instant(8) - t, 3);
        assert_eq!(t - Instant(8), 0); // saturating
    }

    #[test]
    fn display() {
        assert_eq!(Instant(7).to_string(), "τ=7");
    }
}
