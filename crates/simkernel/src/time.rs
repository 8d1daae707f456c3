//! Simulated time for the semester simulation.
//!
//! The unit of time is the **minute** since the start of the semester
//! (week 0, day 0, 00:00). The course in the paper spans 14 weeks with
//! instructional content in the first 10, so the whole simulation fits
//! comfortably in a `u64` of minutes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Minutes in one hour.
pub const MINUTES_PER_HOUR: u64 = 60;
/// Minutes in one day.
pub const MINUTES_PER_DAY: u64 = 24 * MINUTES_PER_HOUR;
/// Minutes in one week.
pub const MINUTES_PER_WEEK: u64 = 7 * MINUTES_PER_DAY;

/// An instant in simulated time (minutes since semester start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time (minutes).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of the semester.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole weeks/days/hours/minutes into the semester.
    pub const fn at(week: u64, day: u64, hour: u64, minute: u64) -> Self {
        SimTime(week * MINUTES_PER_WEEK + day * MINUTES_PER_DAY + hour * MINUTES_PER_HOUR + minute)
    }

    /// Construct from fractional hours since semester start.
    pub fn from_hours_f64(hours: f64) -> Self {
        SimTime((hours * MINUTES_PER_HOUR as f64).round().max(0.0) as u64)
    }

    /// Week index (0-based) containing this instant.
    pub fn week(self) -> u64 {
        self.0 / MINUTES_PER_WEEK
    }

    /// Day-of-week (0-based) of this instant.
    pub fn day_of_week(self) -> u64 {
        (self.0 % MINUTES_PER_WEEK) / MINUTES_PER_DAY
    }

    /// Hour-of-day of this instant.
    pub fn hour_of_day(self) -> u64 {
        (self.0 % MINUTES_PER_DAY) / MINUTES_PER_HOUR
    }

    /// Total fractional hours since semester start.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_HOUR as f64
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span of whole minutes.
    pub fn minutes(m: u64) -> Self {
        SimDuration(m)
    }

    /// A span of whole hours.
    pub fn hours(h: u64) -> Self {
        SimDuration(h * MINUTES_PER_HOUR)
    }

    /// A span of fractional hours, rounded to the nearest minute.
    pub fn from_hours_f64(h: f64) -> Self {
        SimDuration((h * MINUTES_PER_HOUR as f64).round().max(0.0) as u64)
    }

    /// A span of whole days.
    pub fn days(d: u64) -> Self {
        SimDuration(d * MINUTES_PER_DAY)
    }

    /// A span of whole weeks.
    pub fn weeks(w: u64) -> Self {
        SimDuration(w * MINUTES_PER_WEEK)
    }

    /// The span as fractional hours — the unit of the paper's Table 1.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_HOUR as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "week {}, day {}, {:02}:{:02}",
            self.week(),
            self.day_of_week(),
            self.hour_of_day(),
            self.0 % MINUTES_PER_HOUR
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.0 / MINUTES_PER_HOUR;
        let m = self.0 % MINUTES_PER_HOUR;
        if h == 0 {
            write!(f, "{m}m")
        } else if m == 0 {
            write!(f, "{h}h")
        } else {
            write!(f, "{h}h{m:02}m")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_roundtrip() {
        let t = SimTime::at(3, 2, 14, 30);
        assert_eq!(t.week(), 3);
        assert_eq!(t.day_of_week(), 2);
        assert_eq!(t.hour_of_day(), 14);
        assert_eq!(format!("{t}"), "week 3, day 2, 14:30");
    }

    #[test]
    fn hours_conversion() {
        assert_eq!(SimDuration::hours(5).as_hours_f64(), 5.0);
        assert_eq!(SimDuration::from_hours_f64(2.5).0, 150);
        assert!((SimTime::from_hours_f64(1.5).as_hours_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::at(0, 0, 1, 0) + SimDuration::hours(2);
        assert_eq!(t.hour_of_day(), 3);
        assert_eq!((t - SimTime::at(0, 0, 1, 0)).as_hours_f64(), 2.0);
        // Subtraction saturates rather than underflowing.
        assert_eq!((SimTime::ZERO - t).0, 0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::at(0, 0, 5, 0);
        let b = SimTime::at(0, 0, 3, 0);
        assert_eq!(a.since(b).as_hours_f64(), 2.0);
        assert_eq!(b.since(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum_and_display() {
        let total: SimDuration = [SimDuration::hours(1), SimDuration::minutes(30)]
            .into_iter()
            .sum();
        assert_eq!(total.0, 90);
        assert_eq!(format!("{total}"), "1h30m");
        assert_eq!(format!("{}", SimDuration::minutes(45)), "45m");
        assert_eq!(format!("{}", SimDuration::hours(2)), "2h");
    }

    #[test]
    fn week_constructor() {
        assert_eq!(SimDuration::weeks(2).0, 2 * 7 * 24 * 60);
        assert_eq!(SimDuration::days(1).0, 24 * 60);
    }
}
