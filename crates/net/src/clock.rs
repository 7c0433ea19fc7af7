//! Simulated time.
//!
//! The paper's crawl starts on 2024-03-30 and lasts about one day; Topics
//! epochs are one week. Nothing in the workspace reads the wall clock:
//! every component takes a [`Timestamp`] produced by a [`SimClock`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Milliseconds in one second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds in one day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;
/// Milliseconds in one week (one Topics epoch).
pub const MILLIS_PER_WEEK: u64 = 7 * MILLIS_PER_DAY;

/// A point in simulated time, in milliseconds since the simulation origin.
///
/// The origin is defined to be 2023-06-01T00:00:00Z — the month Privacy
/// Sandbox enrolments began (the first attestation is dated June 16th,
/// 2023). The paper's crawl starts on 2024-03-30, which is
/// [`CRAWL_START_DAY`] days after the origin. [`Timestamp::to_date`]
/// converts accordingly for human-readable reports.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// Days from the simulation origin (2023-06-01) to the paper's crawl
/// start (2024-03-30).
pub const CRAWL_START_DAY: u64 = 303;

impl Timestamp {
    /// The simulation origin (2023-06-01T00:00:00Z).
    pub const ORIGIN: Timestamp = Timestamp(0);

    /// The paper's crawl start, 2024-03-30T00:00:00Z.
    pub const CRAWL_START: Timestamp = Timestamp(CRAWL_START_DAY * MILLIS_PER_DAY);

    /// Build a timestamp a number of whole days after the origin.
    pub fn from_days(days: u64) -> Self {
        Timestamp(days * MILLIS_PER_DAY)
    }

    /// Build a timestamp a number of whole weeks after the origin.
    pub fn from_weeks(weeks: u64) -> Self {
        Timestamp(weeks * MILLIS_PER_WEEK)
    }

    /// Milliseconds since the origin.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// The Topics epoch index this timestamp falls in (one week per epoch).
    pub fn epoch(self) -> u64 {
        self.0 / MILLIS_PER_WEEK
    }

    /// Advance by `ms` milliseconds.
    #[must_use]
    pub fn plus_millis(self, ms: u64) -> Self {
        Timestamp(self.0 + ms)
    }

    /// Advance by whole days.
    #[must_use]
    pub fn plus_days(self, days: u64) -> Self {
        Timestamp(self.0 + days * MILLIS_PER_DAY)
    }

    /// Saturating difference in milliseconds (`self - earlier`).
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Convert to a `(year, month, day)` civil date, interpreting the
    /// origin as 2024-03-30 (UTC). Uses the standard days-from-civil
    /// algorithm; valid across month/year boundaries and leap years.
    pub fn to_date(self) -> (i32, u32, u32) {
        // Days since 1970-01-01 for 2023-06-01 is 19509.
        const ORIGIN_DAYS_SINCE_UNIX: i64 = 19_509;
        let days = ORIGIN_DAYS_SINCE_UNIX + (self.0 / MILLIS_PER_DAY) as i64;
        civil_from_days(days)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_date();
        let rem = self.0 % MILLIS_PER_DAY;
        let h = rem / MILLIS_PER_HOUR;
        let min = (rem % MILLIS_PER_HOUR) / MILLIS_PER_MIN;
        let s = (rem % MILLIS_PER_MIN) / MILLIS_PER_SEC;
        write!(f, "{y:04}-{m:02}-{d:02}T{h:02}:{min:02}:{s:02}Z")
    }
}

/// Civil date from days since the Unix epoch (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// A monotonically advancing simulated clock.
///
/// The crawler advances the clock by a small amount per network exchange so
/// recorded timestamps are ordered and plausible; repeated-visit experiments
/// advance it by hours or days between rounds.
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// A clock starting at the simulation origin.
    pub fn new() -> Self {
        SimClock {
            now: Timestamp::ORIGIN,
        }
    }

    /// A clock starting at an arbitrary timestamp.
    pub fn starting_at(at: Timestamp) -> Self {
        SimClock { now: at }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advance the clock by `ms` milliseconds and return the new time.
    pub fn advance_millis(&mut self, ms: u64) -> Timestamp {
        self.now = self.now.plus_millis(ms);
        self.now
    }

    /// Jump to a later timestamp. Panics if `to` is in the past — the clock
    /// is monotone by construction.
    pub fn jump_to(&mut self, to: Timestamp) {
        assert!(
            to >= self.now,
            "SimClock may only move forward ({} -> {})",
            self.now,
            to
        );
        self.now = to;
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_june_2023_and_crawl_start_is_march_2024() {
        assert_eq!(Timestamp::ORIGIN.to_string(), "2023-06-01T00:00:00Z");
        assert_eq!(Timestamp::CRAWL_START.to_string(), "2024-03-30T00:00:00Z");
    }

    #[test]
    fn day_arithmetic_crosses_month() {
        // 2023-06-01 + 30 days = 2023-07-01
        let t = Timestamp::from_days(30);
        assert_eq!(t.to_date(), (2023, 7, 1));
        // The first attestation date: day 15 = 2023-06-16.
        assert_eq!(Timestamp::from_days(15).to_date(), (2023, 6, 16));
        // The October 2024 schema update: day 504 = 2024-10-17.
        assert_eq!(Timestamp::from_days(504).to_date(), (2024, 10, 17));
    }

    #[test]
    fn week_is_one_epoch() {
        assert_eq!(Timestamp::from_weeks(3).epoch(), 3);
        assert_eq!(Timestamp::from_weeks(3).plus_millis(1).epoch(), 3);
        assert_eq!(Timestamp::from_days(6).epoch(), 0);
        assert_eq!(Timestamp::from_days(7).epoch(), 1);
    }

    #[test]
    fn display_includes_time_of_day() {
        let t = Timestamp(MILLIS_PER_HOUR * 5 + MILLIS_PER_MIN * 4 + MILLIS_PER_SEC * 3);
        assert_eq!(t.to_string(), "2023-06-01T05:04:03Z");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        let a = c.advance_millis(10);
        let b = c.advance_millis(10);
        assert!(b > a);
        assert_eq!(c.now().millis(), 20);
    }

    #[test]
    #[should_panic(expected = "only move forward")]
    fn clock_rejects_backward_jump() {
        let mut c = SimClock::starting_at(Timestamp(100));
        c.jump_to(Timestamp(50));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Timestamp(5).since(Timestamp(10)), 0);
        assert_eq!(Timestamp(10).since(Timestamp(5)), 5);
    }

    #[test]
    fn leap_year_handling() {
        // 2024 is a leap year: 2023-06-01 + 366 days lands on 2024-06-01
        // (the span contains 2024-02-29).
        let t = Timestamp::from_days(366);
        assert_eq!(t.to_date(), (2024, 6, 1));
    }
}
