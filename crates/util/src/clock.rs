//! Simulated time.
//!
//! The RCB evaluation splits cleanly into network-bound metrics (M1–M4) and
//! CPU-bound metrics (M5/M6). Network-bound experiments run on *virtual*
//! time: a [`SimTime`] is a microsecond count since the start of the
//! simulation, and the discrete-event core in `rcb-sim` advances it. The
//! paper's content timestamps ("milliseconds since midnight of January 1,
//! 1970", §4.1.1) are derived from the same representation.
//!
//! Server code reads time through a [`Clock`]: the process wall clock in
//! deployment, a shared [`VirtualClock`] in the world sim. Nothing blocks
//! on virtual time — the sim's one-thread pump loop serves what is due,
//! then advances the clock to the next event — so the virtual clock is a
//! bare monotonic counter with no waiters to wake.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A point in simulated time, measured in microseconds from the simulation
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The wall-clock instant the simulation epoch is pinned to, in
    /// milliseconds since the Unix epoch: 2009-06-14 00:00:00 UTC, roughly
    /// the USENIX ATC '09 week.
    pub const WALL_EPOCH_MS: u64 = 1_244_937_600_000;

    /// Builds a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The paper's document timestamp: milliseconds since the Unix epoch.
    ///
    /// The simulation epoch is pinned to an arbitrary fixed wall-clock
    /// instant so that timestamps look like the ones RCB-Agent generates.
    pub fn as_document_timestamp(self) -> u64 {
        Self::WALL_EPOCH_MS + self.as_millis()
    }

    /// Builds the time whose document timestamp equals the given *real*
    /// wall-clock instant (milliseconds since the Unix epoch).
    ///
    /// The real-socket deployment maps `SystemTime::now()` into the
    /// timestamp domain with this constructor, so agent timestamps are the
    /// paper's "milliseconds since midnight of January 1, 1970" (§4.1.1)
    /// rather than a wrapped or shifted count. Instants before the pinned
    /// simulation epoch saturate to `SimTime::ZERO`.
    pub const fn from_unix_millis(ms: u64) -> SimTime {
        SimTime(ms.saturating_sub(Self::WALL_EPOCH_MS) * 1_000)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds (panics on negative/NaN).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be non-negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Converts a `std::time::Duration`, saturating at `u64::MAX` µs.
    pub fn from_duration(d: Duration) -> SimDuration {
        SimDuration(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }

    /// The equivalent `std::time::Duration`.
    pub const fn as_duration(self) -> Duration {
        Duration::from_micros(self.0)
    }
}

/// A shared virtual-time source: a monotonic microsecond counter that
/// only moves when somebody calls [`VirtualClock::advance_to`].
#[derive(Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at the simulation epoch.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_us.load(Ordering::SeqCst))
    }

    /// Moves time forward to `t` (monotonic: earlier targets are a no-op).
    pub fn advance_to(&self, t: SimTime) {
        self.now_us.fetch_max(t.0, Ordering::SeqCst);
    }

    /// Moves time forward by `d`; returns the new now.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let target = self.now() + d;
        self.advance_to(target);
        self.now()
    }
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtualClock({})", self.now())
    }
}

/// Process-wide wall anchor: one `(Instant, unix-millis)` pair captured on
/// first use, so wall-clock `now()` is **monotonic** (derived from
/// `Instant::elapsed`) while still reporting real epoch milliseconds.
fn wall_anchor() -> &'static (Instant, u64) {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    ANCHOR.get_or_init(|| {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_ms)
    })
}

/// The time source the server paths consult. Cloneable and cheap: either
/// the process wall clock (default — monotonic, anchored to real epoch
/// milliseconds so document timestamps stay §4.1.1-shaped) or a shared
/// [`VirtualClock`] under simulation.
#[derive(Clone, Default)]
pub struct Clock {
    inner: Option<Arc<VirtualClock>>,
}

impl Clock {
    /// The process wall clock.
    pub fn wall() -> Clock {
        Clock { inner: None }
    }

    /// A clock view over a shared virtual-time source.
    pub fn virtual_from(vc: Arc<VirtualClock>) -> Clock {
        Clock { inner: Some(vc) }
    }

    /// Creates a fresh virtual clock and a `Clock` view onto it.
    pub fn new_virtual() -> (Clock, Arc<VirtualClock>) {
        let vc = Arc::new(VirtualClock::new());
        (Clock::virtual_from(vc.clone()), vc)
    }

    /// The current time. Wall clocks report real epoch-anchored time but
    /// never go backwards (monotonic `Instant` base); virtual clocks
    /// report the shared counter.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(vc) => vc.now(),
            None => {
                let (base, unix_ms) = wall_anchor();
                SimTime::from_unix_millis(*unix_ms) + SimDuration::from_duration(base.elapsed())
            }
        }
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(vc) => write!(f, "Clock::virtual({})", vc.now()),
            None => write!(f, "Clock::wall"),
        }
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

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_millis(1_500);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_millis(), 1_750);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(SimTime::ZERO).as_millis(), 1_500);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn document_timestamp_is_wall_anchored() {
        let t = SimTime::from_secs(2);
        assert_eq!(t.as_document_timestamp(), 1_244_937_600_000 + 2_000);
    }

    #[test]
    fn from_unix_millis_roundtrips_document_timestamps() {
        // A 2026 wall-clock instant survives the round trip exactly — no
        // `% 1_000_000_000` wrap (which recurred every ~11.6 days).
        let ms = 1_785_000_000_123u64;
        assert_eq!(SimTime::from_unix_millis(ms).as_document_timestamp(), ms);
        // Instants before the pinned epoch saturate instead of underflowing.
        assert_eq!(SimTime::from_unix_millis(5), SimTime::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.0).as_micros(), 1_000_000);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis(), 10);
    }

    #[test]
    fn duration_interop_roundtrips() {
        let d = SimDuration::from_millis(1_234);
        assert_eq!(SimDuration::from_duration(d.as_duration()), d);
        assert_eq!(
            SimDuration::from_duration(Duration::from_micros(7)).as_micros(),
            7
        );
    }

    #[test]
    fn wall_clock_is_monotonic_and_epoch_anchored() {
        let clock = Clock::wall();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a, "wall now() must never go backwards");
        // Epoch-anchored: the document timestamp is a plausible real
        // unix-millis value (after the pinned 2009 epoch).
        assert!(a.as_document_timestamp() > SimTime::WALL_EPOCH_MS);
    }

    #[test]
    fn virtual_clock_only_moves_on_advance() {
        let (clock, vc) = Clock::new_virtual();
        assert_eq!(clock.now(), SimTime::ZERO);
        vc.advance_to(SimTime::from_millis(5));
        assert_eq!(clock.now(), SimTime::from_millis(5));
        // Monotonic: an earlier target is a no-op.
        vc.advance_to(SimTime::from_millis(3));
        assert_eq!(clock.now(), SimTime::from_millis(5));
        assert_eq!(
            vc.advance(SimDuration::from_millis(2)),
            SimTime::from_millis(7)
        );
    }
}
