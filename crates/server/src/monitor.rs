//! Windowed busy-time utilization monitoring.

use geodns_simcore::SimTime;

/// Tracks a server's busy time and reports utilization over fixed sampling
/// windows (the paper's 8-second utilization interval).
///
/// Utilization of a window is the fraction of the window during which the
/// server was serving at least one hit, so it is always in `[0, 1]` — the
/// quantity whose per-window maximum across servers is the paper's headline
/// metric.
///
/// # Examples
///
/// ```
/// use geodns_server::UtilizationMonitor;
/// use geodns_simcore::SimTime;
///
/// let mut m = UtilizationMonitor::new(SimTime::ZERO);
/// m.set_busy(SimTime::from_secs(2.0), true);
/// m.set_busy(SimTime::from_secs(6.0), false);
/// let u = m.close_window(SimTime::from_secs(8.0));
/// assert!((u - 0.5).abs() < 1e-12, "busy 4 s of an 8 s window");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationMonitor {
    window_start: SimTime,
    busy_accum: f64,
    busy_since: Option<SimTime>,
    lifetime_busy: f64,
    lifetime_start: SimTime,
}

impl UtilizationMonitor {
    /// Creates a monitor whose first window starts at `start`, with the
    /// server idle.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        UtilizationMonitor {
            window_start: start,
            busy_accum: 0.0,
            busy_since: None,
            lifetime_busy: 0.0,
            lifetime_start: start,
        }
    }

    /// Records a busy/idle transition at time `now`. Redundant transitions
    /// (busy→busy) are ignored.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        match (self.busy_since, busy) {
            (None, true) => self.busy_since = Some(now),
            (Some(since), false) => {
                let span = now.since(since);
                self.busy_accum += span;
                self.lifetime_busy += span;
                self.busy_since = None;
            }
            _ => {}
        }
    }

    /// Whether the server is currently marked busy.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Closes the current window at `now`, returning its utilization and
    /// starting the next window. Returns the current busy state as
    /// utilization when the window has zero length.
    pub fn close_window(&mut self, now: SimTime) -> f64 {
        let window = now.since(self.window_start);
        // Fold any in-progress busy period into the window.
        if let Some(since) = self.busy_since {
            let span = now.since(since);
            self.busy_accum += span;
            self.lifetime_busy += span;
            self.busy_since = Some(now);
        }
        let util = if window > 0.0 {
            (self.busy_accum / window).clamp(0.0, 1.0)
        } else if self.busy_since.is_some() {
            1.0
        } else {
            0.0
        };
        self.window_start = now;
        self.busy_accum = 0.0;
        util
    }

    /// The lifetime average utilization since construction (or the last
    /// [`reset_lifetime`](Self::reset_lifetime)).
    #[must_use]
    pub fn lifetime_utilization(&self, now: SimTime) -> f64 {
        let span = now.since(self.lifetime_start);
        if span <= 0.0 {
            return if self.busy_since.is_some() { 1.0 } else { 0.0 };
        }
        let in_progress = self.busy_since.map_or(0.0, |s| now.since(s));
        ((self.lifetime_busy + in_progress) / span).clamp(0.0, 1.0)
    }

    /// Restarts lifetime accounting at `now` (used to discard warm-up).
    /// The current window is untouched: a busy period in progress is
    /// folded into it up to `now` before the lifetime restarts.
    pub fn reset_lifetime(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since {
            self.busy_accum += now.since(since);
            self.busy_since = Some(now);
        }
        self.lifetime_busy = 0.0;
        self.lifetime_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_window_is_zero() {
        let mut m = UtilizationMonitor::new(t(0.0));
        assert_eq!(m.close_window(t(8.0)), 0.0);
    }

    #[test]
    fn fully_busy_window_is_one() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(0.0), true);
        assert_eq!(m.close_window(t(8.0)), 1.0);
        // Still busy: the next window is fully busy too.
        assert_eq!(m.close_window(t(16.0)), 1.0);
    }

    #[test]
    fn partial_busy_fraction() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(1.0), true);
        m.set_busy(t(3.0), false);
        m.set_busy(t(5.0), true);
        m.set_busy(t(6.0), false);
        let u = m.close_window(t(8.0));
        assert!((u - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn busy_period_spanning_windows_splits() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(6.0), true);
        assert!((m.close_window(t(8.0)) - 0.25).abs() < 1e-12);
        m.set_busy(t(12.0), false);
        assert!((m.close_window(t(16.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn redundant_transitions_ignored() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(1.0), true);
        m.set_busy(t(2.0), true); // ignored: stays anchored at t=1
        m.set_busy(t(4.0), false);
        m.set_busy(t(5.0), false); // ignored
        assert!((m.close_window(t(8.0)) - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn lifetime_utilization_spans_windows() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(0.0), true);
        m.set_busy(t(4.0), false);
        let _ = m.close_window(t(8.0));
        let _ = m.close_window(t(16.0));
        assert!((m.lifetime_utilization(t(16.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reset_lifetime_discards_history() {
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(0.0), true);
        m.set_busy(t(10.0), false);
        m.reset_lifetime(t(10.0));
        assert_eq!(m.lifetime_utilization(t(20.0)), 0.0);
    }

    #[test]
    fn reset_lifetime_keeps_the_open_window() {
        // Busy from t=4 through a lifetime reset at t=6: the window closing
        // at t=8 still saw 4 busy seconds.
        let mut m = UtilizationMonitor::new(t(0.0));
        m.set_busy(t(4.0), true);
        m.reset_lifetime(t(6.0));
        assert!((m.close_window(t(8.0)) - 0.5).abs() < 1e-12);
        assert!((m.lifetime_utilization(t(8.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn is_busy_reflects_state() {
        let mut m = UtilizationMonitor::new(t(0.0));
        assert!(!m.is_busy());
        m.set_busy(t(1.0), true);
        assert!(m.is_busy());
    }
}
