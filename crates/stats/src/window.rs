use std::collections::VecDeque;

use crate::{Result, StatsError};

/// The `c`-of-`w` sliding-window decision rule of the RoboADS decision
/// maker.
///
/// Raw χ² test outcomes are noisy: a bump in the floor or a transient
/// glitch can produce an isolated positive. The paper therefore raises an
/// alarm only when at least `c` (criteria) positives appear within the
/// last `w` (window size) iterations (§IV-D), and tunes `c/w = 2/2` for
/// sensor tests and `3/6` for actuator tests (§V-F).
///
/// # Example
///
/// ```
/// use roboads_stats::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3, 6).unwrap();
/// let inputs = [true, false, true, false, false, true];
/// let mut alarms = Vec::new();
/// for v in inputs {
///     alarms.push(w.push(v));
/// }
/// // Third positive arrives within the 6-wide window → alarm.
/// assert_eq!(alarms, [false, false, false, false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    criteria: usize,
    window: usize,
    history: VecDeque<bool>,
    positives: usize,
}

impl SlidingWindow {
    /// Creates a window requiring `criteria` positives within the last
    /// `window` pushes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `criteria == 0`,
    /// `window == 0`, or `criteria > window` (which could never fire).
    pub fn new(criteria: usize, window: usize) -> Result<Self> {
        if criteria == 0 || window == 0 || criteria > window {
            return Err(StatsError::InvalidParameter {
                name: "criteria/window",
                value: format!("{criteria}/{window}"),
            });
        }
        Ok(SlidingWindow {
            criteria,
            window,
            history: VecDeque::with_capacity(window),
            positives: 0,
        })
    }

    /// The decision criteria `c`.
    pub fn criteria(&self) -> usize {
        self.criteria
    }

    /// The window size `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes one test outcome and returns whether the window condition
    /// is met (`≥ c` positives among the last `w` outcomes).
    pub fn push(&mut self, positive: bool) -> bool {
        if self.history.len() == self.window && self.history.pop_front() == Some(true) {
            self.positives -= 1;
        }
        self.history.push_back(positive);
        if positive {
            self.positives += 1;
        }
        self.positives >= self.criteria
    }

    /// Current number of positives inside the window.
    pub fn positives(&self) -> usize {
        self.positives
    }

    /// Clears the window history.
    pub fn reset(&mut self) {
        self.history.clear();
        self.positives = 0;
    }

    /// The window history oldest-first, for snapshotting.
    pub fn history(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.history.iter().copied()
    }

    /// Replaces the window history (oldest-first), recomputing the
    /// positive count.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `history` is longer
    /// than the window size.
    pub fn restore_history(&mut self, history: &[bool]) -> Result<()> {
        if history.len() > self.window {
            return Err(StatsError::InvalidParameter {
                name: "history",
                value: format!("{} entries > window {}", history.len(), self.window),
            });
        }
        self.history.clear();
        self.history.extend(history.iter().copied());
        self.positives = history.iter().filter(|&&p| p).count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_of_one_passes_through() {
        let mut w = SlidingWindow::new(1, 1).unwrap();
        assert!(w.push(true));
        assert!(!w.push(false));
        assert!(w.push(true));
    }

    #[test]
    fn two_of_two_requires_consecutive() {
        let mut w = SlidingWindow::new(2, 2).unwrap();
        assert!(!w.push(true));
        assert!(!w.push(false));
        assert!(!w.push(true));
        assert!(w.push(true));
    }

    #[test]
    fn positives_expire_as_window_slides() {
        let mut w = SlidingWindow::new(2, 3).unwrap();
        assert!(!w.push(true));
        assert!(!w.push(false));
        assert!(w.push(true)); // [T F T] → 2 positives
        assert!(!w.push(false)); // [F T F] → 1 positive
        assert_eq!(w.positives(), 1);
    }

    #[test]
    fn transient_single_fault_is_suppressed() {
        // A single glitch inside a long clean run never fires a 2/2 window.
        let mut w = SlidingWindow::new(2, 2).unwrap();
        for i in 0..100 {
            let glitch = i == 50;
            assert!(!w.push(glitch), "fired at iteration {i}");
        }
    }

    #[test]
    fn persistent_anomaly_fires_with_delay_w() {
        let mut w = SlidingWindow::new(3, 6).unwrap();
        let mut first_alarm = None;
        for i in 0..10 {
            if w.push(true) && first_alarm.is_none() {
                first_alarm = Some(i);
            }
        }
        // Persistent positives fire at index c-1 = 2.
        assert_eq!(first_alarm, Some(2));
    }

    #[test]
    fn reset_clears_history() {
        let mut w = SlidingWindow::new(2, 2).unwrap();
        w.push(true);
        w.reset();
        assert_eq!(w.positives(), 0);
        assert!(!w.push(true));
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(SlidingWindow::new(0, 2).is_err());
        assert!(SlidingWindow::new(2, 0).is_err());
        assert!(SlidingWindow::new(3, 2).is_err());
    }
}
