//! RAII scope timers.
//!
//! ```
//! # ahntp_telemetry::set_enabled(true);
//! {
//!     let _span = ahntp_telemetry::span!("spmm");
//!     // ... kernel work ...
//! } // drop records `span.spmm.us` and logs at trace level
//! ```

use std::time::Instant;

use crate::metrics::{counter_add, histogram_record};
use crate::trace::{frame_enter, frame_exit, KernelKind};
use crate::{enabled, log_enabled, log_message, Level};

/// A live span. Created by [`span!`](crate::span) or [`SpanGuard::enter`];
/// records its wall time on drop. When telemetry is disabled the guard is
/// inert (a `None` start) and drop does nothing.
///
/// When tracing is active (see [`crate::trace_active`]) the span also
/// participates in the hierarchical frame stack: it becomes the parent of
/// any [`crate::KernelSpan`] opened inside it, and is exported as a Chrome
/// trace event when `AHNTP_TRACE_OUT` is set. The two switches are
/// independent — metrics histograms and trace frames each cost one branch
/// when their side is off.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    traced: bool,
}

impl SpanGuard {
    /// Starts a span named `name`. `name` doubles as the log target, so
    /// `AHNTP_LOG=spmm=trace` shows only `spmm` span exits.
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = enabled().then(Instant::now);
        let traced = frame_enter(name, KernelKind::Other);
        SpanGuard { name, start, traced }
    }

    /// Wall time since the span started (zero when telemetry is off).
    pub fn elapsed_us(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.traced {
            frame_exit();
        }
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_micros() as u64;
        histogram_record(&format!("span.{}.us", self.name), us);
        counter_add(&format!("span.{}.calls", self.name), 1);
        if log_enabled(Level::Trace, self.name) {
            log_message(Level::Trace, self.name, &format!("span closed in {us}us"));
        }
    }
}

/// Opens a [`SpanGuard`] for the enclosing scope: `let _g = span!("spmm");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{metrics_snapshot, MetricValue};
    use crate::set_enabled;
    use std::sync::PoisonError;

    #[test]
    fn span_times_are_monotone_with_work() {
        let _gate = crate::GATE.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let short = {
            let g = SpanGuard::enter("test_span_short");
            std::thread::sleep(std::time::Duration::from_millis(2));
            g.elapsed_us()
        };
        let long = {
            let g = SpanGuard::enter("test_span_long");
            std::thread::sleep(std::time::Duration::from_millis(20));
            g.elapsed_us()
        };
        assert!(short >= 2_000, "short span under-measured: {short}us");
        assert!(long > short, "longer work must time longer: {long} <= {short}");
        // Drop recorded both into histograms.
        let snap = metrics_snapshot();
        match snap.get("span.test_span_long.us") {
            Some(MetricValue::Histogram(h)) => {
                assert!(h.count >= 1);
                assert!(h.max >= 20_000, "recorded {}us", h.max);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn disabled_span_is_inert() {
        let _gate = crate::GATE.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        let g = SpanGuard::enter("test_span_disabled");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(g.elapsed_us(), 0);
        drop(g);
        set_enabled(true);
        assert!(!metrics_snapshot().contains_key("span.test_span_disabled.us"));
    }
}
