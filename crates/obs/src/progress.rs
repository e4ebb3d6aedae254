//! Live progress reporting: the `--progress` stderr ticker.
//!
//! [`ProgressSink`] is a [`Collector`] that watches the *live* worker
//! streams (the same side-channel as [`crate::trace::TraceCollector`], not
//! the deterministic [`crate::BufferCollector`] replay) and renders a
//! single-line ticker to stderr: units done / total, cumulative states
//! explored, graph-cache hit rate, elapsed time. Because the ticker reads
//! the real parallel schedule, its line contents are inherently
//! nondeterministic — which is exactly why progress data must never enter
//! the buffered stream that metrics and reports are built from. Workers
//! mark completed units by emitting the [`UNIT_DONE`] event *only* on their
//! live collector.
//!
//! Rendering is throttled (default 100 ms): a terminal gets `\r`-overwrite
//! updates, a pipe gets whole lines so logs and tests stay readable. The
//! final state is always flushed by [`ProgressSink::finish`], so even runs
//! shorter than the throttle interval produce one line.

use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::{Attrs, Collector};

/// Event name a worker emits on its live collector when one work unit
/// (a suite test, a mutant flow) is complete.
pub const UNIT_DONE: &str = "progress.unit_done";

/// Aggregates live worker activity and renders the stderr ticker.
pub struct ProgressSink {
    /// Short label for the run, e.g. `suite` or `mutate`.
    label: String,
    /// Total number of work units, when known (0 = unknown).
    total: u64,
    done: AtomicU64,
    states: AtomicU64,
    cache_requests: AtomicU64,
    cache_hits: AtomicU64,
    start: Instant,
    last_render: Mutex<Option<Instant>>,
    interval: Duration,
    tty: bool,
}

impl ProgressSink {
    /// A ticker for `total` work units under the given label.
    pub fn new(label: impl Into<String>, total: u64) -> Self {
        ProgressSink {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            states: AtomicU64::new(0),
            cache_requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            start: Instant::now(),
            last_render: Mutex::new(None),
            interval: Duration::from_millis(100),
            tty: std::io::stderr().is_terminal(),
        }
    }

    /// Overrides the render throttle (tests use a zero interval).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Number of completed units seen so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let mut line = if self.total > 0 {
            format!("progress: {} {done}/{}", self.label, self.total)
        } else {
            format!("progress: {} {done}", self.label)
        };
        let states = self.states.load(Ordering::Relaxed);
        if states > 0 {
            line.push_str(&format!(" · {states} states"));
        }
        let requests = self.cache_requests.load(Ordering::Relaxed);
        if requests > 0 {
            let hits = self.cache_hits.load(Ordering::Relaxed);
            line.push_str(&format!(
                " · cache {:.0}%",
                100.0 * hits as f64 / requests as f64
            ));
        }
        line.push_str(&format!(
            " · {}",
            crate::metrics::fmt_us(self.start.elapsed().as_micros() as u64)
        ));
        line
    }

    fn render(&self, force: bool) {
        {
            let mut last = match self.last_render.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if !force {
                if let Some(at) = *last {
                    if at.elapsed() < self.interval {
                        return;
                    }
                }
            }
            *last = Some(Instant::now());
        }
        let line = self.line();
        let mut err = std::io::stderr().lock();
        if self.tty {
            let _ = write!(err, "\r\x1b[2K{line}");
        } else {
            let _ = writeln!(err, "{line}");
        }
        let _ = err.flush();
    }

    /// Flushes the final ticker state (always renders, and terminates the
    /// `\r` line on a terminal).
    pub fn finish(&self) {
        self.render(true);
        if self.tty {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err);
            let _ = err.flush();
        }
    }
}

impl Collector for ProgressSink {
    fn counter(&self, name: &str, value: u64, _attrs: Attrs) {
        if name.starts_with("engine.") && name.ends_with(".states") {
            if !name.ends_with(".budget_states") {
                self.states.fetch_add(value, Ordering::Relaxed);
            }
        } else if name == "graph_cache.requests" {
            self.cache_requests.fetch_add(value, Ordering::Relaxed);
        } else if name == "graph_cache.hits" {
            self.cache_hits.fetch_add(value, Ordering::Relaxed);
        }
        self.render(false);
    }

    fn event(&self, name: &str, _attrs: Attrs) {
        if name == UNIT_DONE {
            self.done.fetch_add(1, Ordering::Relaxed);
        }
        self.render(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn counts_units_and_activity() {
        let p = ProgressSink::new("suite", 4).with_interval(Duration::from_secs(3600));
        p.event(UNIT_DONE, attrs![]);
        p.event(UNIT_DONE, attrs![]);
        p.event("verdict.proven", attrs![]); // not a unit
        p.counter("engine.full.states", 100, attrs![]);
        p.counter("engine.full.budget_states", 4096, attrs![]); // excluded
        p.counter("graph_cache.requests", 4, attrs![]);
        p.counter("graph_cache.hits", 3, attrs![]);
        assert_eq!(p.done(), 2);
        let line = p.line();
        assert!(line.contains("suite 2/4"), "{line}");
        assert!(line.contains("100 states"), "{line}");
        assert!(line.contains("cache 75%"), "{line}");
    }

    #[test]
    fn unknown_total_omits_the_denominator() {
        let p = ProgressSink::new("mutate", 0).with_interval(Duration::from_secs(3600));
        p.event(UNIT_DONE, attrs![]);
        let line = p.line();
        assert!(line.contains("mutate 1 "), "{line}");
        assert!(!line.contains("1/0"), "{line}");
    }
}
