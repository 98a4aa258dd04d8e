//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into the repository
//! crates in a span named `<layer>.<call>`. Spans nest on the calling
//! thread; a span's *self time* is its duration minus the time its
//! children cover. Spans stay in memory and are written out as one JSON
//! document when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `kernels.run_benchmark_reusing`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// The layer prefix of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced phase runs the same code without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span, in nanoseconds, indexed like
    /// [`Tracer::spans`]. Children on one thread never overlap, so the
    /// part of a span its children cover is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns();
            }
        }
        own
    }

    /// Self time summed per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by_layer.entry(span.layer()).or_insert(0) += own;
        }
        by_layer
    }

    /// The spans as a JSON document:
    /// `{"spans":[{"name":..,"start_ns":..,"end_ns":..,"self_ns":..,"parent":..,"op":..}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, own, parent, span.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::enabled();
        tracer.span("bench.outer", |t| {
            t.span("kernels.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = tracer.self_times_ns();
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
        assert!(own[1] >= 2_000_000);
        assert_eq!(tracer.self_ns_by_layer().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        let v = tracer.span("bench.x", |_| 7);
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }
}
