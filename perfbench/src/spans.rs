//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends, when
//! [`Tracer::to_json`] writes them out.

use std::time::Instant;

/// One closed interval of work: the layer call it timed, the request it
/// belongs to (step, job or frame index), and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the tracer is disabled.
#[must_use = "an opened span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder. While disabled, [`Tracer::begin`] and [`Tracer::end`]
/// record nothing and read no clock, so the same code path serves the
/// untraced blocks the tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in milliseconds of every closed span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-6)
            .collect()
    }

    /// Wall durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// All spans as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
                s.req,
                s.name,
                s.start_ns,
                s.duration_ns()
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", None, 0, 100),
            span("eval", Some(0), 10, 70),
            span("diag", Some(1), 20, 60),
            span("write", Some(0), 80, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("tick", None, 100, 200),
            span("a", Some(0), 90, 140),
            span("b", Some(0), 120, 160),
            span("c", Some(0), 190, 230),
        ];
        // Covered: [100,160) and [190,200) = 70 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 7);
        let inner = tr.begin("inner", 7);
        tr.end(inner);
        tr.end(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].req, 7);
        let total = tr.durations_ms("outer")[0];
        let own = tr.self_ms("outer")[0];
        assert!(own <= total);

        tr.set_enabled(false);
        let s = tr.begin("ignored", 1);
        tr.end(s);
        assert_eq!(tr.spans().len(), 2);
        assert!(tr.to_json().contains("\"name\":\"inner\""));
    }
}
