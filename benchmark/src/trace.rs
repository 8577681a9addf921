//! Spans recorded from the benchmark's own files, around calls into each
//! layer.  Kept in memory during a traced run and written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share its id.
    pub request: Option<u64>,
    /// The duration was reported by the program (a response field), and
    /// the span was placed to end where its parent saw the result.
    pub reconstructed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant this trace's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to this trace's clock.
    pub fn at_ns(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A measured span without a request id.
    pub fn measured(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            request: None,
            reconstructed: false,
        })
    }

    /// Share of the `root`-named spans' time that no direct child covers,
    /// in percent.  Reconstructed children nest inside a measured sibling
    /// and are not counted twice.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let (Some(parent), false) = (span.parent, span.reconstructed) {
                covered[parent] += span.duration_ns();
            }
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == root {
                total += span.duration_ns();
                uncovered += span.duration_ns().saturating_sub(covered[i]);
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * uncovered as f64 / total as f64
        }
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match s.request {
                Some(r) => {
                    let _ = write!(out, ",\"request\":{r}");
                }
                None => out.push_str(",\"request\":null"),
            }
            if s.reconstructed {
                out.push_str(",\"reconstructed\":true");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_measured_children() {
        let mut t = Trace::new();
        let root = t.measured("request", "gen", 0, 1000, None);
        t.measured("net.encode_req", "net", 0, 100, Some(root));
        let wait = t.measured("net.wait", "net", 150, 900, Some(root));
        // Reported by the program, nested in the wait: not counted twice.
        t.push(Span {
            name: "serve.compute",
            layer: "serve",
            start_ns: 500,
            end_ns: 900,
            parent: Some(wait),
            request: Some(1),
            reconstructed: true,
        });
        t.measured("net.decode_resp", "net", 900, 950, Some(root));
        // Covered: 100 + 750 + 50 of 1000.
        assert!((t.unattributed_pct("request") - 10.0).abs() < 1e-9);
        assert_eq!(t.unattributed_pct("absent"), 0.0);
        assert_eq!(t.to_jsonl().lines().count(), 5);
        assert!(t.to_jsonl().contains("\"reconstructed\":true"));
    }
}
