//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each layer of qsyn. A span has a name, start, end, parent and job
//! id. Spans stay in memory until the run ends and are then written out as
//! JSON lines. A disabled tracer records nothing and reads no clock, so the
//! untraced run pays one branch per call site.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub job: u64,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    job: u64,
    start: u64,
}

impl Open<'_> {
    /// This span's id, for children (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end = self.tracer.now();
            self.tracer.spans.lock().expect("span lock").push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                job: self.job,
                start: self.start,
                end,
            });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u64, job: u64) -> Open<'_> {
        let (id, start) = if self.enabled {
            (self.next.fetch_add(1, Ordering::Relaxed), self.now())
        } else {
            (0, 0)
        };
        Open {
            tracer: self,
            id,
            parent,
            name,
            job,
            start,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.job, s.start, s.end
            ));
        }
        std::fs::write(path, out)
    }
}

/// Self time per span name, in seconds: a span's duration minus the part
/// of it that its children cover (children that overlap, such as jobs on
/// several workers under one round span, are merged before subtracting).
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(s.name).or_default() += (s.end - s.start - covered) as f64 / 1e9;
    }
    out
}

/// Total duration per span name, in seconds.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += (s.end - s.start) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            job: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(1, 0, "round", 0, 100),
            span(2, 1, "job", 10, 50),
            span(3, 1, "job", 40, 70),
            span(4, 2, "solve", 20, 30),
        ];
        let st = self_times(&spans);
        assert!((st["round"] - 40e-9).abs() < 1e-15);
        assert!((st["job"] - 60e-9).abs() < 1e-15);
        assert!((st["solve"] - 10e-9).abs() < 1e-15);
    }
}
