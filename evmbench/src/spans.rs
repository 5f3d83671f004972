//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the engine's
//! public functions — never inside the engine. Each span keeps its name,
//! start, end, parent and a trace id (the iteration number for a fleet
//! run, the cell id for a sweep cell). They stay in memory while the
//! workload runs and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorded spans of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id, for children to name as parent.
    /// A parent must be recorded before its children.
    pub fn push(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        debug_assert!(parent.is_none_or(|p| p < self.spans.len()));
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let start_ns = ns(start);
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: ns(end).max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span: the length of its interval that its children cover
    /// (children may overlap, e.g. cells on parallel workers).
    fn covered_by_children(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(parent, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = parent.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(parent.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            })
            .collect()
    }

    /// Self time in seconds, summed per span name: each span's duration
    /// minus the part of its interval its children cover.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(self.covered_by_children()) {
            *out.entry(s.name).or_insert(0.0) += (s.ns() - covered) as f64 * 1e-9;
        }
        out
    }

    /// Share of the root spans' time that their direct children (the
    /// top-level layer calls) cover.
    pub fn coverage(&self) -> f64 {
        let (mut num, mut den) = (0, 0);
        for (s, covered) in self.spans.iter().zip(self.covered_by_children()) {
            if s.parent.is_none() {
                num += covered;
                den += s.ns();
            }
        }
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.push("root", 0, None, at(0), at(100));
        // Two overlapping children cover [10, 70); a third covers [80, 90).
        tr.push("kid", 0, Some(root), at(10), at(50));
        tr.push("kid", 1, Some(root), at(30), at(70));
        tr.push("kid", 2, Some(root), at(80), at(90));
        let self_s = tr.self_time_by_name();
        assert!((self_s["root"] - 0.030).abs() < 1e-9);
        assert!((self_s["kid"] - 0.090).abs() < 1e-9);
        assert!((tr.coverage() - 0.7).abs() < 1e-9);
    }
}
