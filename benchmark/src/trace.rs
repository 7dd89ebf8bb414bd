//! Spans recorded from outside the program.
//!
//! The benchmark cannot open a span inside the crates it measures, so it
//! *peels the stack*: the same request is replayed at each depth through
//! that depth's public entry point, and the replay one depth down becomes
//! the child of the span above it. A layer's self time is then its span
//! minus what its children cover:
//!
//! * children with **different** names are sequential stages of the
//!   parent (fan-out, then merge) and their durations add;
//! * children with the **same** name are the parallel per-shard copies of
//!   one stage, so together they cover only the slowest copy's duration.
//!
//! Because parent and child come from different replays, a child can come
//! out longer than its parent. That excess is clamped out of the parent's
//! self time and summed as `overrun_ns`: the share of end-to-end time the
//! peel could not place.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request share this id.
    pub request: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Per-layer totals along each request's critical chain.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Waterfall {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub root_ns: u64,
    pub overrun_ns: u64,
}

impl Waterfall {
    /// Share of end-to-end time not placed in exactly one layer.
    pub fn unattributed_share(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.overrun_ns as f64 / self.root_ns as f64
        }
    }

    pub fn layer_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u32,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sums self times down every root's critical chain (the slowest
    /// child of each stage); the parallel copies that finished earlier
    /// overlap it and are not counted.
    pub fn waterfall(&self) -> Waterfall {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize].push(i as u32);
            }
        }
        let mut w = Waterfall::default();
        let mut stack: Vec<u32> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() {
                continue;
            }
            w.root_ns += s.dur();
            stack.push(i as u32);
            while let Some(id) = stack.pop() {
                let span = &self.spans[id as usize];
                // The slowest child of each stage.
                let mut stages: BTreeMap<&'static str, u32> = BTreeMap::new();
                for &c in &children[id as usize] {
                    let slot = stages.entry(self.spans[c as usize].name).or_insert(c);
                    if self.spans[c as usize].dur() > self.spans[*slot as usize].dur() {
                        *slot = c;
                    }
                }
                let covered: u64 = stages.values().map(|&c| self.spans[c as usize].dur()).sum();
                *w.self_ns.entry(span.name).or_insert(0) += span.dur().saturating_sub(covered);
                w.overrun_ns += covered.saturating_sub(span.dur());
                stack.extend(stages.values());
            }
        }
        w
    }

    /// Writes `{"spans":[{"id":..,"name":..,"start_ns":..,"end_ns":..,
    /// "parent":..,"request":..},..]}`.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        write!(out, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(out, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn sequential_stages_add_and_parallel_copies_overlap() {
        // serve = fan-out (two shards in parallel) then merge.
        let t = trace(vec![
            span("serve", 0, 100, None),
            span("shard", 200, 240, Some(0)),
            span("shard", 300, 360, Some(0)), // the slowest copy: 60
            span("merge", 400, 425, Some(0)),
            span("enumerate", 500, 545, Some(2)),
            span("enumerate", 600, 610, Some(1)), // off the critical chain
        ]);
        let w = t.waterfall();
        assert_eq!(w.root_ns, 100);
        assert_eq!(w.layer_ns("serve"), 100 - 60 - 25);
        assert_eq!(w.layer_ns("shard"), 60 - 45);
        assert_eq!(w.layer_ns("merge"), 25);
        assert_eq!(w.layer_ns("enumerate"), 45);
        assert_eq!(w.overrun_ns, 0);
        assert_eq!(w.self_ns.values().sum::<u64>(), w.root_ns);
        assert_eq!(w.unattributed_share(), 0.0);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_overrun_not_negative_time() {
        let t = trace(vec![
            span("serve", 0, 100, None),
            span("enumerate", 0, 130, Some(0)),
        ]);
        let w = t.waterfall();
        assert_eq!(w.layer_ns("serve"), 0);
        assert_eq!(w.layer_ns("enumerate"), 130);
        assert_eq!(w.overrun_ns, 30);
        assert!((w.unattributed_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn roots_accumulate_per_layer() {
        let t = trace(vec![
            span("serve", 0, 10, None),
            span("serve", 10, 30, None),
            span("enumerate", 0, 4, Some(1)),
        ]);
        let w = t.waterfall();
        assert_eq!(w.root_ns, 30);
        assert_eq!(w.layer_ns("serve"), 10 + 16);
        assert_eq!(w.layer_ns("enumerate"), 4);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let mut t = Trace::new();
        let now = Instant::now();
        let root = t.record("serve", now, now, None, 7);
        t.record("enumerate", now, now, Some(root), 7);
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0,\"request\":7"));
    }
}
