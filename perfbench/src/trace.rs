//! Self time per layer from the `deepsplit_obs` trace.
//!
//! The benchmark wraps each public call it makes in a span named
//! `bench.<layer>...`. Spans the program records itself stay in the chrome
//! trace but are ignored here, so the split is the benchmark's view of the
//! layers and nothing else.

use deepsplit_obs::TraceEvent;
use std::collections::BTreeMap;

/// Prefix of every span the benchmark records.
pub const PREFIX: &str = "bench.";

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTime {
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Summed duration minus the benchmark spans directly inside it, µs.
    pub self_us: u64,
}

/// A span still open while walking one thread's spans in start order.
struct Open {
    name: &'static str,
    end_us: u64,
    dur_us: u64,
    child_us: u64,
}

/// Per-name totals and self times of the benchmark spans that started at
/// or after `since_us`.
pub fn self_times(events: &[TraceEvent], since_us: u64) -> BTreeMap<&'static str, SpanTime> {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.dur_us.is_some() && e.name.starts_with(PREFIX) && e.start_us >= since_us)
        .collect();
    // Per thread, a parent starts no later than its children and sits less
    // deep, so this order visits every parent before its children.
    spans.sort_by_key(|e| (e.tid, e.start_us, e.depth));
    let mut out: BTreeMap<&'static str, SpanTime> = BTreeMap::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut tid = None;
    for e in spans {
        let dur_us = e.dur_us.unwrap_or(0);
        if tid != Some(e.tid) {
            while let Some(open) = stack.pop() {
                close(&mut out, open);
            }
            tid = Some(e.tid);
        }
        while stack.last().is_some_and(|open| open.end_us <= e.start_us) {
            if let Some(open) = stack.pop() {
                close(&mut out, open);
            }
        }
        if let Some(parent) = stack.last_mut() {
            parent.child_us += dur_us;
        }
        stack.push(Open {
            name: e.name,
            end_us: e.start_us + dur_us,
            dur_us,
            child_us: 0,
        });
    }
    while let Some(open) = stack.pop() {
        close(&mut out, open);
    }
    out
}

fn close(out: &mut BTreeMap<&'static str, SpanTime>, open: Open) {
    let entry = out.entry(open.name).or_default();
    entry.total_us += open.dur_us;
    entry.self_us += open.dur_us.saturating_sub(open.child_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, depth: u32, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name,
            tid,
            depth,
            start_us,
            dur_us: Some(dur_us),
            value: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            span("bench.a", 0, 0, 0, 100),
            span("bench.b", 0, 1, 10, 30),
            span("bench.c", 0, 2, 15, 10),
            span("bench.b", 0, 1, 50, 20),
            // The program's own span is ignored; the benchmark span inside
            // it still counts as a's child.
            span("serve.attack", 0, 1, 75, 20),
            span("bench.d", 0, 2, 80, 5),
            span("bench.a", 1, 0, 0, 40),
        ];
        let t = self_times(&events, 0);
        assert_eq!(
            t["bench.a"],
            SpanTime {
                total_us: 140,
                self_us: 45 + 40
            }
        );
        assert_eq!(
            t["bench.b"],
            SpanTime {
                total_us: 50,
                self_us: 40
            }
        );
        assert_eq!(t["bench.c"].self_us, 10);
        assert_eq!(t["bench.d"].self_us, 5);
        assert!(!t.contains_key("serve.attack"));
        assert!(!self_times(&events, 60).contains_key("bench.a"));
    }
}
