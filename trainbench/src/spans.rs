//! In-memory span recorder for traced runs, exported as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"ddp.exchange"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Worker rank that ran the span.
    pub rank: usize,
    /// Training step, for spans inside a step.
    pub step: Option<usize>,
    /// Episode (one fresh cluster and model) the span belongs to.
    pub episode: usize,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans of one rank; recorders of all ranks merge at the end.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    rank: usize,
    episode: usize,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, rank: usize, episode: usize) -> Self {
        Recorder {
            epoch,
            rank,
            episode,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        step: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rank: self.rank,
            step,
            episode: self.episode,
        });
        self.spans.len() - 1
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of `spans[id]`: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (lo, hi) in kids {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    span.duration_ns() - covered
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON for `spans` (one complete `"X"` event per
/// span, one thread lane per rank). Parent links are relative to each
/// span's own recorder, so `spans` is one recorder's output or several
/// concatenated with `parent` already offset; `other` lands in
/// `otherData` as string pairs.
pub fn chrome_trace(spans: &[Span], other: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"trainbench\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}",
            json_string(s.name),
            s.episode,
            s.rank,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            self_time_ns(spans, i) as f64 / 1e3,
        );
        if let Some(step) = s.step {
            let _ = write!(out, ",\"step\":{step}");
        }
        if let Some(parent) = s.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in other.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push_str("}}");
    out
}

/// Concatenates per-rank span lists, offsetting parent indices so they
/// stay valid in the merged list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rank: 0,
            step: None,
            episode: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(15, 25, Some(1)),  // grandchild: not a direct child of 0
            span(90, 130, Some(0)), // sticks out past the parent
        ];
        // Covered: [10, 50) + [60, 70) + [90, 100) = 60.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
        assert_eq!(self_time_ns(&[span(5, 5, None)], 0), 0);
    }

    #[test]
    fn recorder_times_relative_to_epoch_and_merge_offsets_parents() {
        let epoch = Instant::now();
        let at = |us| epoch + Duration::from_micros(us);
        let mut r0 = Recorder::new(epoch, 0, 3);
        let step = r0.push("step", at(10), at(50), None, Some(1));
        r0.push("ddp.exchange", at(20), at(40), Some(step), Some(1));
        let mut r1 = Recorder::new(epoch, 1, 3);
        let step = r1.push("step", at(12), at(52), None, Some(1));
        r1.push("train.grad", at(12), at(30), Some(step), Some(1));
        let all = merge(vec![r0.into_spans(), r1.into_spans()]);
        assert_eq!(all[1].start_ns, 20_000);
        assert_eq!(all[1].duration_ns(), 20_000);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[3].rank, 1);
        assert_eq!(self_time_ns(&all, 0), 20_000);
        assert_eq!(self_time_ns(&all, 2), 22_000);
        let json = chrome_trace(&all, &[("seed", "7".into())]);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"step\""));
        assert!(json.contains("\"tid\":1,\"ts\":12.000,\"dur\":40.000"));
        assert!(json.contains("\"self_us\":22.000,\"step\":1}"));
        assert!(json.ends_with("\"otherData\":{\"seed\":\"7\"}}"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
