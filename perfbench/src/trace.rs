//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this package, around its calls into the
//! library crates: name, start, end, parent span and a run id (the batch
//! the span belongs to). Nothing inside the crates is instrumented. With
//! tracing off, [`Tracer::span`] just calls its closure.
//!
//! Self time is computed as a *wall share*: the timeline is cut at every
//! span boundary, and each elementary interval is split evenly among the
//! innermost spans open during it (spans with no open child). Spans on
//! parallel pool workers therefore share the wall instead of adding up
//! to a multiple of it, and the self times of all spans under a root sum
//! to that root's duration exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span; passed to children as their parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `load.run_shard`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`u64::MAX` while open).
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Batch (run) the span belongs to.
    pub run: u32,
}

/// The recorder. Shared by reference across pool workers.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id to pass to its children (or `None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: u64::MAX,
                parent: parent.map(|p| p.0),
                run,
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(id)));
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Wall-share self time per span index (see the module docs), in ns.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut share = vec![0.0; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut has_open_child = vec![false; spans.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        for (i, s) in spans.iter().enumerate() {
            open[i] = s.start <= a && s.end >= b;
            has_open_child[i] = false;
        }
        for (i, s) in spans.iter().enumerate() {
            if let (true, Some(p)) = (open[i], s.parent) {
                has_open_child[p] = true;
            }
        }
        let leaves: Vec<usize> = (0..spans.len())
            .filter(|&i| open[i] && !has_open_child[i])
            .collect();
        let dt = (b - a) as f64 / leaves.len().max(1) as f64;
        for i in leaves {
            share[i] += dt;
        }
    }
    share
}

/// Self time in seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns / 1e9;
    }
    out
}

/// Wall duration in seconds of every span called `name`, in order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .collect()
}

/// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `run`), one object per line, for the traced run's output file.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut s = String::new();
    for (i, sp) in spans.iter().enumerate() {
        s.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"run\": {}}}\n",
            sp.name,
            sp.start,
            sp.end,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.run
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn nested_self_time_excludes_children() {
        let spans = vec![span("root", 0, 100, None), span("child", 10, 40, Some(0))];
        let t = self_times(&spans);
        assert_eq!(t, vec![70.0, 30.0]);
    }

    #[test]
    fn parallel_children_share_the_wall() {
        // Two workers under one parent: 0..60 and 0..100. Overlap splits
        // evenly; the tail belongs to the straggler. Sum == root span.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 0, 100, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![0.0, 30.0, 70.0]);
        assert_eq!(t.iter().sum::<f64>(), 100.0);
    }
}
