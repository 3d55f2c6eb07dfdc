//! In-memory spans recorded from outside the program, around calls into
//! its public functions, and the arithmetic over them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` is the index of the span that was open when
/// this one began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: Option<u32>,
    pub client: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; nothing is written until the run is over.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: None,
        }
    }

    /// Tag the spans that follow with a federated round.
    pub fn set_round(&mut self, round: usize) {
        self.round = Some(round as u32);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index in [`Tracer::spans`]; spans opened
    /// before it closes become its children.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            client: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
    }

    /// Time one call.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Time one call made on behalf of a client.
    pub fn client_call<T>(
        &mut self,
        name: &'static str,
        client: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name);
        self.spans[id].client = Some(client as u32);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per span name: how many, their total duration and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write one JSON object per span.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"client\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            opt(s.round),
            opt(s.client),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: None,
            client: None,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("round", 0, 100, None),
            span("train", 10, 60, Some(0)),
            span("gemm", 20, 30, Some(1)),
            span("eval", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn self_time_is_never_negative() {
        // A child that (through clock granularity) outlasts its parent is
        // clipped to the parent's interval.
        let spans = [span("p", 10, 20, None), span("c", 5, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 35]);
        // Children that together exceed the parent saturate at zero.
        let spans = [
            span("p", 0, 10, None),
            span("a", 0, 10, Some(0)),
            span("b", 0, 10, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("train", 0, 10, None),
            span("gemm", 2, 6, Some(0)),
            span("train", 10, 30, None),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["train"],
            Total {
                count: 2,
                total_ns: 30,
                self_ns: 26
            }
        );
        assert_eq!(t["gemm"].total_ns, 4);
    }

    #[test]
    fn tracer_nests_spans_and_tags_them() {
        let mut t = Tracer::new();
        t.set_round(3);
        t.begin("outer");
        let v = t.client_call("inner", 7, || 41 + 1);
        t.end();
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[1].round, s[1].client), (Some(3), Some(7)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut spans = vec![span("a", 1, 2, None), span("b", 1, 2, Some(0))];
        spans[1].round = Some(4);
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"a\",\"start_ns\":1,\"end_ns\":2,\"parent\":null,\"round\":null,\"client\":null}\n\
             {\"name\":\"b\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"round\":4,\"client\":null}\n"
        );
    }
}
