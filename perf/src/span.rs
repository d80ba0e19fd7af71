//! Spans around the calls the harness makes into each layer.
//!
//! The tracer lives in the harness, not in the program: a span opens just
//! before a public function of a layer crate is called and closes when it
//! returns, so a layer's time is what its callers see from outside. With
//! tracing off `enter`/`exit` are a branch each, and every end-to-end
//! metric is taken that way.

use olden_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval of harness time spent inside a named call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `analysis.parse` — the layer is the crate name.
    pub name: &'static str,
    /// What the call worked on (a kernel name), or "" when the name says
    /// it all.
    pub arg: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The round the span belongs to; spans of one round share it.
    pub round_id: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Switch recording on or off; returns the previous setting.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, arg: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            arg,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round_id: self.round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Time one call.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, arg: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, arg);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover. Children of one parent never overlap (one
    /// harness thread), so the covered part is the sum of their durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                own[p as usize] = own[p as usize].saturating_sub(dur);
            }
        }
        own
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end_ns.saturating_sub(s.start_ns);
            a.self_ns += own;
        }
        out
    }

    /// Durations (ms) of the spans called `name`, grouped by their `arg`.
    pub fn durations_ms_by_arg(&self, name: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.arg)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microsecond stamps) of
    /// the spans of rounds below `max_rounds` — enough rounds to read, few
    /// enough to load.
    pub fn chrome_json(&self, process: &str, max_rounds: u32) -> String {
        let mut events = vec![Json::Obj(vec![
            ("name".into(), Json::str("process_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::u64(1)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::str(process))]),
            ),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            if s.round_id >= max_rounds {
                continue;
            }
            let label = if s.arg.is_empty() {
                s.name.to_string()
            } else {
                format!("{} {}", s.name, s.arg)
            };
            let parent = s.parent.map_or(Json::Null, |p| Json::u64(p.into()));
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(label)),
                ("cat".into(), Json::str(layer_of(s.name))),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Json::u64(1)),
                ("tid".into(), Json::u64(1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::u64(i as u64)),
                        ("parent".into(), parent),
                        ("round_id".into(), Json::u64(s.round_id.into())),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
    }
}

/// The layer (crate) a span name belongs to: the part before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                arg: "",
                start_ns,
                end_ns,
                parent,
                round_id: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // job [0,100): parse [10,30) and lower [30,70) are adjacent
        // children; check [40,50) nests inside lower.
        let t = tracer_with(&[
            ("h.job", 0, 100, None),
            ("a.parse", 10, 30, Some(0)),
            ("a.lower", 30, 70, Some(0)),
            ("a.check", 40, 50, Some(2)),
        ]);
        assert_eq!(t.self_times(), vec![40, 20, 30, 10]);
        let by = t.by_name();
        assert_eq!(by["h.job"].self_ns, 40);
        assert_eq!(by["a.lower"].total_ns, 40);
        assert_eq!(by["a.lower"].self_ns, 30);
        // Self times partition the root's duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn enter_exit_records_parent_and_round() {
        let mut t = Tracer::new(true);
        t.set_round(4);
        let outer = t.enter("h.job", "TreeAdd");
        let inner = t.enter("exec.run", "");
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.round_id == 4 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(
            t.durations_ms_by_arg("h.job").keys().next(),
            Some(&"TreeAdd")
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.call("x.y", "", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_and_caps_rounds() {
        let mut t = tracer_with(&[("a.parse", 1000, 3000, None)]);
        t.spans.push(Span {
            name: "a.parse",
            arg: "",
            start_ns: 5000,
            end_ns: 6000,
            parent: None,
            round_id: 9,
        });
        let doc = Json::parse(&t.chrome_json("w", 5)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2, "metadata + the one span of round 0");
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(2.0));
        assert_eq!(layer_of("analysis.parse"), "analysis");
    }
}
