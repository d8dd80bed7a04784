//! Spans recorded from the harness's own files, around each call into a
//! layer's public function. A span has a name, a start and an end on
//! one monotonic clock, the span that caused it, and the id of the
//! request it belongs to. Self time is a span's duration minus the part
//! of it its children cover. Everything stays in memory until the run
//! ends.

use crate::json::Json;
use crate::stats;
use std::time::Instant;

/// Index into [`Tracer::names`]; a span stores this, not a string.
pub type NameId = u16;

const NO_SPAN: u32 = u32::MAX;

/// Spans kept before recording stops (the count dropped is reported):
/// 4 M spans are about 160 MB, past any run the driver asks for.
const MAX_SPANS: usize = 4_000_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: NameId,
    pub parent: u32,
    pub request: u32,
    /// How many unit items the span covers: ops of a chunk, rows of a
    /// window, ranks of a batch; 1 otherwise.
    pub units: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed on its own right after the parent returned and placed
    /// inside the parent's interval, because the call happens inside
    /// the product where the harness cannot put a clock.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A running measurement: always a clock, a span slot only when tracing.
#[must_use]
pub struct Timer {
    start: Instant,
    slot: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_request: u32,
    /// Where the next replayed child of `.0` starts, as an offset into it.
    replay_cursor: (u32, u64),
    pub dropped: u64,
    pub replay_clamped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_request: 0,
            replay_cursor: (NO_SPAN, 0),
            dropped: 0,
            replay_clamped: 0,
        }
    }

    /// Register a span name once, before the hot loop.
    pub fn name(&mut self, name: &'static str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as NameId;
        }
        self.names.push(name);
        (self.names.len() - 1) as NameId
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span (a new request when no span is open).
    #[inline]
    pub fn begin(&mut self, name: NameId) -> Timer {
        let mut slot = NO_SPAN;
        if self.enabled {
            if self.spans.len() < MAX_SPANS {
                let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
                let request = if parent == NO_SPAN {
                    self.next_request += 1;
                    self.next_request - 1
                } else {
                    self.spans[parent as usize].request
                };
                slot = self.spans.len() as u32;
                self.spans.push(Span {
                    name,
                    parent,
                    request,
                    units: 1,
                    start_ns: 0,
                    end_ns: 0,
                    replayed: false,
                });
                self.stack.push(slot);
            } else {
                self.dropped += 1;
            }
        }
        let start = Instant::now();
        if slot != NO_SPAN {
            self.spans[slot as usize].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        Timer { start, slot }
    }

    /// Close a span covering `units` unit items; returns its nanoseconds
    /// and, when tracing, its slot (for [`Tracer::replay`]).
    #[inline]
    pub fn end_units(&mut self, t: Timer, units: u32) -> (u64, u32) {
        let ns = t.start.elapsed().as_nanos() as u64;
        if t.slot != NO_SPAN {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(t.slot), "spans must nest");
            let s = &mut self.spans[t.slot as usize];
            s.end_ns = s.start_ns + ns;
            s.units = units;
            self.replay_cursor = (t.slot, 0);
        }
        (ns, t.slot)
    }

    #[inline]
    pub fn end(&mut self, t: Timer) -> u64 {
        self.end_units(t, 1).0
    }

    /// Attach a child measured on its own (`dur_ns`) to the closed span
    /// `parent`: children are laid end to end from the parent's start
    /// and cut at its end, so self time never goes negative.
    pub fn replay(&mut self, parent: u32, name: NameId, units: u32, dur_ns: u64) {
        if !self.enabled || parent == NO_SPAN || self.spans.len() >= MAX_SPANS {
            return;
        }
        if self.replay_cursor.0 != parent {
            self.replay_cursor = (parent, 0);
        }
        let p = self.spans[parent as usize];
        let start = (p.start_ns + self.replay_cursor.1).min(p.end_ns);
        let end = (start + dur_ns).min(p.end_ns);
        if end - start < dur_ns {
            self.replay_clamped += 1;
        }
        self.replay_cursor.1 += dur_ns;
        self.spans.push(Span {
            name,
            parent,
            request: p.request,
            units,
            start_ns: start,
            end_ns: end,
            replayed: true,
        });
    }

    /// Self time of every span: duration minus its children's.
    pub fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        for s in spans {
            if s.parent != NO_SPAN {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per-name figures over everything recorded.
    pub fn aggregate(&self) -> Vec<NameStats> {
        let own = Self::self_times(&self.spans);
        #[derive(Clone, Default)]
        struct Durations {
            whole: Vec<f64>,
            per_unit: Vec<f64>,
            own: Vec<f64>,
            units: u64,
        }
        let mut per_name = vec![Durations::default(); self.names.len()];
        for (s, own_ns) in self.spans.iter().zip(&own) {
            let d = &mut per_name[s.name as usize];
            d.whole.push(s.dur_ns() as f64);
            d.per_unit
                .push(s.dur_ns() as f64 / f64::from(s.units.max(1)));
            d.own.push(*own_ns as f64);
            d.units += u64::from(s.units);
        }
        self.names
            .iter()
            .zip(per_name)
            .map(|(name, d)| NameStats {
                name,
                calls: d.whole.len() as u64,
                units: d.units,
                total_ns: d.whole.iter().sum(),
                self_total_ns: d.own.iter().sum(),
                p50_ns: stats::median(&d.whole).unwrap_or(0.0),
                p99_ns: stats::percentile(&d.whole, 99.0).unwrap_or(0.0),
                per_unit_p50_ns: stats::median(&d.per_unit).unwrap_or(0.0),
                self_p50_ns: stats::median(&d.own).unwrap_or(0.0),
            })
            .collect()
    }

    /// The trace file: per-name totals, plus the spans of the first
    /// `max_requests` requests in full.
    pub fn to_json(&self, max_requests: u32) -> Json {
        let own = Self::self_times(&self.spans);
        let names = self.aggregate();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .filter(|(_, (s, _))| s.request < max_requests)
            .map(|(i, (s, own_ns))| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(self.names[s.name as usize])),
                    ("request", Json::Num(f64::from(s.request))),
                    (
                        "parent",
                        if s.parent == NO_SPAN {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(*own_ns as f64)),
                    ("units", Json::Num(f64::from(s.units))),
                    ("replayed", Json::Bool(s.replayed)),
                ])
            })
            .collect();
        Json::obj([
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans_dropped", Json::Num(self.dropped as f64)),
            ("replay_clamped", Json::Num(self.replay_clamped as f64)),
            ("requests", Json::Num(f64::from(self.next_request))),
            (
                "names",
                Json::Arr(names.iter().map(NameStats::to_json).collect()),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Clone)]
pub struct NameStats {
    pub name: &'static str,
    pub calls: u64,
    pub units: u64,
    pub total_ns: f64,
    pub self_total_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub per_unit_p50_ns: f64,
    pub self_p50_ns: f64,
}

impl NameStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("calls", Json::Num(self.calls as f64)),
            ("units", Json::Num(self.units as f64)),
            ("total_ns", Json::Num(self.total_ns)),
            ("self_total_ns", Json::Num(self.self_total_ns)),
            ("p50_ns", Json::Num(self.p50_ns)),
            ("p99_ns", Json::Num(self.p99_ns)),
            ("per_unit_p50_ns", Json::Num(self.per_unit_p50_ns)),
            ("self_p50_ns", Json::Num(self.self_p50_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, request: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            request,
            units: 1,
            start_ns,
            end_ns,
            replayed: false,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // request 0: root [0,100) -> a [10,40) -> a1 [15,25); b [50,90)
        // request 1: lone root [200,230)
        let spans = [
            span(NO_SPAN, 0, 0, 100),
            span(0, 0, 10, 40),
            span(1, 0, 15, 25),
            span(0, 0, 50, 90),
            span(NO_SPAN, 1, 200, 230),
        ];
        let own = Tracer::self_times(&spans);
        assert_eq!(own, [30, 20, 10, 40, 30]);
        // Per request, self times sum to the request's root span.
        let sum0: u64 = own[..4].iter().sum();
        assert_eq!(sum0, spans[0].dur_ns());
        assert_eq!(own[4], spans[4].dur_ns());
    }

    #[test]
    fn recorded_spans_nest_and_replays_stay_inside_the_parent() {
        let mut tr = Tracer::new();
        let (outer, inner, replayed) = (tr.name("outer"), tr.name("inner"), tr.name("replayed"));
        assert_eq!(tr.name("outer"), outer);

        // Disabled: a clock only.
        let t = tr.begin(outer);
        tr.end(t);
        assert!(tr.spans().is_empty());

        tr.set_enabled(true);
        let t = tr.begin(outer);
        let c = tr.begin(inner);
        std::hint::black_box((0..1000).sum::<u64>());
        tr.end(c);
        let (ns, _) = tr.end_units(t, 7);
        let t = tr.begin(outer);
        let (_, slot) = tr.end_units(t, 1);
        tr.replay(slot, replayed, 1, 10);
        tr.replay(slot, replayed, 1, u64::MAX / 4); // far longer than the parent

        let spans = tr.spans().to_vec();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].units, spans[0].dur_ns()), (7, ns));
        assert_eq!((spans[1].parent, spans[1].request), (0, 0));
        assert_eq!(spans[2].request, 1, "a top-level span opens a new request");
        assert!(spans[3].replayed && spans[3].parent == 2 && spans[3].request == 1);
        assert_eq!(spans[4].end_ns, spans[2].end_ns, "cut at the parent's end");
        assert_eq!(tr.replay_clamped, 1);

        // Per request, self times sum to the request's root span.
        let own = Tracer::self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        assert_eq!(own[2] + own[3] + own[4], spans[2].dur_ns());
        let agg = tr.aggregate();
        assert_eq!(agg[outer as usize].calls, 2);
        assert_eq!(agg[replayed as usize].calls, 2);
        assert_eq!(agg[inner as usize].calls, 1);
        assert!(Json::parse(&tr.to_json(1).to_pretty()).is_ok());
    }
}
