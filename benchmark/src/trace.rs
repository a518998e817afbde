//! In-memory span recorder for the traced run (choosing-metrics §4).
//!
//! Spans are recorded from the harness's own side of each call into the
//! program — spans inside the program are a later change — kept in
//! memory, and written out once when the run ends. One run's spans
//! share its run id.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas read at this span's boundaries.
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Recorder {
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: String) -> Recorder {
        Recorder {
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize, counts: Vec<(&'static str, f64)>) {
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.spans[id].counts = counts;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::obj([
            ("run_id", Json::str(self.run_id.as_str())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(&selfs)
                        .enumerate()
                        .map(|(id, (s, self_ns))| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::str(s.name)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("self_ns", Json::Num(*self_ns as f64)),
                                (
                                    "counts",
                                    Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover. Children of one parent never overlap here
/// (the recorder is a stack), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("run", None, 0, 100),
            span("setup", Some(0), 5, 25),
            span("generate", Some(1), 6, 16),
            span("install", Some(1), 16, 24),
            span("slice", Some(0), 30, 60),
            span("slice", Some(0), 60, 95),
        ];
        // run: 100 − (20 + 30 + 35); setup: 20 − (10 + 8); leaves: whole.
        assert_eq!(self_times_ns(&spans), vec![15, 2, 10, 8, 30, 35]);
    }

    #[test]
    fn recorder_nests_by_open_order_and_shares_the_run_id() {
        let mut r = Recorder::new("w-s1".into());
        let run = r.open("run");
        let setup = r.open("setup");
        r.close(setup, vec![("flows", 3.0)]);
        let slice = r.open("slice");
        r.close(slice, Vec::new());
        r.close(run, Vec::new());
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let json = r.to_json();
        assert_eq!(json.get("run_id").and_then(Json::as_str), Some("w-s1"));
        let spans = json.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[1]
                .get("counts")
                .and_then(|c| c.get("flows"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
