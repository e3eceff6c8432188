//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around each public layer call, never
//! inside the program. Each has a name, start, end and parent; a layer's
//! self time is its duration minus the part of it its children cover.

use elfie::trace::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking layer call")
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to parent its own children.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                parent,
                thread: thread_number(),
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Wall seconds of one span.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        (spans[id].end_ns - spans[id].start_ns) as f64 / 1e9
    }

    /// Self seconds summed by span name over `root` and its descendants,
    /// plus the longest span whose name starts with `longest_prefix`.
    pub fn self_times(
        &self,
        root: SpanId,
        longest_prefix: &str,
    ) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.lock();
        let selfs = self_ns(&spans);
        let mut sums = BTreeMap::new();
        let mut longest = 0u64;
        for (id, s) in spans.iter().enumerate() {
            if !descends_from(&spans, id, root) {
                continue;
            }
            *sums.entry(s.name).or_insert(0.0) += selfs[id] as f64 / 1e9;
            if s.name.starts_with(longest_prefix) {
                longest = longest.max(s.end_ns - s.start_ns);
            }
        }
        (sums, longest as f64 / 1e9)
    }

    /// Writes every span as a Chrome trace-event document.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.lock();
        let selfs = self_ns(&spans);
        let us = |ns: u64| Json::F64(ns as f64 / 1e3);
        let events = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), us(s.start_ns)),
                    ("dur".into(), us(s.end_ns - s.start_ns)),
                    ("pid".into(), Json::U64(1)),
                    ("tid".into(), Json::U64(s.thread)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::U64(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                            ("self_us".into(), us(selfs[id])),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn descends_from(spans: &[Span], mut id: SpanId, root: SpanId) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Each span's duration minus the union of its children's intervals.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(2), 40, 60),
        ];
        assert_eq!(self_ns(&spans), vec![40, 40, 20, 20]);
    }
}
