//! Spans recorded by the benchmark's own code around each call into a layer,
//! kept in memory and written once at exit as Chrome trace-event JSON.
//!
//! The handle is reference counted because the pipeline's hooks are
//! `'static` closures that record spans from inside the update call.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iteration: u32,
    counts: Vec<(&'static str, u64)>,
}

struct Inner {
    recording: bool,
    origin: Instant,
    iteration: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Shared span recorder. Off by default: `span` then costs one borrow and a
/// branch.
#[derive(Clone)]
pub struct Trace(Rc<RefCell<Inner>>);

/// Ends its span when dropped.
pub struct SpanGuard {
    trace: Trace,
    index: Option<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Trace(Rc::new(RefCell::new(Inner {
            recording: false,
            origin: Instant::now(),
            iteration: 0,
            open: Vec::new(),
            spans: Vec::new(),
        })))
    }

    /// Turns recording on or off; spans already open stay open.
    pub fn set_recording(&self, on: bool) {
        self.0.borrow_mut().recording = on;
    }

    /// Sets the iteration id stamped on spans begun from now on.
    pub fn set_iteration(&self, iteration: u32) {
        self.0.borrow_mut().iteration = iteration;
    }

    /// Begins a span whose parent is the innermost span still open.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let mut inner = self.0.borrow_mut();
        if !inner.recording {
            return SpanGuard { trace: self.clone(), index: None };
        }
        let start_ns = inner.origin.elapsed().as_nanos() as u64;
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let iteration = inner.iteration;
        inner.spans.push(Span { name, start_ns, end_ns: start_ns, parent, iteration, counts: Vec::new() });
        inner.open.push(index);
        SpanGuard { trace: self.clone(), index: Some(index) }
    }

    #[cfg(test)]
    fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// How many spans of `iteration` lie inside its `update` span, that span
    /// included.
    pub fn spans_in_update(&self, iteration: u32) -> usize {
        let inner = self.0.borrow();
        let mut inside = Vec::with_capacity(inner.spans.len());
        for span in &inner.spans {
            inside.push(span.name == "update" || span.parent.is_some_and(|parent| inside[parent]));
        }
        inner
            .spans
            .iter()
            .zip(&inside)
            .filter(|(span, &inside)| inside && span.iteration == iteration)
            .count()
    }

    /// The spans as a Chrome trace-event document (`ph: "X"`, microseconds).
    pub fn to_chrome_json(&self) -> Json {
        let inner = self.0.borrow();
        let events = inner
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), Json::from(id)),
                    ("parent".to_string(), s.parent.map_or(Json::Null, Json::from)),
                    ("iteration".to_string(), Json::from(u64::from(s.iteration))),
                ];
                args.extend(s.counts.iter().map(|&(k, v)| (k.to_string(), Json::from(v))));
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

impl SpanGuard {
    /// Attaches a count measured at this span's boundary.
    pub fn count(&self, key: &'static str, value: u64) {
        if let Some(index) = self.index {
            self.trace.0.borrow_mut().spans[index].counts.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let mut inner = self.trace.0.borrow_mut();
        inner.spans[index].end_ns = inner.origin.elapsed().as_nanos() as u64;
        // Guards drop innermost first, but a guard moved out of its scope
        // may not: remove this span wherever it sits.
        inner.open.retain(|&i| i != index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_f64, as_str, get};

    #[test]
    fn spans_nest_and_carry_iteration_and_counts() {
        let trace = Trace::new();
        drop(trace.span("ignored while off"));
        assert_eq!(trace.span_count(), 0);
        trace.set_recording(true);
        trace.set_iteration(3);
        {
            let outer = trace.span("update");
            {
                let _inner = trace.span("hook");
            }
            outer.count("objects", 9);
        }
        let doc = trace.to_chrome_json();
        let Some(Json::Arr(events)) = get(&doc, "traceEvents") else { panic!("no events") };
        assert_eq!(events.len(), 2);
        assert_eq!(get(&events[0], "name").and_then(as_str), Some("update"));
        let hook_args = get(&events[1], "args").unwrap();
        assert_eq!(get(hook_args, "parent").and_then(as_f64), Some(0.0));
        assert_eq!(get(hook_args, "iteration").and_then(as_f64), Some(3.0));
        assert_eq!((trace.spans_in_update(3), trace.spans_in_update(4)), (2, 0));
        let update_args = get(&events[0], "args").unwrap();
        assert_eq!(get(update_args, "parent"), Some(&Json::Null));
        assert_eq!(get(update_args, "objects").and_then(as_f64), Some(9.0));
        let dur = |e: &Json| get(e, "dur").and_then(as_f64).unwrap();
        assert!(dur(&events[0]) >= dur(&events[1]));
    }
}
