//! Structured tracing: a buffered event recorder with typed spans, instant
//! events and counters, exported in the Chrome `trace_event` JSON format.
//!
//! The recorder is deliberately dumb: callers stamp every event with
//! *simulated* time, so a trace is a pure function of the run and stays
//! byte-identical at any `--jobs` count. Consumers load the exported file in
//! `chrome://tracing` or <https://ui.perfetto.dev>; see DESIGN.md "Trace
//! schema" for the span/counter taxonomy.
//!
//! Tracing is opt-in per [`TraceHandle`]. A disabled handle holds no buffer
//! and every record call is a branch on `None` — the subsystem is strictly
//! zero-cost when off, which `tests/trace_transparency.rs` enforces
//! byte-for-byte on the experiment results.

use crate::json::Json;
use std::sync::{Arc, Mutex};

/// How much detail to record, parsed from `SENTINEL_TRACE` or a wire
/// request's `trace` field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Record nothing; handles are inert.
    #[default]
    Off,
    /// Steps, intervals, migration lifecycle and injected faults.
    Summary,
    /// Everything in `Summary` plus layers, per-run accesses, map/unmap,
    /// sanitizer samples and used-page counters.
    Full,
}

impl TraceLevel {
    /// Parse a trace level.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything other than
    /// `off`/`summary`/`full` (case-insensitive).
    pub fn parse(spec: &str) -> Result<TraceLevel, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" => Ok(TraceLevel::Off),
            "summary" => Ok(TraceLevel::Summary),
            "full" => Ok(TraceLevel::Full),
            other => Err(format!("unknown level {other:?} (expected off, summary or full)")),
        }
    }
}

/// Read the trace level from `SENTINEL_TRACE` (absent means [`TraceLevel::Off`]).
///
/// # Errors
///
/// Returns the [`TraceLevel::parse`] message, prefixed with the variable's
/// name, on a malformed value.
pub fn trace_env() -> Result<TraceLevel, String> {
    match std::env::var("SENTINEL_TRACE") {
        Ok(v) => TraceLevel::parse(&v).map_err(|e| format!("SENTINEL_TRACE: {e}")),
        Err(_) => Ok(TraceLevel::Off),
    }
}

/// The logical timeline row an event renders on. Each track becomes one
/// named "thread" in the Chrome trace viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTrack {
    /// Training steps and layers (executor).
    Steps,
    /// Migration intervals and Case 1/2/3 outcomes (policy).
    Intervals,
    /// Migration lifecycle: issue, complete, retry, abandon.
    Migration,
    /// Memory substrate: accesses, map/unmap, sanitizer, page counters.
    Memory,
    /// Injected faults (all zero on pristine runs).
    Faults,
}

impl TraceTrack {
    /// All tracks, in `tid` order.
    pub const ALL: [TraceTrack; 5] = [
        TraceTrack::Steps,
        TraceTrack::Intervals,
        TraceTrack::Migration,
        TraceTrack::Memory,
        TraceTrack::Faults,
    ];

    /// Stable Chrome `tid` for the track.
    #[must_use]
    pub fn tid(self) -> u64 {
        match self {
            TraceTrack::Steps => 0,
            TraceTrack::Intervals => 1,
            TraceTrack::Migration => 2,
            TraceTrack::Memory => 3,
            TraceTrack::Faults => 4,
        }
    }

    /// Human-readable row label (emitted as `thread_name` metadata).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceTrack::Steps => "steps",
            TraceTrack::Intervals => "intervals",
            TraceTrack::Migration => "migration",
            TraceTrack::Memory => "memory",
            TraceTrack::Faults => "faults",
        }
    }
}

/// One recorded event. `phase` follows the Chrome `trace_event` convention:
/// `'X'` complete span (with `dur_ns`), `'i'` instant, `'C'` counter.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name shown in the viewer.
    pub name: String,
    /// Category, used by viewers for filtering.
    pub cat: &'static str,
    /// Chrome phase: `'X'`, `'i'` or `'C'`.
    pub phase: char,
    /// Timeline row.
    pub track: TraceTrack,
    /// Start time in simulated nanoseconds.
    pub ts_ns: u64,
    /// Duration in simulated nanoseconds (spans only; 0 otherwise).
    pub dur_ns: u64,
    /// Extra `args` members (counter values for `'C'` events).
    pub args: Vec<(&'static str, Json)>,
}

impl crate::ToJson for TraceEvent {
    /// Raw (non-Chrome) serialization used by the `sentineld` event stream:
    /// one object per event with the simulated-time fields kept as exact
    /// integer nanoseconds, `args` emitted only when non-empty. Feeding the
    /// reassembled stream through [`Trace::to_chrome_json`] on the client
    /// reproduces the batch exporter's bytes exactly.
    fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("cat".to_owned(), Json::Str(self.cat.to_owned())),
            ("ph".to_owned(), Json::Str(self.phase.to_string())),
            ("track".to_owned(), Json::Str(self.track.label().to_owned())),
            ("ts_ns".to_owned(), Json::U64(self.ts_ns)),
        ];
        if self.phase == 'X' {
            members.push(("dur_ns".to_owned(), Json::U64(self.dur_ns)));
        }
        if !self.args.is_empty() {
            members.push((
                "args".to_owned(),
                Json::Obj(self.args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()),
            ));
        }
        Json::Obj(members)
    }
}

/// A finished trace: the drained event buffer plus the level it was
/// recorded at.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Detail level the trace was recorded at.
    pub level: TraceLevel,
    /// Events in record order (not necessarily sorted by `ts_ns`; viewers
    /// sort on load).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Render the Chrome `trace_event` JSON document: a `traceEvents` array
    /// with `thread_name` metadata rows first, timestamps in microseconds.
    #[must_use]
    pub fn to_chrome_json(&self) -> Json {
        let mut out = Vec::with_capacity(self.events.len() + TraceTrack::ALL.len());
        for track in TraceTrack::ALL {
            if self.events.iter().any(|e| e.track == track) {
                out.push(Json::obj([
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(track.tid())),
                    ("args", Json::obj([("name", Json::Str(track.label().into()))])),
                ]));
            }
        }
        for e in &self.events {
            let mut members: Vec<(&str, Json)> = vec![
                ("name", Json::Str(e.name.clone())),
                ("cat", Json::Str(e.cat.into())),
                ("ph", Json::Str(e.phase.to_string())),
                ("ts", Json::F64(e.ts_ns as f64 / 1000.0)),
            ];
            if e.phase == 'X' {
                members.push(("dur", Json::F64(e.dur_ns as f64 / 1000.0)));
            }
            if e.phase == 'i' {
                // Thread-scoped instant; some viewers reject a missing scope.
                members.push(("s", Json::Str("t".into())));
            }
            members.push(("pid", Json::U64(1)));
            members.push(("tid", Json::U64(e.track.tid())));
            if !e.args.is_empty() {
                members.push((
                    "args",
                    Json::Obj(
                        e.args.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
                    ),
                ));
            }
            out.push(Json::Obj(
                members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            ));
        }
        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

/// A cheap, cloneable recorder handle. Disabled handles carry no buffer;
/// enabled ones share one mutex-guarded buffer across clones, so the
/// memory system, executor and policy all append to a single per-run
/// stream in call order.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    level: TraceLevel,
    buf: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl TraceHandle {
    /// The inert handle: records nothing, costs one branch per call site.
    #[must_use]
    pub fn disabled() -> TraceHandle {
        TraceHandle::default()
    }

    /// A recording handle at `level` ([`TraceLevel::Off`] yields the inert
    /// handle).
    #[must_use]
    pub fn new(level: TraceLevel) -> TraceHandle {
        match level {
            TraceLevel::Off => TraceHandle::disabled(),
            _ => TraceHandle { level, buf: Some(Arc::new(Mutex::new(Vec::new()))) },
        }
    }

    /// Recording level of this handle.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// True when any recording is active. Instrumentation sites must guard
    /// arg construction behind this so disabled runs do no work.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// True at [`TraceLevel::Full`] only.
    #[must_use]
    pub fn full(&self) -> bool {
        self.level == TraceLevel::Full
    }

    fn push(&self, event: TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("trace buffer poisoned").push(event);
        }
    }

    /// Record a complete span (`'X'`).
    pub fn span(
        &self,
        track: TraceTrack,
        cat: &'static str,
        name: impl Into<String>,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, Json)>,
    ) {
        self.push(TraceEvent { name: name.into(), cat, phase: 'X', track, ts_ns, dur_ns, args });
    }

    /// Record an instant event (`'i'`).
    pub fn instant(
        &self,
        track: TraceTrack,
        cat: &'static str,
        name: impl Into<String>,
        ts_ns: u64,
        args: Vec<(&'static str, Json)>,
    ) {
        self.push(TraceEvent { name: name.into(), cat, phase: 'i', track, ts_ns, dur_ns: 0, args });
    }

    /// Record a counter sample (`'C'`); every `args` value must be numeric.
    pub fn counter(
        &self,
        track: TraceTrack,
        cat: &'static str,
        name: impl Into<String>,
        ts_ns: u64,
        args: Vec<(&'static str, Json)>,
    ) {
        self.push(TraceEvent { name: name.into(), cat, phase: 'C', track, ts_ns, dur_ns: 0, args });
    }

    /// Drain the buffer into a [`Trace`] (`None` on a disabled handle).
    /// Subsequent records start a fresh buffer in the same handle.
    #[must_use]
    pub fn take(&self) -> Option<Trace> {
        self.buf.as_ref().map(|buf| Trace {
            level: self.level,
            events: std::mem::take(&mut *buf.lock().expect("trace buffer poisoned")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_accepts_known_spellings() {
        assert_eq!(TraceLevel::parse("off"), Ok(TraceLevel::Off));
        assert_eq!(TraceLevel::parse(" Summary "), Ok(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("FULL"), Ok(TraceLevel::Full));
        assert_eq!(TraceLevel::parse(""), Ok(TraceLevel::Off));
        let err = TraceLevel::parse("verbose").unwrap_err();
        assert!(err.starts_with("unknown level"), "{err}");
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = TraceHandle::disabled();
        assert!(!t.enabled());
        t.instant(TraceTrack::Steps, "exec", "noop", 1, Vec::new());
        assert!(t.take().is_none());
    }

    #[test]
    fn clones_share_one_buffer_in_record_order() {
        let t = TraceHandle::new(TraceLevel::Summary);
        let u = t.clone();
        t.span(TraceTrack::Steps, "exec", "step 0", 0, 10, Vec::new());
        u.instant(TraceTrack::Migration, "migration", "issue", 5, Vec::new());
        let trace = t.take().expect("enabled");
        assert_eq!(trace.level, TraceLevel::Summary);
        assert_eq!(
            trace.events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["step 0", "issue"]
        );
        // Drained: the next take sees only newer events.
        assert!(u.take().expect("enabled").events.is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let t = TraceHandle::new(TraceLevel::Full);
        t.span(TraceTrack::Steps, "exec", "step 0", 1_500, 2_000, vec![("step", Json::U64(0))]);
        t.counter(TraceTrack::Memory, "mem", "used_pages", 1_500, vec![("fast", Json::U64(3))]);
        let doc = t.take().expect("enabled").to_chrome_json();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(v)) => v,
            other => panic!("missing traceEvents: {other:?}"),
        };
        // Two thread_name metadata rows (steps + memory) then the events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph"), Some(&Json::Str("M".into())));
        let span = &events[2];
        assert_eq!(span.get("ph"), Some(&Json::Str("X".into())));
        assert_eq!(span.get("ts"), Some(&Json::F64(1.5)));
        assert_eq!(span.get("dur"), Some(&Json::F64(2.0)));
        assert_eq!(span.get("tid"), Some(&Json::U64(TraceTrack::Steps.tid())));
        assert_eq!(span.get("args").and_then(|a| a.get("step")), Some(&Json::U64(0)));
        let counter = &events[3];
        assert_eq!(counter.get("ph"), Some(&Json::Str("C".into())));
        // The document round-trips through the strict in-tree parser.
        let text = doc.to_pretty_string();
        assert_eq!(Json::parse(&text).expect("parses"), doc);
    }
}
