//! Parsed trace events.
//!
//! `camelot_obs::TraceEvent::to_json` renders flat JSON objects whose
//! string values are static identifiers — no escapes, no nesting, no
//! floats. [`ScopeEvent`] is the parsed form of one such line, kept
//! *lossless*: every field is retained in order, so a merged timeline
//! re-renders byte for byte as the tracer wrote it.
//!
//! The parser is hand-rolled because the workspace deliberately
//! carries no serde; it accepts exactly the flat shape the tracer
//! emits and returns `None` for anything else rather than guessing.

use std::fmt::Write as FmtWrite;

use camelot_obs::TraceEvent;

/// A scalar JSON value as the tracer emits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    U64(u64),
    Str(String),
    Bool(bool),
}

impl Value {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed trace event. The well-known header fields (`seq`,
/// `site`, `us`, `family`, `ev`) are lifted into struct fields; every
/// other key rides in `fields` in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeEvent {
    /// Per-site emission sequence number.
    pub seq: u64,
    /// Site that emitted the event.
    pub site: u32,
    /// Unix µs on the host clock, as the tracer stamped it; events
    /// from every site process on one host compare directly.
    pub us: u64,
    /// Family label (e.g. `"F1.3"`); `None` for site-level events.
    pub family: Option<String>,
    /// Event name (`"datagram_send"`, `"log_durable"`, ...).
    pub ev: String,
    /// Remaining payload fields in original order.
    pub fields: Vec<(String, Value)>,
}

impl ScopeEvent {
    /// Parses one JSONL line. Returns `None` for malformed lines or
    /// lines missing the header fields (callers skip those — a trace
    /// file may carry a non-event header line first).
    pub fn parse(line: &str) -> Option<ScopeEvent> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut seq = None;
        let mut site = None;
        let mut us = None;
        let mut family = None;
        let mut ev = None;
        let mut fields = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            rest = rest.trim_start_matches(',');
            if rest.is_empty() {
                break;
            }
            let key_body = rest.strip_prefix('"')?;
            let key_end = key_body.find('"')?;
            let key = &key_body[..key_end];
            rest = key_body[key_end + 1..].strip_prefix(':')?;
            let value;
            if let Some(s) = rest.strip_prefix('"') {
                let end = s.find('"')?;
                value = Value::Str(s[..end].to_string());
                rest = &s[end + 1..];
            } else {
                let end = rest.find(',').unwrap_or(rest.len());
                let tok = &rest[..end];
                value = match tok {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    _ => Value::U64(tok.parse().ok()?),
                };
                rest = &rest[end..];
            }
            match key {
                "seq" => seq = value.as_u64(),
                "site" => site = value.as_u64(),
                "us" => us = value.as_u64(),
                "family" => family = value.as_str().map(str::to_string),
                "ev" => ev = value.as_str().map(str::to_string),
                _ => fields.push((key.to_string(), value)),
            }
        }
        Some(ScopeEvent {
            seq: seq?,
            site: site? as u32,
            us: us?,
            family,
            ev: ev?,
            fields,
        })
    }

    /// The parsed form of an in-process [`TraceEvent`] (chaos and the
    /// benches hold real events; trace files hold their JSONL).
    pub fn from_trace(ev: &TraceEvent) -> ScopeEvent {
        ScopeEvent::parse(&ev.to_json()).expect("tracer JSON is parseable")
    }

    /// A payload field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A numeric payload field by name.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(Value::as_u64)
    }

    /// A string payload field by name.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }

    /// Re-renders the event as one JSON object, in the tracer's field
    /// order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"site\":{},\"us\":{}",
            self.seq, self.site, self.us
        );
        if let Some(f) = &self.family {
            let _ = write!(s, ",\"family\":\"{f}\"");
        }
        let _ = write!(s, ",\"ev\":\"{}\"", self.ev);
        for (k, v) in &self.fields {
            match v {
                Value::U64(n) => {
                    let _ = write!(s, ",\"{k}\":{n}");
                }
                Value::Str(t) => {
                    let _ = write!(s, ",\"{k}\":\"{t}\"");
                }
                Value::Bool(b) => {
                    let _ = write!(s, ",\"{k}\":{b}");
                }
            }
        }
        s.push('}');
        s
    }
}

/// Parses a JSONL blob, skipping unparseable lines (headers, blank
/// lines).
pub fn parse_jsonl(text: &str) -> Vec<ScopeEvent> {
    text.lines().filter_map(ScopeEvent::parse).collect()
}

/// Renders events back to JSON Lines.
pub fn to_jsonl(events: &[ScopeEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for e in events {
        s.push_str(&e.to_json());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_obs::{TraceEventKind, TraceRing};
    use camelot_types::{FamilyId, SiteId};
    use std::time::Instant;

    #[test]
    fn roundtrips_every_tracer_shape() {
        let ring = TraceRing::new(SiteId(2), 64, Instant::now());
        let fam = FamilyId {
            origin: SiteId(1),
            seq: 3,
        };
        ring.emit(Some(fam), TraceEventKind::Begin);
        ring.emit(
            Some(fam),
            TraceEventKind::DatagramSend {
                to: SiteId(3),
                msg: "Prepare",
                piggyback: 2,
            },
        );
        ring.emit(
            Some(fam),
            TraceEventKind::LogEnqueue {
                purpose: "commit",
                lazy: true,
            },
        );
        ring.emit(None, TraceEventKind::BatchStart { upto: 4096 });
        ring.emit(None, TraceEventKind::Crash);
        for ev in ring.drain() {
            let json = ev.to_json();
            let parsed = ScopeEvent::parse(&json).expect("parseable");
            assert_eq!(parsed.to_json(), json, "lossless roundtrip");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(ScopeEvent::parse("").is_none());
        assert!(ScopeEvent::parse("not json").is_none());
        assert!(ScopeEvent::parse("{\"seq\":1}").is_none());
        assert!(ScopeEvent::parse("{\"seq\":1,\"site\":2,\"us\":x,\"ev\":\"b\"}").is_none());
    }
}
