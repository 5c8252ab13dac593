//! Wire protocol for the `parsl-serve` daemon.
//!
//! Submissions and control commands travel over a Unix-domain socket as
//! length-prefixed JSON frames: a 4-byte big-endian payload length
//! followed by a UTF-8 JSON object. Requests carry a `cmd` field
//! (`submit`, `status`, `wait`, `logs`, `cancel`, `drain`, `ping`);
//! responses carry `ok: true` plus command-specific fields, or `ok: false`
//! with an `error` string (and, for admission rejections, the full
//! diagnostic text under `diagnostics`). Every verb is answered at once
//! except `wait`, whose response is the daemon telling the client that a
//! run (or every run) has ended — so [`request`] bounds how long it reads
//! and [`request_unbounded`], for `wait`, does not.
//!
//! The frame format is deliberately dumb — no streaming, no pipelining,
//! one request/response per connection round — because the payloads are
//! small (a CWL path plus an inputs object) and the daemon serves every
//! connection from one thread. That thread therefore never blocks on a
//! client: it buffers whatever bytes a connection has delivered and only
//! parses once [`frame_complete`] says a whole frame is there, so a peer
//! that is slow, silent or gone delays nobody else. The JSON value type is
//! [`obs::json::Json`], shared with the trace tooling so the client,
//! daemon, and `parsl-trace` all read the same dialect.

use obs::json::{self, Json};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Frames larger than this are rejected as corrupt rather than allocated.
/// Inputs objects are small; 16 MiB is orders of magnitude of headroom.
pub const MAX_FRAME: u32 = 16 << 20;

/// Serialize a [`Json`] value to compact JSON text.
///
/// The inverse of [`obs::json::parse`]; lives here because the obs crate
/// only ever writes JSON through purpose-built formatters.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            // Integers (the common case: counts, ids) render without a
            // trailing `.0` so they round-trip through yamlite as ints.
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json::escape(k));
                out.push_str("\":");
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Build a JSON object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Shorthand for a JSON string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Convert a parsed YAML value (a job-order inputs object) to JSON for
/// transport. Lossless for everything yamlite can represent.
pub fn yaml_to_json(v: &yamlite::Value) -> Json {
    use yamlite::Value;
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Seq(items) => Json::Arr(items.iter().map(yaml_to_json).collect()),
        Value::Map(m) => Json::Obj(
            m.iter()
                .map(|(k, v)| (k.to_string(), yaml_to_json(v)))
                .collect(),
        ),
    }
}

/// Convert transported JSON back to a YAML value for the runner. Numbers
/// with no fractional part come back as ints (CWL job orders distinguish
/// `int` from `double` inputs).
pub fn json_to_yaml(v: &Json) -> yamlite::Value {
    use yamlite::Value;
    match v {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            }
        }
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(items) => Value::Seq(items.iter().map(json_to_yaml).collect()),
        Json::Obj(m) => {
            let mut map = yamlite::Map::with_capacity(m.len());
            for (k, v) in m {
                map.insert(k.clone(), json_to_yaml(v));
            }
            Value::Map(map)
        }
    }
}

/// Write one frame: 4-byte big-endian length, then the JSON text.
pub fn write_frame(stream: &mut impl Write, v: &Json) -> Result<(), String> {
    let payload = render(v);
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME as u64 {
        return Err(format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    stream
        .write_all(&len)
        .and_then(|()| stream.write_all(bytes))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("frame write failed: {e}"))
}

/// Read one frame, or `Ok(None)` on clean EOF before the length prefix.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Json>, String> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(format!("frame length read failed: {e}")),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(format!("frame length {len} exceeds MAX_FRAME (corrupt?)"));
    }
    let mut buf = vec![0u8; len as usize];
    stream
        .read_exact(&mut buf)
        .map_err(|e| format!("frame body read failed: {e}"))?;
    let text = String::from_utf8(buf).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    json::parse(&text).map(Some)
}

/// Does `buf` — the bytes a connection has delivered so far — hold
/// everything [`read_frame`] will consume? True for a whole frame, and for
/// a bare header announcing more than [`MAX_FRAME`] (rejected before any
/// body is read). A reader that must not block buffers until this holds,
/// then calls `read_frame(&mut &buf[..])`; at end of stream it calls it
/// regardless, and gets the same verdict a blocking reader would have.
pub fn frame_complete(buf: &[u8]) -> bool {
    let Some(header) = buf.first_chunk::<4>() else {
        return false;
    };
    let len = u32::from_be_bytes(*header);
    len > MAX_FRAME || buf.len() - 4 >= len as usize
}

/// One client round: connect, send `req`, read the response.
///
/// Responses are the daemon's to define; this helper only turns
/// `ok: false` frames into `Err` with the daemon's message so callers
/// handle one error channel.
pub fn request(socket: &Path, req: &Json) -> Result<Json, String> {
    // A wedged daemon should produce a client error, not a hang.
    round_trip(socket, req, Some(Duration::from_secs(120)))
}

/// [`request`] without the bound on how long the response may take: for
/// `wait`, which the daemon answers when the run ends, however long that
/// is. A daemon that stops meanwhile closes the connection, which reads as
/// an error here, not a hang.
pub fn request_unbounded(socket: &Path, req: &Json) -> Result<Json, String> {
    round_trip(socket, req, None)
}

fn round_trip(socket: &Path, req: &Json, read_timeout: Option<Duration>) -> Result<Json, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| {
        format!(
            "connect to {} failed: {e} (daemon not running?)",
            socket.display()
        )
    })?;
    let _ = stream.set_read_timeout(read_timeout);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    write_frame(&mut stream, req)?;
    let resp = read_frame(&mut stream)?
        .ok_or_else(|| "daemon closed the connection without responding".to_string())?;
    match resp.get("ok") {
        Some(Json::Bool(true)) => Ok(resp),
        Some(Json::Bool(false)) => {
            let msg = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified daemon error");
            let diags = resp
                .get("diagnostics")
                .and_then(Json::as_str)
                .map(|d| format!("\n{d}"))
                .unwrap_or_default();
            Err(format!("{msg}{diags}"))
        }
        _ => Err(format!("malformed daemon response: {}", render(&resp))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = obj(vec![
            ("cmd", s("submit")),
            ("cwl", s("/tmp/wf.cwl")),
            (
                "inputs",
                obj(vec![("n", Json::Num(3.0)), ("name", s("x \"y\" z"))]),
            ),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let got = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, req);
        // Clean EOF after a full frame reads as None, not an error.
        let mut two = buf.clone();
        two.extend_from_slice(&buf);
        let mut cursor = &two[..];
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        buf.extend_from_slice(b"xxxx");
        assert!(read_frame(&mut &buf[..]).unwrap_err().contains("MAX_FRAME"));
    }

    /// `frame_complete` and `read_frame` agree at every prefix length: not
    /// complete until the last byte, and an oversized header is complete
    /// (that is, ready to be rejected) as soon as it is whole.
    #[test]
    fn frame_complete_agrees_with_read_frame_at_every_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &obj(vec![("cmd", s("ping"))])).unwrap();
        for cut in 0..buf.len() {
            assert!(!frame_complete(&buf[..cut]), "prefix of {cut} bytes");
        }
        assert!(frame_complete(&buf));
        buf.extend_from_slice(b"trailing bytes are not this frame's");
        assert!(frame_complete(&buf));
        assert!(read_frame(&mut &buf[..]).unwrap().is_some());

        let oversized = (MAX_FRAME + 1).to_be_bytes();
        assert!(!frame_complete(&oversized[..3]));
        assert!(frame_complete(&oversized));
        assert!(frame_complete(&0u32.to_be_bytes()), "empty payload");
    }

    #[test]
    fn yaml_json_round_trip_preserves_ints() {
        let y = yamlite::parse_str("a: 3\nb: 1.5\nc: [x, true, null]\n").unwrap();
        let j = yaml_to_json(&y);
        let back = json_to_yaml(&j);
        assert_eq!(back.get("a").and_then(yamlite::Value::as_int), Some(3));
        assert_eq!(back.get("b").and_then(yamlite::Value::as_float), Some(1.5));
        assert_eq!(y, back);
    }
}
