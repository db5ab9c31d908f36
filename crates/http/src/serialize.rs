//! HTTP/1.1 wire serialization.
//!
//! Two producers: [`serialize_response`] materializes the full byte form
//! (clients, tests), while [`ResponseWriter`] is every server engine's
//! zero-copy write path. A response leaves as two parts, its head and its
//! body: the head is the one frozen into a prefab (or serialized once when
//! the writer takes a response that was never frozen), and the body goes
//! to the socket straight from wherever it lives (a shared `Arc<[u8]>` is
//! never copied into a scratch buffer), via vectored writes, resumable
//! after `EWOULDBLOCK`. Prefab and non-prefab responses take the same
//! path.

use std::io::{self, IoSlice, Write};

use crate::message::{Request, Response};

/// Serializes a request into its on-the-wire byte form.
pub fn serialize_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(req.body.len() + 128);
    write_request_head(req, &mut out);
    out.extend_from_slice(&req.body);
    out
}

/// Serializes a request head (request line + headers + blank line).
pub(crate) fn serialize_request_head(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    write_request_head(req, &mut out);
    out
}

fn write_request_head(req: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    for (name, value) in req.headers.iter() {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Serializes a response head (status line + headers + blank line).
pub fn serialize_response_head(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(
        format!("HTTP/1.1 {} {}\r\n", resp.status.0, resp.status.reason()).as_bytes(),
    );
    for (name, value) in resp.headers.iter() {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Serializes a response into its on-the-wire byte form: head, then body.
pub fn serialize_response(resp: &Response) -> Vec<u8> {
    let head = resp.head();
    let mut out = Vec::with_capacity(head.len() + resp.body.len());
    out.extend_from_slice(&head);
    out.extend_from_slice(&resp.body);
    out
}

/// Progress of a resumable response write on a nonblocking socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// The response is fully on the wire.
    Done,
    /// The kernel buffer filled mid-response (`EWOULDBLOCK`); call
    /// [`ResponseWriter::write_some`] again when the socket is writable.
    Blocked,
}

/// A response mid-flight on a socket — the one server write path.
///
/// A nonblocking write (or a blocking one whose `SO_SNDTIMEO` expired)
/// can stop anywhere inside the response and must resume from exactly
/// that byte later. This writer owns the response (keeping its frozen head
/// and shared body alive without copying them) plus a byte cursor over
/// head ‖ body: while any head bytes remain, one vectored write offers the
/// rest of the head and the whole body, and after that the rest of the
/// body alone.
#[derive(Debug)]
pub struct ResponseWriter {
    resp: Response,
    written: usize,
}

impl ResponseWriter {
    /// Starts a resumable write of `resp` from byte zero, freezing its
    /// head if it was never frozen.
    pub fn new(mut resp: Response) -> ResponseWriter {
        resp.freeze_head();
        ResponseWriter { resp, written: 0 }
    }

    /// Total bytes this response occupies on the wire.
    pub fn total_len(&self) -> usize {
        self.resp.wire_len()
    }

    /// Bytes already written.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Writes as much as the socket accepts, resuming from the cursor.
    ///
    /// Returns [`WriteProgress::Blocked`] on `EWOULDBLOCK` (re-arm for
    /// writability and retry later); retries `EINTR` internally; any other
    /// error (including a zero-length write) is fatal for the connection.
    pub fn write_some<W: Write>(&mut self, w: &mut W) -> io::Result<WriteProgress> {
        let head = self.resp.head();
        let body = self.resp.body.as_slice();
        let total = head.len() + body.len();
        loop {
            // Test-only fault hook (inert in production builds): an armed
            // Write fault stands in for the socket's verdict — an injected
            // EWOULDBLOCK parks the cursor exactly like a full kernel
            // buffer, which is how the resumption tests provoke partial
            // writes without contorting real socket state.
            if let Some(e) = rcb_util::fault::take(rcb_util::fault::Op::Write) {
                if e.kind() == io::ErrorKind::WouldBlock {
                    return Ok(WriteProgress::Blocked);
                }
                return Err(e);
            }
            if self.written >= total {
                return Ok(WriteProgress::Done);
            }
            let result = if self.written < head.len() {
                let bufs = [IoSlice::new(&head[self.written..]), IoSlice::new(body)];
                w.write_vectored(&bufs)
            } else {
                w.write(&body[self.written - head.len()..])
            };
            match result {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    if self.written >= total {
                        return Ok(WriteProgress::Done);
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(WriteProgress::Blocked)
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, Response};

    /// Writes a whole response through the server write path.
    fn write_whole<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
        let progress = ResponseWriter::new(resp.clone()).write_some(w)?;
        assert_eq!(progress, WriteProgress::Done, "sink never blocks");
        Ok(())
    }

    #[test]
    fn request_wire_form() {
        let req = Request::get("/x").with_header("Host", "h");
        let wire = serialize_request(&req);
        let s = String::from_utf8(wire).unwrap();
        assert!(s.starts_with("GET /x HTTP/1.1\r\n"));
        assert!(s.contains("Host: h\r\n"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn post_includes_body() {
        let req = Request::post("/poll", b"payload".to_vec());
        let s = String::from_utf8(serialize_request(&req)).unwrap();
        assert!(s.ends_with("\r\n\r\npayload"));
        assert!(s.contains("Content-Length: 7\r\n"));
    }

    #[test]
    fn response_wire_form() {
        let resp = Response::html("<p>x</p>");
        let s = String::from_utf8(serialize_response(&resp)).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.ends_with("\r\n\r\n<p>x</p>"));
    }

    #[test]
    fn shared_and_owned_bodies_serialize_identically() {
        use crate::message::{Body, Status};
        use std::sync::Arc;
        let bytes = b"<n>shared</n>".to_vec();
        let owned = Response::with_body(Status::OK, "application/xml", bytes.clone());
        let shared = Response::with_body(
            Status::OK,
            "application/xml",
            Body::Shared(Arc::from(bytes.as_slice())),
        );
        assert_eq!(serialize_response(&owned), serialize_response(&shared));
        let mut sink_o = Vec::new();
        let mut sink_s = Vec::new();
        write_whole(&mut sink_o, &owned).unwrap();
        write_whole(&mut sink_s, &shared).unwrap();
        assert_eq!(sink_o, serialize_response(&owned));
        assert_eq!(sink_s, sink_o);
    }

    #[test]
    fn prefab_writes_its_frozen_head_and_shared_body() {
        let resp = Response::xml("<n>prefab</n>");
        let plain_wire = serialize_response(&resp);
        let prefab = resp.into_prefab();
        assert!(prefab.is_prefab());
        assert_eq!(serialize_response(&prefab), plain_wire);
        let mut sink = Vec::new();
        write_whole(&mut sink, &prefab).unwrap();
        assert_eq!(sink, plain_wire);
        // A clone shares the frozen head and the body (pointer equality:
        // no re-serialization, no body copy).
        let clone = prefab.clone();
        assert_eq!(prefab.head().as_ptr(), clone.head().as_ptr());
        assert_eq!(prefab.body.as_ptr(), clone.body.as_ptr());
        // Mutating headers drops the frozen head rather than desyncing it.
        let mutated = prefab.with_header("X-Extra", "1");
        assert!(!mutated.is_prefab());
        assert!(String::from_utf8(serialize_response(&mutated))
            .unwrap()
            .contains("X-Extra: 1\r\n"));
    }

    /// A writer that accepts at most `cap` bytes per call, exercising the
    /// partial-write resume logic in `ResponseWriter::write_some`.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
    }

    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let mut left = self.cap;
            for b in bufs {
                if left == 0 {
                    break;
                }
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer that signals `WouldBlock` after accepting `burst` bytes,
    /// mimicking a nonblocking socket whose kernel buffer fills.
    struct Choky {
        out: Vec<u8>,
        burst: usize,
        accepted: usize,
    }

    impl std::io::Write for Choky {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.accepted >= self.burst {
                self.accepted = 0;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.burst - self.accepted);
            self.out.extend_from_slice(&buf[..n]);
            self.accepted += n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_writer_resumes_across_would_block() {
        use crate::message::{Body, Status};
        use std::sync::Arc;
        let body: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        let shared = Response::with_body(
            Status::OK,
            "application/octet-stream",
            Body::Shared(Arc::from(body.as_slice())),
        );
        let prefab = shared.clone().into_prefab();
        for resp in [shared, prefab] {
            let expect = serialize_response(&resp);
            for burst in [1, 7, 100, 4096] {
                let mut sink = Choky {
                    out: Vec::new(),
                    burst,
                    accepted: 0,
                };
                let mut writer = ResponseWriter::new(resp.clone());
                assert_eq!(writer.total_len(), expect.len());
                let mut rounds = 0;
                loop {
                    match writer.write_some(&mut sink).unwrap() {
                        WriteProgress::Done => break,
                        WriteProgress::Blocked => rounds += 1,
                    }
                    assert!(rounds < 100_000, "no forward progress at burst {burst}");
                }
                assert_eq!(sink.out, expect, "burst {burst}");
                assert_eq!(writer.written(), expect.len());
                // Idempotent once done.
                assert_eq!(writer.write_some(&mut sink).unwrap(), WriteProgress::Done);
            }
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        use crate::message::{Body, Status};
        use std::sync::Arc;
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let resp = Response::with_body(
            Status::OK,
            "application/octet-stream",
            Body::Shared(Arc::from(body.as_slice())),
        );
        for cap in [1, 3, 7, 64, 4096] {
            let mut t = Trickle {
                out: Vec::new(),
                cap,
            };
            write_whole(&mut t, &resp).unwrap();
            assert_eq!(t.out, serialize_response(&resp), "cap {cap}");
        }
    }
}
