//! The `parsl-serve` daemon: a Unix-socket front end over [`Service`].
//!
//! One request/response frame pair per connection (see
//! [`cwl_parsl::proto`] for the framing). Commands:
//!
//! | cmd      | request fields                  | response fields |
//! |----------|---------------------------------|-----------------|
//! | `ping`   | —                               | `ok`            |
//! | `submit` | `cwl`, `inputs`, `tenant`       | `run`, `run_dir`|
//! | `status` | `run` (optional)                | `runs: [...]`, `active`, `queued` |
//! | `wait`   | `run` (optional)                | that run's `status` entry, once it is terminal; without `run`: `active`, `queued` (both 0), once idle |
//! | `logs`   | `run`                           | run snapshot + `files: [...]` |
//! | `cancel` | `run`                           | `cancelled`     |
//! | `drain`  | —                               | `active`, `queued` |
//!
//! Every verb is answered at once except `wait`, which parks its
//! connection — no thread, no timer — until the run is terminal (at once
//! if it already is; an error frame at once if the run is unknown). A
//! parked client that closes its end is forgotten at its EOF.
//!
//! Lifecycle: one thread serves every connection and blocks in exactly
//! one place, a `poll(2)` over the listener, a wake pair and every open
//! connection. Connections are non-blocking and buffered; a request is
//! parsed once its whole frame has arrived, so a client that is slow,
//! silent or half-closed holds a slot in the poll set and nothing else
//! (until the 10 s request deadline, when it is dropped). The poll has a
//! timeout only while such a deadline is pending. Everything else that
//! should end the wait writes a byte to the wake pair: [`Service`] after a
//! run ends, is cancelled, or a drain begins; [`StopHandle::term`]; the
//! SIGTERM handler. After every wake-up the loop re-reads, in this order:
//! a stop request (fast: flush per-run journals and return *without*
//! waiting, so a restart with `--resume` replays the interrupted runs from
//! their journals), parked waiters whose answer is ready, and a completed
//! drain (graceful: every run finished, every waiter answered, kernel shut
//! down, trace exported). Requests are dispatched on the loop thread, one
//! at a time: `Service::submit` is not safe to call concurrently.

use crate::service::{RunSnapshot, Service, SubmitError};
use crate::sys::{self, PollFd, Wake};
use cwl_parsl::config::RunnerConfig;
use cwl_parsl::proto::{self, obj, s};
use obs::json::Json;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection may take to deliver its request frame, and again
/// to take delivery of its response, before it is dropped.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Run the daemon until drained or SIGTERMed. Binds `serve.socket` (or
/// `<workdir>/serve.sock`), refusing to start when another daemon is
/// already listening there.
pub fn serve_daemon(config: RunnerConfig, resume: bool) -> Result<(), String> {
    let daemon = Daemon::bind(config, resume)?;
    sys::term_on_sigterm(&daemon.wake);
    daemon.run()
}

/// A bound, listening daemon that has not started serving: clients can
/// already connect (they queue in the listener's backlog) and are answered
/// once [`Daemon::run`] is called. All the loop's state lives here, so one
/// process can hold several daemons.
pub struct Daemon {
    svc: Arc<Service>,
    socket: PathBuf,
    listener: UnixListener,
    wake: Arc<Wake>,
    conns: Vec<Conn>,
    /// The last `accept` failed for want of resources: the listener sits
    /// out the next poll so the loop does not spin on a backlog it cannot
    /// take; any other event (a connection closing, say) lets it try again.
    accept_failed: bool,
}

/// Stops one [`Daemon`] from any thread the way SIGTERM stops the process's.
#[derive(Clone)]
pub struct StopHandle(Arc<Wake>);

impl StopHandle {
    /// Fast stop: `run` flushes the journals of the runs in flight and
    /// returns without waiting for them; manifests keep `running`.
    pub fn term(&self) {
        self.0.term();
    }
}

/// One accepted connection.
struct Conn {
    stream: UnixStream,
    /// The request's bytes so far while reading; the response frame while
    /// writing.
    buf: Vec<u8>,
    phase: Phase,
}

enum Phase {
    /// The request frame is incomplete; dropped at the deadline.
    Reading { deadline: Instant },
    /// A `wait`, parked until `run` is terminal (`None`: until the service
    /// is idle). No deadline: only an answer or the client's EOF ends it.
    Parked { run: Option<u64> },
    /// `buf[written..]` of the response is still to go; dropped at the
    /// deadline.
    Writing { written: usize, deadline: Instant },
}

/// What a request asks of the loop.
enum Reply {
    Now(Json),
    Park { run: Option<u64> },
}

impl Daemon {
    /// Start the service and bind its socket. See [`serve_daemon`].
    pub fn bind(config: RunnerConfig, resume: bool) -> Result<Self, String> {
        let socket = config.serve.socket_path(&config.workdir);
        if let Some(parent) = socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("socket dir {}: {e}", parent.display()))?;
            }
        }
        if socket.exists() {
            // A live daemon answers; a stale socket from a crashed one does
            // not and is safe to replace.
            if UnixStream::connect(&socket).is_ok() {
                return Err(format!(
                    "another daemon is already serving on {}",
                    socket.display()
                ));
            }
            std::fs::remove_file(&socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        }

        let wake = Arc::new(Wake::new().map_err(|e| format!("wake pair: {e}"))?);
        let svc = Service::start(config, resume)?;
        // Runs resumed by `start` may already have ended unannounced; the
        // loop reads the service's state before its first poll anyway.
        svc.on_change({
            let wake = wake.clone();
            move || wake.wake()
        });
        let listener =
            UnixListener::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("socket: {e}"))?;
        eprintln!("parsl-serve: listening on {}", socket.display());
        Ok(Self {
            svc,
            socket,
            listener,
            wake,
            conns: Vec::new(),
            accept_failed: false,
        })
    }

    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(self.wake.clone())
    }

    /// Serve until drained or stopped.
    pub fn run(mut self) -> Result<(), String> {
        loop {
            if self.wake.term_raised() {
                eprintln!("parsl-serve: SIGTERM — flushing journals and stopping");
                self.svc.fast_stop();
                let _ = std::fs::remove_file(&self.socket);
                // Fast stop by design: in-flight tasks die with the process;
                // the synced journals + non-terminal manifests make the
                // interrupted runs resumable. Open connections, parked
                // waiters included, see EOF.
                return Ok(());
            }
            self.answer_parked();
            // A response still on its way out is delivered (or times out)
            // before a drained daemon leaves.
            let writing = |c: &Conn| matches!(c.phase, Phase::Writing { .. });
            if self.svc.drained() && !self.conns.iter().any(writing) {
                break;
            }
            self.wait_for_events()
                .map_err(|e| format!("poll failed: {e}"))?;
        }
        let _ = std::fs::remove_file(&self.socket);
        self.svc.shutdown();
        eprintln!("parsl-serve: drained; exiting");
        Ok(())
    }

    /// Block until something can be done, then do all of it. The only
    /// blocking call the daemon makes.
    fn wait_for_events(&mut self) -> std::io::Result<()> {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        fds.push(if self.accept_failed {
            PollFd::skip()
        } else {
            PollFd::readable(&self.listener)
        });
        fds.push(self.wake.poll_entry());
        fds.extend(self.conns.iter().map(|c| match c.phase {
            Phase::Writing { .. } => PollFd::writable(&c.stream),
            _ => PollFd::readable(&c.stream),
        }));
        let deadline = self.conns.iter().filter_map(Conn::deadline).min();
        sys::poll_ready(
            &mut fds,
            deadline.map(|d| d.saturating_duration_since(Instant::now())),
        )?;

        self.accept_failed = false;
        if fds[1].ready() {
            self.wake.drain();
        }
        let now = Instant::now();
        let svc = &self.svc;
        let mut polled = fds[2..].iter();
        self.conns.retain_mut(|conn| {
            if polled.next().is_some_and(PollFd::ready) {
                conn.progress(svc)
            } else {
                conn.deadline().is_none_or(|d| now < d)
            }
        });
        if fds[0].ready() {
            self.accept_all();
        }
        Ok(())
    }

    /// Take every connection the backlog holds. A client has usually sent
    /// its request by the time it is accepted, so each is read at once
    /// instead of after one more trip through `poll`.
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let mut conn = Conn {
                        stream,
                        buf: Vec::new(),
                        phase: Phase::Reading {
                            deadline: Instant::now() + REQUEST_DEADLINE,
                        },
                    };
                    if conn.progress(&self.svc) {
                        self.conns.push(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("parsl-serve: accept error: {e}");
                    self.accept_failed = true;
                    return;
                }
            }
        }
    }

    /// Answer every parked `wait` whose answer is ready.
    fn answer_parked(&mut self) {
        let svc = &self.svc;
        self.conns.retain_mut(|conn| match conn.phase {
            Phase::Parked { run } => match wait_answer(svc, run) {
                Some(response) => conn.respond(&response),
                None => true,
            },
            _ => true,
        });
    }
}

/// The steps below return whether the connection stays open: `false` once
/// it is finished with — answered in full, gone, or broken.
impl Conn {
    fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::Reading { deadline } | Phase::Writing { deadline, .. } => Some(deadline),
            Phase::Parked { .. } => None,
        }
    }

    /// Move a ready connection as far as it will go without blocking.
    fn progress(&mut self, svc: &Arc<Service>) -> bool {
        match self.phase {
            Phase::Reading { .. } => {
                let Ok(eof) = read_available(&mut self.stream, &mut self.buf) else {
                    return false;
                };
                if !eof && !proto::frame_complete(&self.buf) {
                    return true;
                }
                // Complete, or as complete as it will ever get: either way
                // `read_frame` has the verdict, and its wording.
                let reply = match proto::read_frame(&mut &self.buf[..]) {
                    Ok(Some(req)) => dispatch(svc, &req),
                    // Connect-then-close with nothing sent: a liveness
                    // probe, not an error.
                    Ok(None) => return false,
                    Err(e) => Reply::Now(err_frame(&e, None)),
                };
                match reply {
                    Reply::Now(response) => self.respond(&response),
                    Reply::Park { run } => {
                        // Its answer may be ready already: the loop looks
                        // at every parked connection before it polls again.
                        self.phase = Phase::Parked { run };
                        true
                    }
                }
            }
            // Nothing more is expected from a parked client: what makes it
            // readable is its EOF (it went away) or bytes nobody asked for
            // (discarded).
            Phase::Parked { .. } => {
                matches!(read_available(&mut self.stream, &mut Vec::new()), Ok(false))
            }
            Phase::Writing { .. } => self.flush(),
        }
    }

    /// Start sending `response`; the connection is done once it is out.
    fn respond(&mut self, response: &Json) -> bool {
        self.buf.clear();
        if proto::write_frame(&mut self.buf, response).is_err() {
            return false;
        }
        self.phase = Phase::Writing {
            written: 0,
            deadline: Instant::now() + REQUEST_DEADLINE,
        };
        self.flush()
    }

    /// Write as much of the response as the socket takes now.
    fn flush(&mut self) -> bool {
        let Phase::Writing { written, .. } = &mut self.phase else {
            return true;
        };
        while *written < self.buf.len() {
            match self.stream.write(&self.buf[*written..]) {
                Ok(0) => return false,
                Ok(n) => *written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        false
    }
}

/// Append to `buf` what `stream` has, without blocking; stops early once
/// `buf` holds a whole frame. `Ok(true)` means the peer has closed its
/// sending side.
fn read_available(stream: &mut UnixStream, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if proto::frame_complete(buf) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The response a parked `wait` is owed, once it is owed one.
fn wait_answer(svc: &Service, run: Option<u64>) -> Option<Json> {
    match run {
        None => svc.idle().then(|| {
            obj(vec![
                ("ok", Json::Bool(true)),
                ("active", Json::Num(0.0)),
                ("queued", Json::Num(0.0)),
            ])
        }),
        Some(id) => match svc.status(id) {
            None => Some(err_frame(&format!("unknown run {id}"), None)),
            Some(snap) if snap.state.is_terminal() => Some(ok_snapshot(&snap)),
            Some(_) => None,
        },
    }
}

fn err_frame(message: &str, diagnostics: Option<&str>) -> Json {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", s(message))];
    if let Some(d) = diagnostics {
        fields.push(("diagnostics", s(d)));
    }
    obj(fields)
}

fn dispatch(svc: &Arc<Service>, req: &Json) -> Reply {
    Reply::Now(match req.get("cmd").and_then(Json::as_str) {
        Some("ping") => obj(vec![("ok", Json::Bool(true))]),
        Some("submit") => cmd_submit(svc, req),
        Some("status") => cmd_status(svc, req),
        Some("wait") => match req.get("run") {
            None => return Reply::Park { run: None },
            Some(_) => match req_run(req) {
                Ok(id) => return Reply::Park { run: Some(id) },
                Err(e) => err_frame(&e, None),
            },
        },
        Some("logs") => cmd_logs(svc, req),
        Some("cancel") => match req_run(req) {
            Ok(id) => obj(vec![
                ("ok", Json::Bool(true)),
                ("cancelled", Json::Bool(svc.cancel(id))),
            ]),
            Err(e) => err_frame(&e, None),
        },
        Some("drain") => {
            svc.drain();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("active", Json::Num(svc.active_runs() as f64)),
                ("queued", Json::Num(svc.queued_runs() as f64)),
            ])
        }
        other => err_frame(&format!("unknown command {other:?}"), None),
    })
}

fn req_run(req: &Json) -> Result<u64, String> {
    req.get("run")
        .and_then(Json::as_u64)
        .ok_or_else(|| "request needs a numeric `run` field".to_string())
}

fn cmd_submit(svc: &Arc<Service>, req: &Json) -> Json {
    let Some(cwl) = req.get("cwl").and_then(Json::as_str) else {
        return err_frame("submit needs a `cwl` path", None);
    };
    let inputs = match req.get("inputs").map(proto::json_to_yaml) {
        Some(yamlite::Value::Map(m)) => m,
        Some(yamlite::Value::Null) | None => yamlite::Map::new(),
        Some(_) => return err_frame("`inputs` must be an object", None),
    };
    let tenant = req
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("default");
    match svc.submit(Path::new(cwl), &inputs, tenant) {
        Ok(id) => {
            let run_dir = svc
                .status(id)
                .map(|snap| snap.run_dir.display().to_string())
                .unwrap_or_default();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("run", Json::Num(id as f64)),
                ("run_dir", s(run_dir)),
            ])
        }
        Err(SubmitError::Rejected {
            summary,
            diagnostics,
        }) => err_frame(&summary, Some(&diagnostics)),
        Err(e) => err_frame(&e.to_string(), None),
    }
}

fn snapshot_json(snap: &RunSnapshot) -> Json {
    let mut fields = vec![
        ("run", Json::Num(snap.id as f64)),
        ("tenant", s(snap.tenant.clone())),
        ("state", s(snap.state.as_str())),
        ("cwl", s(snap.cwl.display().to_string())),
        ("run_dir", s(snap.run_dir.display().to_string())),
        ("replayed", Json::Num(snap.replayed as f64)),
        ("appended", Json::Num(snap.appended as f64)),
    ];
    if let Some(e) = &snap.error {
        fields.push(("error", s(e.clone())));
    }
    if let Some(out) = &snap.outputs {
        fields.push((
            "outputs",
            proto::yaml_to_json(&yamlite::Value::Map(out.clone())),
        ));
    }
    obj(fields)
}

fn cmd_status(svc: &Arc<Service>, req: &Json) -> Json {
    let snaps: Vec<RunSnapshot> = match req.get("run").and_then(Json::as_u64) {
        Some(id) => svc.status(id).into_iter().collect(),
        None => svc.list(),
    };
    obj(vec![
        ("ok", Json::Bool(true)),
        ("runs", Json::Arr(snaps.iter().map(snapshot_json).collect())),
        ("active", Json::Num(svc.active_runs() as f64)),
        ("queued", Json::Num(svc.queued_runs() as f64)),
    ])
}

fn cmd_logs(svc: &Arc<Service>, req: &Json) -> Json {
    let id = match req_run(req) {
        Ok(id) => id,
        Err(e) => return err_frame(&e, None),
    };
    let Some(snap) = svc.status(id) else {
        return err_frame(&format!("unknown run {id}"), None);
    };
    let mut files = Vec::new();
    collect_files(&snap.run_dir, &mut files, 200);
    files.sort();
    let mut base = ok_snapshot(&snap);
    if let Json::Obj(m) = &mut base {
        m.insert(
            "files".to_string(),
            Json::Arr(files.into_iter().map(Json::Str).collect()),
        );
    }
    base
}

/// A `status` entry as a response of its own: the same fields plus `ok`.
fn ok_snapshot(snap: &RunSnapshot) -> Json {
    let mut base = snapshot_json(snap);
    if let Json::Obj(m) = &mut base {
        m.insert("ok".to_string(), Json::Bool(true));
    }
    base
}

/// Recursively list files under `dir` (relative paths), bounded.
fn collect_files(dir: &Path, out: &mut Vec<String>, cap: usize) {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<String>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            if out.len() >= cap {
                return;
            }
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out, cap);
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.display().to_string());
            }
        }
    }
    walk(dir, dir, out, cap);
}
