//! What the daemon's readiness loop needs from the C runtime — `poll(2)`,
//! a wake pair that a signal handler can write to, `signal(2)` — declared
//! by hand (the vendored environment has no `libc` crate) and wrapped so
//! that no other file in this crate says `unsafe`.

use std::ffi::{c_int, c_short};
use std::io::{self, Read};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const SIGTERM: c_int = 15;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// One entry of a poll set: `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait for `fd` to have bytes (or a connection, or an EOF) to read.
    pub(crate) fn readable(fd: &impl AsRawFd) -> Self {
        Self::new(fd.as_raw_fd(), POLLIN)
    }

    /// Wait for `fd` to accept more bytes.
    pub(crate) fn writable(fd: &impl AsRawFd) -> Self {
        Self::new(fd.as_raw_fd(), POLLOUT)
    }

    /// An entry that keeps its place in the set and never fires (`poll`
    /// skips negative descriptors).
    pub(crate) fn skip() -> Self {
        Self::new(-1, 0)
    }

    fn new(fd: RawFd, events: c_short) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the last [`poll_ready`] report anything for this entry?
    /// Hang-ups and errors count: the `read`/`write` that follows says
    /// which it was.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`: no
/// timeout). A signal arriving meanwhile is an ordinary early return with
/// nothing ready — the caller re-reads its state either way.
pub(crate) fn poll_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    // Rounded up, so a deadline is never polled just short of itself.
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // records and the count passed is its length, so the kernel reads and
    // writes only inside it.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    if n >= 0 {
        return Ok(());
    }
    match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        e => Err(e),
    }
}

/// How anything outside the loop thread ends its `poll`: a socket pair
/// with one end in the poll set. A byte written to the other end makes the
/// set ready, and stays there until the loop drains it — so a wake-up that
/// lands between the loop's state checks and its `poll` call is not lost.
/// One pending byte is as good as many; a full pair is not an error.
pub(crate) struct Wake {
    tx: UnixStream,
    rx: UnixStream,
    /// Raised by [`Wake::term`]: the loop should stop without draining.
    term: AtomicBool,
}

impl Wake {
    pub(crate) fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            tx,
            rx,
            term: AtomicBool::new(false),
        })
    }

    /// End the loop's current (or next) `poll`.
    pub(crate) fn wake(&self) {
        // SAFETY: the buffer is one live byte and the count is 1; `tx`
        // lives as long as `self`. Failure (a full pair) is ignored: a
        // byte is already pending then.
        unsafe {
            write(self.tx.as_raw_fd(), &1u8, 1);
        }
    }

    /// Ask the loop to stop now. Async-signal-safe — one atomic store and
    /// one `write(2)` — because the SIGTERM handler calls it.
    pub(crate) fn term(&self) {
        // SeqCst on both sides; the byte written after the store is what
        // makes the loop look.
        self.term.store(true, Ordering::SeqCst);
        self.wake();
    }

    pub(crate) fn term_raised(&self) -> bool {
        self.term.load(Ordering::SeqCst)
    }

    /// The poll-set entry that fires on a pending wake-up.
    pub(crate) fn poll_entry(&self) -> PollFd {
        PollFd::readable(&self.rx)
    }

    /// Consume every pending byte, so the next `poll` blocks again.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The wake the SIGTERM handler raises — the only process-global state
/// the daemon has. Holds one leaked `Arc` count (see [`term_on_sigterm`]).
static SIGTERM_TARGET: AtomicPtr<Wake> = AtomicPtr::new(std::ptr::null_mut());

extern "C" fn on_sigterm(_sig: c_int) {
    let target = SIGTERM_TARGET.load(Ordering::SeqCst);
    if !target.is_null() {
        // SAFETY: a non-null target came from `Arc::into_raw` in
        // `term_on_sigterm` and that count is never released, so the
        // `Wake` is alive. `Wake::term` is async-signal-safe.
        unsafe { (*target).term() }
    }
}

/// From now on SIGTERM calls [`Wake::term`] on `wake`. The process has one
/// handler, so the latest call wins. Each call leaks one reference to its
/// wake on purpose: the handler may be running on another thread when the
/// target is replaced, so an old target can never be freed safely — and a
/// daemon process makes this call once.
pub(crate) fn term_on_sigterm(wake: &Arc<Wake>) {
    let target = Arc::into_raw(wake.clone()).cast_mut();
    SIGTERM_TARGET.store(target, Ordering::SeqCst);
    // SAFETY: `signal(2)` with a valid signal number and a function of the
    // handler ABI that restricts itself to async-signal-safe operations.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The property the loop relies on: a wake-up raised *before* the poll
    /// call ends it (level-triggered), and a drained pair blocks again.
    #[test]
    fn pending_wake_ends_the_next_poll_and_drain_rearms_it() {
        let wake = Wake::new().unwrap();
        wake.wake();
        wake.wake();
        let mut fds = [wake.poll_entry()];
        poll_ready(&mut fds, None).unwrap();
        assert!(fds[0].ready());
        wake.drain();
        let mut fds = [wake.poll_entry(), PollFd::skip()];
        poll_ready(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready() && !fds[1].ready());
        assert!(!wake.term_raised());
        wake.term();
        assert!(wake.term_raised());
        let mut fds = [wake.poll_entry()];
        poll_ready(&mut fds, None).unwrap();
        assert!(fds[0].ready());
    }

    /// More wake-ups than the pair can hold are not an error and do not
    /// block the caller.
    #[test]
    fn a_full_wake_pair_neither_blocks_nor_fails() {
        let wake = Wake::new().unwrap();
        for _ in 0..100_000 {
            wake.wake();
        }
        wake.drain();
        let mut fds = [wake.poll_entry()];
        poll_ready(&mut fds, Some(Duration::ZERO)).unwrap();
        assert!(!fds[0].ready());
    }
}
