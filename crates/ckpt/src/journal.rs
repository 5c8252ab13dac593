//! The journal file format and its reader/writer.
//!
//! Layout:
//!
//! ```text
//! [8-byte magic "CKPTJNL1"]
//! [frame]*
//!
//! frame  := [u32 le payload_len][u32 le crc32(payload)][payload]
//! payload:= 0x01 header-body   (exactly one, first)
//!         | 0x02 task-body     (zero or more)
//! ```
//!
//! The header body is `version:u32, run_hash:u64, label:(u32 len + utf8)`.
//! A task body is `label, fingerprint:u64, step_flag:u8 [step], result`
//! where strings are `u32 len + utf8`. All integers little-endian.
//!
//! Because frames are only ever appended, a crash can damage at most the
//! final frame. [`load`] stops at the first frame that is short, oversized,
//! or fails its checksum and reports everything before it as the valid
//! prefix; [`Journal::reopen`] truncates the file to that prefix. A
//! corrupted *interior* frame therefore also drops everything after it —
//! the cost of not maintaining a side index, and safe because dropped
//! records only mean re-execution, never wrong results.

use crate::crc32;
use parking_lot::Mutex;
use simtest::{StopSignal, Waited};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// File magic: identifies a parsl-cwl checkpoint journal, version 1.
pub const MAGIC: &[u8; 8] = b"CKPTJNL1";

const TAG_HEADER: u8 = 0x01;
const TAG_TASK: u8 = 0x02;
/// Frames above this size are treated as corruption, not allocated.
const MAX_PAYLOAD: u32 = 64 << 20;

/// The journal's identity frame, written once at creation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version (currently 1).
    pub version: u32,
    /// Binds the journal to one logical run: a hash of the workflow
    /// definition (all referenced CWL files) and the root input object.
    /// A journal whose hash does not match the run being resumed must be
    /// invalidated wholesale.
    pub run_hash: u64,
    /// Human-readable run label (workflow file name).
    pub label: String,
}

/// One journaled task completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Task label — the DFK memo key's first half.
    pub label: String,
    /// Input fingerprint — the memo key's second half.
    pub fingerprint: u64,
    /// Originating CWL step id, when the task came from a workflow step.
    pub step: Option<String>,
    /// The task's result value, serialized with `yamlite::to_string_flow`.
    pub result: String,
}

/// Result of reading a journal from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The identity frame.
    pub header: Header,
    /// All intact task records, in append order.
    pub records: Vec<Record>,
    /// Byte offset of the end of the last intact frame.
    pub(crate) valid_len: u64,
    /// True when trailing bytes past `valid_len` were damaged (torn write
    /// or corruption) and must be truncated before appending.
    pub torn: bool,
}

/// Durability policy for appends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// fsync after every append: a record is durable the moment the task
    /// that produced it completes.
    TaskExit,
    /// Appends hit the OS page cache immediately and never wait on an
    /// fsync; a background flusher fsyncs every interval (exactly: the
    /// deadlines are `interval` apart on the journal's clock). Loses at most
    /// one interval of completions on power failure (a process crash alone
    /// loses nothing — the page cache survives it).
    Periodic(Duration),
}

// ---------------------------------------------------------------- encoding

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("truncated payload".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in payload".to_string())
    }
}

fn encode_header(h: &Header) -> Vec<u8> {
    let mut buf = vec![TAG_HEADER];
    buf.extend_from_slice(&h.version.to_le_bytes());
    buf.extend_from_slice(&h.run_hash.to_le_bytes());
    put_str(&mut buf, &h.label);
    buf
}

fn encode_record(r: &Record) -> Vec<u8> {
    let mut buf = vec![TAG_TASK];
    put_str(&mut buf, &r.label);
    buf.extend_from_slice(&r.fingerprint.to_le_bytes());
    match &r.step {
        Some(step) => {
            buf.push(1);
            put_str(&mut buf, step);
        }
        None => buf.push(0),
    }
    put_str(&mut buf, &r.result);
    buf
}

fn decode_record(payload: &[u8]) -> Result<Record, String> {
    let mut c = Cursor {
        buf: payload,
        pos: 1, // tag already checked
    };
    let label = c.str()?;
    let fingerprint = c.u64()?;
    let step = match c.u8()? {
        0 => None,
        1 => Some(c.str()?),
        _ => return Err("bad step flag".into()),
    };
    let result = c.str()?;
    Ok(Record {
        label,
        fingerprint,
        step,
        result,
    })
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

// ----------------------------------------------------------------- loading

/// Read a journal, verifying every frame. Corrupt or incomplete trailing
/// frames are dropped (reported via `torn`/`valid_len`), never trusted. A
/// missing or damaged header frame is a hard error — the file cannot be
/// bound to a run. (Journal creation fsyncs the header before any task can
/// complete, so a crash cannot produce a headerless journal.)
pub fn load(path: &Path) -> Result<LoadedJournal, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("ckpt: cannot read journal {}: {e}", path.display()))?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(format!(
            "ckpt: {} is not a checkpoint journal (bad magic)",
            path.display()
        ));
    }

    let mut pos = MAGIC.len();
    let mut header: Option<Header> = None;
    let mut records = Vec::new();
    let mut torn = false;

    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 8 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len == 0 || len > MAX_PAYLOAD || rest.len() - 8 < len as usize {
            torn = true;
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        match (payload[0], &header) {
            (TAG_HEADER, None) => {
                let parse = |payload: &[u8]| -> Result<Header, String> {
                    let mut c = Cursor {
                        buf: payload,
                        pos: 1,
                    };
                    Ok(Header {
                        version: c.u32()?,
                        run_hash: c.u64()?,
                        label: c.str()?,
                    })
                };
                match parse(payload) {
                    Ok(h) => header = Some(h),
                    Err(e) => {
                        return Err(format!(
                            "ckpt: {} has a corrupt header frame: {e}",
                            path.display()
                        ))
                    }
                }
            }
            (TAG_TASK, Some(_)) => match decode_record(payload) {
                Ok(r) => records.push(r),
                Err(_) => {
                    torn = true;
                    break;
                }
            },
            _ => {
                // Unknown tag, duplicate header, or task-before-header:
                // treat as corruption starting here.
                if header.is_none() {
                    return Err(format!("ckpt: {} has no header frame", path.display()));
                }
                torn = true;
                break;
            }
        }
        pos += 8 + len as usize;
    }

    let header = header.ok_or_else(|| format!("ckpt: {} has no header frame", path.display()))?;
    Ok(LoadedJournal {
        header,
        records,
        valid_len: pos as u64,
        torn,
    })
}

// ----------------------------------------------------------------- writing

/// The durability half of an open journal: a second handle on the same open
/// file (so an fsync never holds the append lock) and the two counters that
/// say whether an fsync has anything to cover.
struct Syncer {
    file: File,
    /// Records written to the OS through this journal. Bumped *after* the
    /// write returns, so an fsync that starts after reading `n` here covers
    /// at least the first `n` records.
    appended: AtomicUsize,
    /// Records an fsync is known to cover.
    synced: AtomicUsize,
}

impl Syncer {
    /// fsync unless every appended record is already covered. A record
    /// appended while an fsync is in flight is not counted as covered by
    /// it: the target is read before the fsync starts.
    fn sync(&self) -> Result<(), String> {
        let target = self.appended.load(Ordering::SeqCst);
        if self.synced.load(Ordering::SeqCst) >= target {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| format!("ckpt: journal fsync failed: {e}"))?;
        self.synced.fetch_max(target, Ordering::SeqCst);
        Ok(())
    }
}

/// An open journal accepting appends. Thread-safe; clone the `Arc` it is
/// normally held in. Dropping the journal fsyncs outstanding appends and
/// stops the periodic flusher, if any, without waiting out its period.
pub struct Journal {
    path: PathBuf,
    mode: SyncMode,
    /// The append handle; the lock keeps frames whole.
    writer: Mutex<File>,
    syncer: Arc<Syncer>,
    stop: Arc<StopSignal>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Journal {
    /// Create a fresh journal at `path`. Fails if the file already exists —
    /// an existing journal means a previous run's completed work, and
    /// clobbering it silently would defeat the point; callers resume it or
    /// remove it explicitly.
    pub fn create(
        path: impl Into<PathBuf>,
        header: &Header,
        mode: SyncMode,
    ) -> Result<Self, String> {
        Self::create_with_clock(path, header, mode, simtest::real_clock())
    }

    /// [`Journal::create`] with an explicit clock for the periodic flusher —
    /// under a virtual clock the flush cadence follows logical time.
    pub fn create_with_clock(
        path: impl Into<PathBuf>,
        header: &Header,
        mode: SyncMode,
        clock: simtest::ClockRef,
    ) -> Result<Self, String> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("ckpt: cannot create {}: {e}", dir.display()))?;
        }
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| format!("ckpt: cannot create journal {}: {e}", path.display()))?;
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&frame(&encode_header(header)));
        file.write_all(&buf)
            .and_then(|_| file.sync_data())
            .map_err(|e| format!("ckpt: cannot write journal header: {e}"))?;
        sync_parent_dir(&path);
        Self::from_file(path, file, mode, clock)
    }

    /// Open an existing journal for appending: verify it with [`load`],
    /// truncate any torn tail, and position at the end of the valid prefix.
    /// Returns the journal alongside what was loaded from it.
    pub fn resume(
        path: impl Into<PathBuf>,
        mode: SyncMode,
    ) -> Result<(Self, LoadedJournal), String> {
        Self::resume_with_clock(path, mode, simtest::real_clock())
    }

    /// [`Journal::resume`] with an explicit clock for the periodic flusher.
    pub fn resume_with_clock(
        path: impl Into<PathBuf>,
        mode: SyncMode,
        clock: simtest::ClockRef,
    ) -> Result<(Self, LoadedJournal), String> {
        let path = path.into();
        let loaded = load(&path)?;
        let journal = Self::open_verified(path, &loaded, mode, clock)?;
        Ok((journal, loaded))
    }

    /// The second half of [`Journal::resume`], for a caller that has
    /// already read the file with [`load`] (to check its run hash, say) and
    /// should not pay to read and checksum it again: truncate the torn tail
    /// `loaded` reports and open for appending at the end of its valid
    /// prefix. `loaded` must come from this `path`, unmodified since.
    pub fn reopen(
        path: impl Into<PathBuf>,
        loaded: &LoadedJournal,
        mode: SyncMode,
    ) -> Result<Self, String> {
        Self::open_verified(path.into(), loaded, mode, simtest::real_clock())
    }

    fn open_verified(
        path: PathBuf,
        loaded: &LoadedJournal,
        mode: SyncMode,
        clock: simtest::ClockRef,
    ) -> Result<Self, String> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("ckpt: cannot open journal {}: {e}", path.display()))?;
        if loaded.torn {
            file.set_len(loaded.valid_len)
                .and_then(|_| file.sync_data())
                .map_err(|e| format!("ckpt: cannot truncate torn tail: {e}"))?;
        }
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| format!("ckpt: cannot seek journal: {e}"))?;
        Self::from_file(path, file, mode, clock)
    }

    fn from_file(
        path: PathBuf,
        file: File,
        mode: SyncMode,
        clock: simtest::ClockRef,
    ) -> Result<Self, String> {
        let syncer = Arc::new(Syncer {
            file: file
                .try_clone()
                .map_err(|e| format!("ckpt: cannot open journal {}: {e}", path.display()))?,
            appended: AtomicUsize::new(0),
            synced: AtomicUsize::new(0),
        });
        let stop = Arc::new(StopSignal::new());
        let flusher = if let SyncMode::Periodic(period) = mode {
            let syncer = syncer.clone();
            let stop = stop.clone();
            // A zero period would spin; the config loader already floors it.
            let period = period.max(Duration::from_millis(1));
            Some(std::thread::spawn(move || {
                // One wait per period, deadlines exactly `period` apart on
                // the journal's clock, ended early only by the stop signal.
                let mut deadline = clock.now() + period;
                while clock.wait(deadline.saturating_sub(clock.now()), &stop) == Waited::Elapsed {
                    let _ = syncer.sync();
                    deadline += period;
                }
            }))
        } else {
            None
        };
        Ok(Self {
            path,
            mode,
            writer: Mutex::new(file),
            syncer,
            stop,
            flusher: Mutex::new(flusher),
        })
    }

    /// Append one task record. In [`SyncMode::TaskExit`] the record is
    /// durable (fsync'd) when this returns; in [`SyncMode::Periodic`] it
    /// returns as soon as the OS has the bytes.
    pub fn append(&self, record: &Record) -> Result<(), String> {
        let buf = frame(&encode_record(record));
        self.writer
            .lock()
            .write_all(&buf)
            .map_err(|e| format!("ckpt: journal append failed: {e}"))?;
        self.syncer.appended.fetch_add(1, Ordering::SeqCst);
        if self.mode == SyncMode::TaskExit {
            self.syncer.sync()?;
        }
        Ok(())
    }

    /// Force outstanding appends to stable storage (a no-op when every
    /// append is already covered by an earlier fsync).
    pub fn flush(&self) -> Result<(), String> {
        self.syncer.sync()
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.stop.raise();
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
        let _ = self.syncer.sync();
    }
}

/// Best-effort fsync of the containing directory so the new file's
/// directory entry is durable too (Linux allows fsync on a directory fd).
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtest::Clock as _;

    impl Journal {
        /// Records appended through this handle (not counting pre-existing ones).
        fn appended(&self) -> usize {
            self.syncer.appended.load(Ordering::SeqCst)
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn header() -> Header {
        Header {
            version: 1,
            run_hash: 0xDEAD_BEEF_CAFE_F00D,
            label: "diamond.cwl".into(),
        }
    }

    fn rec(label: &str, fp: u64) -> Record {
        Record {
            label: label.into(),
            fingerprint: fp,
            step: Some(format!("step_{label}")),
            result: format!("{{output: {label}}}"),
        }
    }

    #[test]
    fn roundtrip_create_append_load() {
        let path = tmp("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("seed", 11)).unwrap();
        journal.append(&rec("left", 22)).unwrap();
        let mut no_step = rec("right", 33);
        no_step.step = None;
        journal.append(&no_step).unwrap();
        assert_eq!(journal.appended(), 3);
        drop(journal);

        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, header());
        assert!(!loaded.torn);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[0], rec("seed", 11));
        assert_eq!(loaded.records[1], rec("left", 22));
        assert_eq!(loaded.records[2].step, None);
        assert_eq!(loaded.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn create_refuses_existing_journal() {
        let path = tmp("exists.ckpt");
        let _ = std::fs::remove_file(&path);
        let _j = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        let err = match Journal::create(&path, &header(), SyncMode::TaskExit) {
            Err(e) => e,
            Ok(_) => panic!("expected create to refuse an existing journal"),
        };
        assert!(err.contains("cannot create journal"), "{err}");
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("a", 1)).unwrap();
        journal.append(&rec("b", 2)).unwrap();
        drop(journal);
        let good_len = std::fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: a frame whose payload is cut short.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&1000u32.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"partial garbage").unwrap();
        drop(f);

        let loaded = load(&path).unwrap();
        assert!(loaded.torn);
        assert_eq!(loaded.valid_len, good_len);
        assert_eq!(loaded.records.len(), 2);

        // Resume truncates the tail and further appends stay readable.
        let (journal, loaded) = Journal::resume(&path, SyncMode::TaskExit).unwrap();
        assert!(loaded.torn);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        journal.append(&rec("c", 3)).unwrap();
        drop(journal);
        let reloaded = load(&path).unwrap();
        assert!(!reloaded.torn);
        assert_eq!(
            reloaded
                .records
                .iter()
                .map(|r| r.label.as_str())
                .collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
    }

    #[test]
    fn short_frame_header_is_torn() {
        let path = tmp("shorthdr.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("a", 1)).unwrap();
        drop(journal);
        // Only 3 bytes of the next frame's length field made it to disk.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x10, 0x00, 0x00]).unwrap();
        drop(f);
        let loaded = load(&path).unwrap();
        assert!(loaded.torn);
        assert_eq!(loaded.records.len(), 1);
    }

    #[test]
    fn checksum_failure_drops_tail() {
        let path = tmp("crc.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("a", 1)).unwrap();
        let after_a = std::fs::metadata(&path).unwrap().len();
        journal.append(&rec("b", 2)).unwrap();
        drop(journal);

        // Flip one payload byte of record "b".
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = after_a as usize + 9; // inside b's payload
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load(&path).unwrap();
        assert!(loaded.torn);
        assert_eq!(loaded.valid_len, after_a);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].label, "a");
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = tmp("notajournal.txt");
        std::fs::write(&path, b"hello world, definitely yaml").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn periodic_mode_is_durable_after_drop() {
        let path = tmp("periodic.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(
            &path,
            &header(),
            SyncMode::Periodic(Duration::from_secs(30)),
        )
        .unwrap();
        for i in 0..10 {
            journal.append(&rec("t", i)).unwrap();
        }
        journal.flush().unwrap();
        drop(journal);
        let loaded = load(&path).unwrap();
        assert!(!loaded.torn);
        assert_eq!(loaded.records.len(), 10);
    }

    #[test]
    fn drop_wakes_a_flusher_parked_for_an_hour() {
        // Manual virtual clock, never advanced: the flusher can only leave
        // its hour-long wait by being woken. At a sleep-then-check flusher
        // this drop never returns.
        let path = tmp("wakeable.ckpt");
        let _ = std::fs::remove_file(&path);
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let journal = Journal::create_with_clock(
            &path,
            &header(),
            SyncMode::Periodic(Duration::from_secs(3600)),
            vc.clone(),
        )
        .unwrap();
        journal.append(&rec("t", 1)).unwrap();
        assert!(
            simtest::wait_until(Duration::from_secs(20), || vc.sleeper_count() == 1),
            "flusher never parked on the journal's clock"
        );
        assert!(
            simtest::returns_within(Duration::from_secs(20), move || drop(journal)).is_some(),
            "Journal::drop waited out the flusher's period"
        );
        assert_eq!(vc.sleeper_count(), 0, "the flusher left a deadline behind");
        assert_eq!(vc.now(), Duration::ZERO, "a cancelled wait moved time");
        assert_eq!(load(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn periodic_flusher_syncs_once_per_period_on_its_clock() {
        let path = tmp("cadence.ckpt");
        let _ = std::fs::remove_file(&path);
        let vc = simtest::VirtualClock::new();
        vc.set_auto(false);
        let period = Duration::from_secs(30);
        let journal =
            Journal::create_with_clock(&path, &header(), SyncMode::Periodic(period), vc.clone())
                .unwrap();
        let parked = || simtest::wait_until(Duration::from_secs(20), || vc.sleeper_count() == 1);
        let synced = |n: usize| {
            simtest::wait_until(Duration::from_secs(20), || {
                journal.syncer.synced.load(Ordering::SeqCst) == n
            })
        };
        journal.append(&rec("a", 1)).unwrap();
        assert!(parked());
        // One tick short of the period: nothing synced yet.
        vc.advance(period - Duration::from_millis(1));
        assert!(parked());
        assert_eq!(journal.syncer.synced.load(Ordering::SeqCst), 0);
        vc.advance(Duration::from_millis(1));
        assert!(synced(1), "the flusher syncs when its period elapses");
        // The next deadline is one full period on, not a tick.
        assert!(parked());
        journal.append(&rec("b", 2)).unwrap();
        vc.advance(period - Duration::from_millis(1));
        assert!(parked());
        assert_eq!(journal.syncer.synced.load(Ordering::SeqCst), 1);
        vc.advance(Duration::from_millis(1));
        assert!(synced(2));
    }

    #[test]
    fn sync_skips_when_nothing_was_appended_since_the_last_one() {
        let path = tmp("skip.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(
            &path,
            &header(),
            SyncMode::Periodic(Duration::from_secs(3600)),
        )
        .unwrap();
        let synced = || journal.syncer.synced.load(Ordering::SeqCst);
        journal.flush().unwrap();
        assert_eq!(synced(), 0, "nothing appended: nothing to cover");
        journal.append(&rec("a", 1)).unwrap();
        journal.append(&rec("b", 2)).unwrap();
        assert_eq!(synced(), 0, "periodic appends do not sync");
        journal.flush().unwrap();
        assert_eq!(synced(), 2);
        // A record appended after a sync's target was read is not counted
        // as covered by it: the next sync must run.
        journal.append(&rec("c", 3)).unwrap();
        assert_eq!(synced(), 2);
        journal.flush().unwrap();
        assert_eq!(synced(), 3);

        // TaskExit: every append is covered when it returns, so the final
        // flush and the drop have nothing left to do.
        let path = tmp("skip-taskexit.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("a", 1)).unwrap();
        assert_eq!(journal.syncer.synced.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reopen_uses_the_load_it_is_given() {
        let path = tmp("reopen.ckpt");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path, &header(), SyncMode::TaskExit).unwrap();
        journal.append(&rec("a", 1)).unwrap();
        drop(journal);
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x10, 0x00, 0x00]).unwrap();
        drop(f);

        let loaded = load(&path).unwrap();
        assert!(loaded.torn);
        // `load` alone never modifies the file; `reopen` truncates to the
        // prefix that load verified and appends after it.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len + 3);
        let journal = Journal::reopen(&path, &loaded, SyncMode::TaskExit).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        journal.append(&rec("b", 2)).unwrap();
        drop(journal);
        let reloaded = load(&path).unwrap();
        assert!(!reloaded.torn);
        assert_eq!(reloaded.records, vec![rec("a", 1), rec("b", 2)]);
    }

    #[test]
    fn empty_journal_has_header_only() {
        let path = tmp("empty.ckpt");
        let _ = std::fs::remove_file(&path);
        drop(Journal::create(&path, &header(), SyncMode::TaskExit).unwrap());
        let loaded = load(&path).unwrap();
        assert!(!loaded.torn);
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.header.run_hash, header().run_hash);
    }
}
