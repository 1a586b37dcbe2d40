//! The daemon: accept loop, job state, the shard-packing worker pool,
//! and the cell execution loop (cache → checkpoint-resume → grid-stepped
//! run → cached result).

use crate::proto::{error_line, parse_request, CellSpec, Request};
use bcp_sim::json::escape;
use bcp_sim::time::SimDuration;
use bcp_simnet::{emit_spec, parse_spec, LiveWorld, RunOptions, Scenario, World};
use bcp_snapshot::cache::{write_atomic, CellKey, Store};
use bcp_snapshot::RunMeta;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The store root (cache, checkpoints, job manifests).
    pub store_root: PathBuf,
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// The checkpoint/series grid in simulated seconds: running cells
    /// pause, stream their window samples and persist a checkpoint every
    /// this much sim time.
    pub grid: SimDuration,
    /// Total shard-thread budget; 0 = the machine's `BCP_THREADS`-capped
    /// parallelism. The sum of running cells' shard counts never exceeds
    /// this.
    pub budget: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CellStatus {
    Queued,
    Running,
    Done,
    Failed(String),
}

#[derive(Debug)]
struct CellState {
    key: CellKey,
    /// Shard count the cell's scenario asks for (its budget width).
    shards: usize,
    status: CellStatus,
    /// The result came straight from the cache, no execution.
    cached: bool,
    /// The execution was restored from a mid-run checkpoint.
    resumed: bool,
    stats_json: Option<String>,
}

#[derive(Debug)]
struct JobState {
    id: String,
    /// Cell hashes in submission order.
    cells: Vec<String>,
}

#[derive(Debug)]
struct Watcher {
    job: String,
    tx: mpsc::Sender<String>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Every known cell, by content hash.
    cells: HashMap<String, CellState>,
    /// Hashes awaiting a worker, in arrival order (packing may skip
    /// ahead past a cell too wide for the free budget).
    queue: VecDeque<String>,
    jobs: Vec<JobState>,
    /// Sum of shard counts of the cells running right now.
    running_shards: usize,
    next_job: u64,
    watchers: Vec<Watcher>,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    store: Store,
    grid: SimDuration,
    budget: usize,
    shutdown: AtomicBool,
}

/// Runs the server until a `shutdown` request arrives. Binds the socket,
/// replays the persisted job manifests (cells whose results are already
/// cached come back `done`; the rest re-queue, and any with a checkpoint
/// resume from it), then serves.
pub fn run_server(cfg: &ServeConfig) -> Result<(), String> {
    let store = Store::open(&cfg.store_root)
        .map_err(|e| format!("cannot open store {}: {e}", cfg.store_root.display()))?;
    let budget = if cfg.budget > 0 {
        cfg.budget
    } else {
        bcp_sim::threads::worker_count(usize::MAX)
    };
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner::default()),
        cv: Condvar::new(),
        store,
        grid: cfg.grid,
        budget,
        shutdown: AtomicBool::new(false),
    });
    let recovered = recover_jobs(&shared)?;
    if recovered > 0 {
        eprintln!(
            "recovered {recovered} job(s) from {}",
            cfg.store_root.display()
        );
    }

    // A stale socket file from a killed server would fail the bind;
    // remove it only if nothing answers on it.
    if cfg.socket.exists() && UnixStream::connect(&cfg.socket).is_err() {
        std::fs::remove_file(&cfg.socket).ok();
    }
    let listener = UnixListener::bind(&cfg.socket)
        .map_err(|e| format!("cannot bind {}: {e}", cfg.socket.display()))?;
    eprintln!(
        "serving on {} (budget {budget} shard-threads, grid {})",
        cfg.socket.display(),
        cfg.grid
    );

    let mut workers = Vec::new();
    for _ in 0..budget.min(32) {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&shared)));
    }

    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let socket = cfg.socket.clone();
        // A finished thread that is never joined keeps its stack mapped;
        // dropping its handle releases it. Live ones are joined below.
        handlers.retain(|h| !h.is_finished());
        handlers.push(std::thread::spawn(move || {
            handle_conn(&conn_shared, stream, &socket)
        }));
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    shared.cv.notify_all();
    for w in workers {
        w.join().ok();
    }
    for h in handlers {
        h.join().ok();
    }
    std::fs::remove_file(&cfg.socket).ok();
    Ok(())
}

/// Replays `jobs/*.json` manifests into fresh state: the restart path.
/// A manifest that cannot be read, parsed or canonicalised is renamed to
/// `<name>.bad` (which the `.json` filter skips), with a warning on
/// stderr, so one bad file cannot keep the server from starting. Returns
/// the number of jobs recovered.
fn recover_jobs(shared: &Shared) -> Result<usize, String> {
    let dir = shared.store.jobs_dir();
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    // j2 sorts after j10 lexically; order by the numeric id so recovered
    // job ids never collide with new ones.
    manifests.sort_by_key(|p| job_number(p).unwrap_or(u64::MAX));
    let mut recovered = 0;
    for path in manifests {
        let manifest = read_manifest(&path);
        let mut st = shared.inner.lock().expect("state lock");
        let num = job_number(&path).unwrap_or(0);
        st.next_job = st.next_job.max(num + 1);
        match manifest {
            Ok((id, cells)) => {
                enqueue_job(&mut st, shared, id, cells);
                recovered += 1;
            }
            Err(e) => {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                match std::fs::rename(&path, &bad) {
                    Ok(()) => eprintln!("warning: {e}; moved to {}", Path::new(&bad).display()),
                    Err(re) => eprintln!("warning: {e}; cannot move it aside: {re}"),
                }
            }
        }
    }
    Ok(recovered)
}

/// Reads one job manifest and canonicalises its cells.
fn read_manifest(path: &Path) -> Result<(String, Vec<(CellKey, usize)>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = bcp_sim::json::parse(&text)
        .map_err(|e| format!("{}: bad manifest: {e}", path.display()))?;
    let id = v
        .get("job")
        .and_then(|j| j.as_str())
        .ok_or_else(|| format!("{}: manifest lacks a job id", path.display()))?
        .to_string();
    let cells = v
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or_else(|| format!("{}: manifest lacks cells", path.display()))?
        .iter()
        .map(CellSpec::from_value)
        .collect::<Result<Vec<_>, _>>()
        .and_then(|cells| canonical_cells(&cells))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((id, cells))
}

fn job_number(path: &Path) -> Option<u64> {
    path.file_stem()?.to_str()?.strip_prefix('j')?.parse().ok()
}

/// Canonicalises a job's cells: parse, re-emit, key on the emitted text.
/// Returns each cell's key and its scenario's shard count, or the first
/// cell's error; either every cell is canonical or none is returned, so a
/// bad cell never leaves its siblings queued under no job.
fn canonical_cells(cells: &[CellSpec]) -> Result<Vec<(CellKey, usize)>, String> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let scen: Scenario =
                parse_spec(&cell.scn).map_err(|e| format!("cell {}: bad scn: {e}", i + 1))?;
            let canon = emit_spec(&scen)
                .map_err(|e| format!("cell {}: scn does not re-emit: {e}", i + 1))?;
            Ok((
                CellKey {
                    scn: canon,
                    quality: cell.quality.clone(),
                    seed: cell.seed,
                },
                scen.shards.max(1),
            ))
        })
        .collect()
}

/// Registers a job's canonical cells (deduplicating against every cell
/// already known), queues the ones without a cached result, and records
/// the job. Returns the number of cells whose results were already
/// available.
fn enqueue_job(st: &mut Inner, shared: &Shared, id: String, cells: Vec<(CellKey, usize)>) -> usize {
    let mut hashes = Vec::with_capacity(cells.len());
    let mut cached = 0usize;
    for (key, shards) in cells {
        let hash = key.hash_hex();
        if let Some(existing) = st.cells.get(&hash) {
            if existing.status == CellStatus::Done {
                cached += 1;
            }
            hashes.push(hash);
            continue;
        }
        // Not in memory: the on-disk cache may still know it (prior
        // server life, or another submission's store).
        let state = match shared.store.lookup(&key) {
            Some(bytes) => {
                cached += 1;
                CellState {
                    key,
                    shards,
                    status: CellStatus::Done,
                    cached: true,
                    resumed: false,
                    stats_json: Some(String::from_utf8_lossy(&bytes).into_owned()),
                }
            }
            None => CellState {
                key,
                shards,
                status: CellStatus::Queued,
                cached: false,
                resumed: false,
                stats_json: None,
            },
        };
        let queued = state.status == CellStatus::Queued;
        st.cells.insert(hash.clone(), state);
        if queued {
            st.queue.push_back(hash.clone());
        }
        hashes.push(hash);
    }
    st.jobs.push(JobState { id, cells: hashes });
    shared.cv.notify_all();
    cached
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/// The longest request line the server reads, newline included. A
/// 10-cell submit of the benchmark's sweep is 7.6 KB; the cap bounds
/// what one client can make the server buffer.
const MAX_LINE: u64 = 16 << 20;

/// Reads one request line of at most [`MAX_LINE`] bytes. A line that
/// reaches the cap without a newline is an error, never a truncated
/// request.
fn read_request_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    reader
        .take(MAX_LINE)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the request line: {e}"))?;
    if line.len() as u64 == MAX_LINE && !line.ends_with('\n') {
        return Err(format!("request line longer than {MAX_LINE} bytes"));
    }
    Ok(line)
}

fn handle_conn(shared: &Shared, stream: UnixStream, socket: &Path) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let line = match read_request_line(&mut reader) {
        Ok(line) => line,
        Err(e) => {
            let _ = writeln!(writer, "{}", error_line(&e));
            return;
        }
    };
    if line.trim().is_empty() {
        return;
    }
    let reply = match parse_request(&line) {
        Err(e) => error_line(&e),
        Ok(Request::Submit(cells)) => match do_submit(shared, &cells) {
            Ok((job, total, cached)) => {
                format!(
                    "{{\"ok\":true,\"job\":{},\"cells\":{total},\"cached\":{cached}}}",
                    escape(&job)
                )
            }
            Err(e) => error_line(&e),
        },
        Ok(Request::Status) => status_reply(shared),
        Ok(Request::Watch(job)) => {
            watch_loop(shared, &mut writer, &job);
            return;
        }
        Ok(Request::Shutdown) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            // Wake the accept loop so it observes the flag.
            let _ = UnixStream::connect(socket);
            "{\"ok\":true}".to_string()
        }
    };
    let _ = writeln!(writer, "{reply}");
}

/// Handles a submit: canonicalise, dedup, queue, persist the manifest.
/// Every cell is canonicalised before any state is touched, so a bad cell
/// fails the whole submit and queues nothing.
fn do_submit(shared: &Shared, cells: &[CellSpec]) -> Result<(String, usize, usize), String> {
    let canon = canonical_cells(cells)?;
    let mut st = shared.inner.lock().expect("state lock");
    let id = format!("j{}", st.next_job);
    st.next_job += 1;
    let cached = enqueue_job(&mut st, shared, id.clone(), canon);
    drop(st);
    // Persist the manifest so a restarted server re-queues what is not
    // yet cached. Written after queuing: losing a manifest loses the
    // restart guarantee for this job only, never corrupts state.
    let body = cells
        .iter()
        .map(CellSpec::to_json)
        .collect::<Vec<_>>()
        .join(",");
    let manifest = format!("{{\"job\":{},\"cells\":[{body}]}}\n", escape(&id));
    let path = shared.store.jobs_dir().join(format!("{id}.json"));
    write_atomic(&path, manifest.as_bytes())
        .map_err(|e| format!("cannot persist manifest {}: {e}", path.display()))?;
    Ok((id, cells.len(), cached))
}

fn status_reply(shared: &Shared) -> String {
    let st = shared.inner.lock().expect("state lock");
    let jobs = st
        .jobs
        .iter()
        .map(|j| {
            let mut done = 0;
            let mut cached = 0;
            let mut running = 0;
            let mut queued = 0;
            let mut failed = 0;
            for h in &j.cells {
                match st.cells.get(h).map(|c| (&c.status, c.cached)) {
                    Some((CellStatus::Done, was_cached)) => {
                        done += 1;
                        cached += usize::from(was_cached);
                    }
                    Some((CellStatus::Running, _)) => running += 1,
                    Some((CellStatus::Queued, _)) => queued += 1,
                    Some((CellStatus::Failed(_), _)) => failed += 1,
                    None => failed += 1,
                }
            }
            format!(
                "{{\"job\":{},\"total\":{},\"done\":{done},\"cached\":{cached},\
                 \"running\":{running},\"queued\":{queued},\"failed\":{failed}}}",
                escape(&j.id),
                j.cells.len()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"ok\":true,\"jobs\":[{jobs}]}}")
}

/// Streams a job's events until every cell settles, then emits the final
/// `done` line carrying each cell's stats.
fn watch_loop(shared: &Shared, writer: &mut UnixStream, job: &str) {
    let (tx, rx) = mpsc::channel::<String>();
    {
        let mut st = shared.inner.lock().expect("state lock");
        if !st.jobs.iter().any(|j| j.id == job) {
            let _ = writeln!(writer, "{}", error_line(&format!("unknown job {job}")));
            return;
        }
        st.watchers.push(Watcher {
            job: job.to_string(),
            tx,
        });
    }
    loop {
        // Drain streamed events, then check completion; the timeout
        // bounds the completion-check latency when no events flow.
        match rx.recv_timeout(std::time::Duration::from_millis(100)) {
            Ok(line) => {
                if writeln!(writer, "{line}").is_err() {
                    break; // client went away
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if let Some(done) = job_done_line(shared, job) {
            let _ = writeln!(writer, "{done}");
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = writeln!(writer, "{}", error_line("server shutting down"));
            break;
        }
    }
    let mut st = shared.inner.lock().expect("state lock");
    st.watchers.retain(|w| w.job != job || !same_channel(&w.tx));
}

/// Whether `tx` is a dead (receiver-dropped) channel — used to garbage
/// collect this watcher's own registration without an identity handle.
fn same_channel(tx: &mpsc::Sender<String>) -> bool {
    tx.send(String::new()).is_err()
}

/// The final watch line, once every cell of `job` is done or failed.
fn job_done_line(shared: &Shared, job: &str) -> Option<String> {
    let st = shared.inner.lock().expect("state lock");
    let j = st.jobs.iter().find(|j| j.id == job)?;
    let mut parts = Vec::with_capacity(j.cells.len());
    for h in &j.cells {
        let c = st.cells.get(h)?;
        match &c.status {
            CellStatus::Done => {
                let stats = c.stats_json.as_deref().unwrap_or("null");
                parts.push(format!(
                    "{{\"cell\":{},\"cached\":{},\"resumed\":{},\"stats\":{}}}",
                    escape(h),
                    c.cached,
                    c.resumed,
                    stats.trim()
                ));
            }
            CellStatus::Failed(msg) => {
                parts.push(format!(
                    "{{\"cell\":{},\"failed\":true,\"error\":{}}}",
                    escape(h),
                    escape(msg)
                ));
            }
            CellStatus::Queued | CellStatus::Running => return None,
        }
    }
    Some(format!(
        "{{\"event\":\"done\",\"job\":{},\"cells\":[{}]}}",
        escape(job),
        parts.join(",")
    ))
}

/// Sends an event line to every watcher whose job contains `hash`.
fn broadcast(shared: &Shared, hash: &str, line: &str) {
    let st = shared.inner.lock().expect("state lock");
    for w in &st.watchers {
        let in_job = st
            .jobs
            .iter()
            .any(|j| j.id == w.job && j.cells.iter().any(|h| h == hash));
        if in_job {
            let _ = w.tx.send(line.to_string());
        }
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

/// One pool worker: claim the first queued cell that fits the free
/// budget (skip-ahead packing — the generalisation of
/// `sweep_worker_budget` from a static division to a dynamic shard-sum
/// constraint), run it, repeat.
fn worker_loop(shared: &Shared) {
    loop {
        let hash = {
            let mut st = shared.inner.lock().expect("state lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let free = shared.budget.saturating_sub(st.running_shards);
                let pick = st.queue.iter().position(|h| {
                    st.cells.get(h).map_or(true, |c| {
                        // An over-wide cell (shards > budget) runs alone
                        // rather than starving forever.
                        c.shards <= free || st.running_shards == 0
                    })
                });
                if let Some(pos) = pick {
                    let h = st.queue.remove(pos).expect("position in bounds");
                    if let Some(c) = st.cells.get_mut(&h) {
                        c.status = CellStatus::Running;
                        st.running_shards += c.shards;
                    }
                    break h;
                }
                st = shared.cv.wait(st).expect("state lock");
            }
        };
        run_cell(shared, &hash);
        {
            let mut st = shared.inner.lock().expect("state lock");
            if let Some(c) = st.cells.get(&hash) {
                st.running_shards = st.running_shards.saturating_sub(c.shards);
            }
        }
        shared.cv.notify_all();
    }
}

/// Executes one claimed cell end to end and settles its state.
fn run_cell(shared: &Shared, hash: &str) {
    let key = {
        let st = shared.inner.lock().expect("state lock");
        let Some(c) = st.cells.get(hash) else { return };
        c.key.clone()
    };
    // The cache may have filled since this cell queued (an identical
    // cell in an earlier job, or another server on the same store).
    if let Some(bytes) = shared.store.lookup(&key) {
        let stats = String::from_utf8_lossy(&bytes).into_owned();
        settle(shared, hash, CellStatus::Done, true, false, Some(stats));
        return;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_cell(shared, hash, &key)
    }));
    match outcome {
        Ok(Ok(Some((stats, resumed)))) => {
            if let Err(e) = shared.store.insert(&key, stats.as_bytes()) {
                settle(
                    shared,
                    hash,
                    CellStatus::Failed(format!("cannot cache result: {e}")),
                    false,
                    resumed,
                    None,
                );
                return;
            }
            settle(shared, hash, CellStatus::Done, false, resumed, Some(stats));
        }
        // Preempted by shutdown: the checkpoint is on disk, a restarted
        // server's manifest replay re-queues the cell.
        Ok(Ok(None)) => settle(shared, hash, CellStatus::Queued, false, false, None),
        Ok(Err(msg)) => settle(shared, hash, CellStatus::Failed(msg), false, false, None),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "cell panicked".into());
            settle(shared, hash, CellStatus::Failed(msg), false, false, None);
        }
    }
}

/// Runs the world for one cell: restore from its checkpoint when one
/// exists, otherwise build cold; pause on the grid, stream the window
/// samples, persist a checkpoint per pause; finish and return the stats.
/// `Ok(None)` means the cell was preempted by shutdown after writing its
/// checkpoint.
fn execute_cell(
    shared: &Shared,
    hash: &str,
    key: &CellKey,
) -> Result<Option<(String, bool)>, String> {
    let mut scen = parse_spec(&key.scn).map_err(|e| format!("bad cached scn: {e}"))?;
    if key.quality == "test" {
        // The same smoke-mode clamp as `repro run --test`.
        let cap = SimDuration::from_secs(60);
        scen.duration = scen.duration.min(cap);
        if let Some(c) = scen.traffic_cutoff {
            scen.traffic_cutoff = Some(c.min(cap));
        }
    }
    let opts = RunOptions {
        series_every: Some(shared.grid),
        ..RunOptions::default()
    };
    let ckpt = shared.store.ckpt_path(key);
    let (mut lw, resumed) = match bcp_snapshot::load_with_meta(&ckpt) {
        // A checkpoint that decodes restores (decoding refuses states
        // the restore would not accept), but only one of this very cell
        // is resumed.
        Ok((state, _meta)) if state.scen == scen => (LiveWorld::restore(&state, &opts), true),
        // No checkpoint, an unreadable one (torn by a crash, say) or
        // another scenario's: start cold. Correctness never depends on
        // the checkpoint.
        _ => (World::build(&scen, &opts), false),
    };
    let meta = RunMeta {
        series_every: Some(shared.grid),
        trace: false,
        trace_filter: Vec::new(),
    };
    while let Some(t) = lw.next_grid(shared.grid) {
        lw.run_to(t);
        for s in lw.drain_series() {
            broadcast(
                shared,
                hash,
                &format!(
                    "{{\"event\":\"sample\",\"cell\":{},\"data\":{}}}",
                    escape(hash),
                    s.to_ndjson()
                ),
            );
        }
        if lw.time() < lw.end() {
            let bytes = bcp_snapshot::to_bytes_with_meta(&lw.snapshot(), &meta)
                .map_err(|e| format!("cannot snapshot: {e}"))?;
            write_atomic(&ckpt, &bytes).map_err(|e| format!("cannot checkpoint: {e}"))?;
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
        }
    }
    let out = lw.finish();
    for s in &out.series {
        broadcast(
            shared,
            hash,
            &format!(
                "{{\"event\":\"sample\",\"cell\":{},\"data\":{}}}",
                escape(hash),
                s.to_ndjson()
            ),
        );
    }
    Ok(Some((out.stats.to_json(), resumed)))
}

/// Settles a cell's final (or re-queued) state and announces it.
fn settle(
    shared: &Shared,
    hash: &str,
    status: CellStatus,
    cached: bool,
    resumed: bool,
    stats_json: Option<String>,
) {
    let line = {
        let mut st = shared.inner.lock().expect("state lock");
        let Some(c) = st.cells.get_mut(hash) else {
            return;
        };
        c.status = status.clone();
        c.cached = cached;
        c.resumed = resumed;
        c.stats_json = stats_json;
        match &status {
            CellStatus::Done => Some(format!(
                "{{\"event\":\"cell\",\"cell\":{},\"status\":\"done\",\
                 \"cached\":{cached},\"resumed\":{resumed}}}",
                escape(hash)
            )),
            CellStatus::Failed(msg) => Some(format!(
                "{{\"event\":\"cell\",\"cell\":{},\"status\":\"failed\",\"error\":{}}}",
                escape(hash),
                escape(msg)
            )),
            CellStatus::Queued | CellStatus::Running => None,
        }
    };
    if let Some(line) = line {
        broadcast(shared, hash, &line);
    }
    // Re-queued (shutdown preemption): nothing to announce, but the
    // queue must reflect it for a same-process drain.
    if status == CellStatus::Queued {
        let mut st = shared.inner.lock().expect("state lock");
        st.queue.push_back(hash.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server's shared state over a fresh store, with no workers, so
    /// queued cells stay queued.
    fn fresh(name: &str) -> Shared {
        let root = std::env::temp_dir().join(format!("bcp-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Shared {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            store: Store::open(&root).expect("the store opens"),
            grid: SimDuration::from_secs(10),
            budget: 1,
            shutdown: AtomicBool::new(false),
        }
    }

    fn cell(topo: &str) -> CellSpec {
        CellSpec {
            scn: format!("topo = {topo}\nsink = 0\nsenders = 1\n"),
            quality: "test".into(),
            seed: 1,
        }
    }

    fn manifest(job: &str, cells: &[CellSpec]) -> String {
        let cells: Vec<String> = cells.iter().map(CellSpec::to_json).collect();
        format!("{{\"job\":\"{job}\",\"cells\":[{}]}}\n", cells.join(","))
    }

    #[test]
    fn recovery_quarantines_bad_manifests_and_keeps_the_rest() {
        let shared = fresh("recover");
        let jobs = shared.store.jobs_dir();
        std::fs::write(jobs.join("j0.json"), "not json").unwrap();
        std::fs::write(
            jobs.join("j1.json"),
            manifest("j1", &[cell("grid:65:40.0")]),
        )
        .unwrap();
        let good = [cell("grid:3:40.0"), cell("line:4:40.0")];
        std::fs::write(jobs.join("j2.json"), manifest("j2", &good)).unwrap();

        assert_eq!(recover_jobs(&shared), Ok(1), "only j2 is recovered");
        for bad in ["j0.json", "j1.json"] {
            assert!(!jobs.join(bad).exists(), "{bad} left in place");
            assert!(
                jobs.join(format!("{bad}.bad")).exists(),
                "{bad} not quarantined"
            );
        }
        assert!(jobs.join("j2.json").exists());
        let st = shared.inner.lock().unwrap();
        let want: Vec<String> = canonical_cells(&good)
            .unwrap()
            .iter()
            .map(|(key, _)| key.hash_hex())
            .collect();
        assert_eq!(st.queue, want, "exactly j2's cells are queued");
        assert_eq!(st.jobs.len(), 1);
        assert_eq!(st.jobs[0].id, "j2");
        assert_eq!(st.next_job, 3, "quarantined ids are not reused");
        std::fs::remove_dir_all(shared.store.root()).ok();
    }

    #[test]
    fn a_submit_with_a_bad_cell_queues_nothing() {
        let shared = fresh("submit");
        let err = do_submit(&shared, &[cell("grid:3:40.0"), cell("grid:65:40.0")]).unwrap_err();
        assert!(err.starts_with("cell 2: bad scn"), "{err}");
        let st = shared.inner.lock().unwrap();
        assert!(st.queue.is_empty(), "the good cell was queued under no job");
        assert!(st.cells.is_empty() && st.jobs.is_empty());
        assert_eq!(st.next_job, 0, "no job id was spent");
        let manifests = std::fs::read_dir(shared.store.jobs_dir()).unwrap().count();
        assert_eq!(manifests, 0, "no manifest was written");
        std::fs::remove_dir_all(shared.store.root()).ok();
    }

    /// The stats JSON without the wall-clock `.engine` block.
    fn without_engine(stats: &str) -> bcp_sim::json::Value {
        use bcp_sim::json::Value;
        match bcp_sim::json::parse(stats).expect("stats are JSON") {
            Value::Obj(fields) => {
                Value::Obj(fields.into_iter().filter(|(k, _)| k != "engine").collect())
            }
            other => other,
        }
    }

    #[test]
    fn only_a_checkpoint_of_the_cell_itself_is_resumed() {
        let shared = fresh("resume");
        let spec = |seed: u64| CellSpec {
            scn: format!("topo = grid:3:40.0\nsink = 0\nsenders = 8\nseed = {seed}\n"),
            quality: "test".into(),
            seed: 1,
        };
        let (key, _) = canonical_cells(&[spec(1)]).unwrap().remove(0);
        let hash = key.hash_hex();
        let run = || {
            let (stats, resumed) = execute_cell(&shared, &hash, &key)
                .expect("the cell runs")
                .expect("no shutdown");
            (without_engine(&stats), resumed)
        };
        // A world of `scn`, clamped like a test-quality cell, paused at 10 s.
        let paused = |scn: &str| {
            let mut scen = parse_spec(scn).unwrap();
            scen.duration = scen.duration.min(SimDuration::from_secs(60));
            let mut lw = World::build(&scen, &RunOptions::default());
            lw.run_to(bcp_sim::time::SimTime::from_secs(10));
            lw.snapshot()
        };
        let plant = |state: &bcp_simnet::WorldState| {
            let bytes = bcp_snapshot::to_bytes(state).expect("encodes");
            std::fs::write(shared.store.ckpt_path(&key), bytes).unwrap();
        };

        let (cold, resumed) = run();
        assert!(!resumed, "no checkpoint yet");
        plant(&paused(&key.scn));
        assert_eq!(run(), (cold.clone(), true), "its own checkpoint resumes");
        plant(&paused(&spec(2).scn));
        assert_eq!(run(), (cold.clone(), false), "another seed's starts cold");
        let mut unfit = paused(&key.scn);
        unfit.nodes.pop();
        plant(&unfit);
        assert_eq!(run(), (cold, false), "one that does not fit starts cold");
        std::fs::remove_dir_all(shared.store.root()).ok();
    }

    #[test]
    fn request_lines_are_capped() {
        let cap = MAX_LINE as usize;
        let endless = vec![b'['; cap + 1];
        let err = read_request_line(&mut std::io::Cursor::new(endless)).unwrap_err();
        assert!(err.contains("longer than"), "{err}");

        let mut at_cap = vec![b' '; cap - 1];
        at_cap.push(b'\n');
        let line = read_request_line(&mut std::io::Cursor::new(at_cap)).unwrap();
        assert_eq!(line.len(), cap, "a line of exactly the cap is whole");

        let two = b"{\"cmd\":\"status\"}\n{\"cmd\":\"shutdown\"}\n";
        let line = read_request_line(&mut std::io::Cursor::new(&two[..])).unwrap();
        assert_eq!(line, "{\"cmd\":\"status\"}\n");
    }
}
