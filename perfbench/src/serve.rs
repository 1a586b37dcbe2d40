//! The serve workload: one closed-loop client against `run_server`
//! in-process — a cold pass over a paper grid on a fresh store, then a
//! restart on the same store and a warm pass that must come entirely
//! from the cache.

use crate::span::Tracer;
use crate::{Rep, Stamp};
use bcp_serve::client::{request_line, watch};
use bcp_serve::proto::{shutdown_line, submit_line};
use bcp_serve::{run_server, CellSpec, ServeConfig};
use bcp_sim::json::parse;
use bcp_sim::time::SimDuration;
use bcp_simnet::{emit_spec, ModelKind, ScenarioBuilder};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's shard-thread budget: one cell at a time, on one thread.
pub const BUDGET: usize = 1;

/// The server's default checkpoint/series grid.
const GRID_S: u64 = 10;
/// Long enough for one 1000-packet burst per sender (2 kbps of 32-byte
/// packets), short enough for 13–15 repetitions in a 30 s run.
const CELL_HORIZON_S: u64 = 150;

/// Models of the paper grid; each runs with 15 and with 5 senders. The
/// 15-sender sensor cell goes first: at about 0.5 s it makes the first
/// result mostly simulation, where a 0.1 s cell is mostly checkpoint
/// writes and far noisier.
const MODELS: [(&str, ModelKind, usize); 5] = [
    ("sensor", ModelKind::Sensor, 100),
    ("dot11", ModelKind::Dot11, 100),
    ("dual10", ModelKind::DualRadio, 10),
    ("dual100", ModelKind::DualRadio, 100),
    ("dual1000", ModelKind::DualRadio, 1000),
];
const SENDERS: [usize; 2] = [15, 5];

/// The cells, canonicalised client-side as `repro submit` does: each
/// model, burst and sender count on the paper's single-hop grid, at the
/// workload seed.
fn cells(seed: u64) -> Result<Vec<CellSpec>, String> {
    let mut cells = Vec::new();
    for &(_, model, burst) in &MODELS {
        for &n in &SENDERS {
            let scen = ScenarioBuilder::single_hop(model, n, burst, seed)
                .duration(SimDuration::from_secs(CELL_HORIZON_S))
                .build()
                .map_err(|e| format!("invalid cell: {e}"))?;
            let scn = emit_spec(&scen).map_err(|e| format!("cell does not emit: {e}"))?;
            cells.push(CellSpec {
                scn,
                quality: "quick".into(),
                seed,
            });
        }
    }
    Ok(cells)
}

struct Server {
    sock: PathBuf,
    thread: JoinHandle<Result<(), String>>,
}

/// Starts `run_server` on a thread and waits until the socket accepts.
/// Returns the server and the seconds that took.
fn start(store: &Path, sock: &Path) -> Result<(Server, f64), String> {
    let cfg = ServeConfig {
        store_root: store.to_path_buf(),
        socket: sock.to_path_buf(),
        grid: SimDuration::from_secs(GRID_S),
        budget: BUDGET,
    };
    let t0 = Instant::now();
    let thread = std::thread::spawn(move || run_server(&cfg));
    loop {
        if UnixStream::connect(sock).is_ok() {
            break;
        }
        if thread.is_finished() {
            let why = match thread.join() {
                Ok(Err(e)) => e,
                _ => "server exited".into(),
            };
            return Err(format!("server did not start: {why}"));
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("server did not accept within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let up = t0.elapsed().as_secs_f64();
    Ok((
        Server {
            sock: sock.to_path_buf(),
            thread,
        },
        up,
    ))
}

fn stop(server: Server) -> Result<(), String> {
    request_line(&server.sock, &shutdown_line())?;
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// One set-up sample: a server on a fresh store, started and stopped.
pub fn setup_sample(work: &Path) -> Result<f64, String> {
    let store = work.join("setup-store");
    let (server, up) = start(&store, &work.join("s.sock"))?;
    stop(server)?;
    std::fs::remove_dir_all(&store).ok();
    Ok(up)
}

/// What one watched pass saw.
struct Pass {
    submitted: Stamp,
    /// When each `cell` event arrived.
    cell_done: Vec<Stamp>,
    cell_failures: Vec<String>,
    /// When the `done` line arrived.
    done_at: Stamp,
    done: String,
    cached: u64,
}

/// Submits `cells` and watches the job until its `done` line.
fn pass(
    t: &mut Tracer,
    sock: &Path,
    cells: &[CellSpec],
    submit: &'static str,
) -> Result<Pass, String> {
    let t0 = Stamp::now();
    let reply = t.span(submit, |_| request_line(sock, &submit_line(cells)))?;
    let v = parse(&reply)?;
    let job = v
        .get("job")
        .and_then(|j| j.as_str())
        .ok_or_else(|| format!("submit refused: {reply}"))?
        .to_string();
    let cached = v.get("cached").and_then(|c| c.as_u64()).unwrap_or(0);
    let mut p = Pass {
        submitted: t0,
        cell_done: Vec::new(),
        cell_failures: Vec::new(),
        done_at: t0,
        done: String::new(),
        cached,
    };
    t.span("serve.watch", |_| {
        watch(sock, &job, |line| {
            if line.starts_with("{\"event\":\"cell\"") {
                p.cell_done.push(Stamp::now());
                if !line.contains("\"status\":\"done\"") {
                    p.cell_failures.push(line.to_string());
                }
            } else if line.starts_with("{\"event\":\"done\"") {
                p.done_at = Stamp::now();
                p.done = line.to_string();
            }
        })
    })?;
    if p.done.is_empty() {
        return Err("watch ended without a done line".into());
    }
    Ok(p)
}

/// The `"stats":{...}` bodies of a `done` line, in cell order.
fn stats_bodies(done: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = done;
    while let Some(i) = rest.find("\"stats\":{") {
        let body = &rest[i + "\"stats\":".len()..];
        let mut depth = 0usize;
        let mut end = body.len();
        for (j, c) in body.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(&body[..end]);
        rest = &body[end..];
    }
    out
}

pub fn serve_paper_sweep(seed: u64, t: &mut Tracer, work: &Path) -> Result<Rep, String> {
    let mut rep = Rep {
        engine_wall_s: Some(0.0),
        ..Rep::default()
    };
    let cells = cells(seed)?;
    let store = work.join("store");
    let sock = work.join("s.sock");

    let (server, up) = t.span("serve.start", |_| start(&store, &sock))?;
    rep.setup_s.push(up);
    let cold = pass(t, &sock, &cells, "serve.submit")?;
    stop(server)?;
    // Not a set-up sample: a restart replays the job manifest, so it is
    // other work than a start on a fresh store.
    let (server, _) = t.span("serve.restart", |_| start(&store, &sock))?;
    let warm = pass(t, &sock, &cells, "serve.resubmit")?;
    stop(server)?;
    std::fs::remove_dir_all(&store).ok();

    let n = cells.len();
    let first = cold.cell_done.first().unwrap_or(&cold.done_at);
    let last = cold.cell_done.last().unwrap_or(&cold.done_at);
    rep.first_result = cold.submitted.to(first);
    rep.run = cold.submitted.to(last);
    // Cells run one at a time, so a cell's service time is the gap since
    // the previous one finished (or since the submit, for the first).
    let mut prev = cold.submitted;
    let mut gaps = Vec::new();
    for &at in &cold.cell_done {
        gaps.push(prev.to(&at).wall_s);
        t.record("op.cell", prev.wall, at.wall);
        prev = at;
    }
    rep.check(
        "cold pass",
        if cold.cell_done.len() == n && cold.cell_failures.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} of {n} cells reported done; failures: {:?}",
                cold.cell_done.len(),
                cold.cell_failures
            ))
        },
    );
    let cold_stats = stats_bodies(&cold.done);
    let warm_stats = stats_bodies(&warm.done);
    rep.check(
        "warm pass",
        if warm.cached as usize == n
            && warm_stats.len() == n
            && cold_stats.len() == n
            && cold_stats
                .iter()
                .zip(&warm_stats)
                .all(|(a, b)| crate::check::strip_engine(a) == crate::check::strip_engine(b))
        {
            Ok(())
        } else {
            Err(format!(
                "{} of {n} cells cached; warm stats must equal the cold pass's",
                warm.cached
            ))
        },
    );
    for (i, s) in cold_stats.iter().enumerate() {
        let (name, _, _) = MODELS[i / SENDERS.len()];
        let label = format!("{name}_{}senders", SENDERS[i % SENDERS.len()]);
        rep.finished(&label, s.to_string());
    }
    rep.add("serve.cells", n as f64);
    rep.add("serve.cache_hits", warm.cached as f64);
    rep.extra = vec![
        ("hit_wall_s", "s", warm.submitted.to(&warm.done_at).wall_s),
        ("cell_service_p50_s", "s", crate::median(gaps)),
    ];
    Ok(rep)
}
