//! The repository benchmark: four workloads driven through the library's
//! public entry points, single-threaded, with output checks and an
//! optional traced run for per-layer numbers. See `README.md` here.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-digests --seed <n>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer ones when
//! `--trace 1`. The lines before it carry the host block and the report.

mod check;
mod probe;
mod serve;
mod sim;
mod span;

use span::{CountingAlloc, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every timed simulation runs on one thread: on a small shared host the
/// shard pool's numbers measure the scheduler, not the program.
const THREADS: &str = "1";

/// Extra set-ups before each repetition: set-up takes milliseconds, so
/// its median needs many samples, spread over the whole run like the
/// repetitions are, to hold still.
const EXTRA_SETUPS: usize = 8;

/// Fewest repetitions a timed run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Probe calls in one host-speed reading; the reading is their median.
/// Each call takes about 10 ms, and a reading is taken before every
/// repetition and once after the last.
const PROBES_PER_READING: usize = 4;

/// The probe's CPU time on the reference host: the run and first-result
/// times are reported in CPU seconds on a host where one probe call takes
/// this long. On the 2-vCPU VM the baseline was taken on, the probe's
/// median was 9.8 ms, its quartiles 7.9 and 10.4 ms.
const PROBE_REF_S: f64 = 0.010;

/// A reading of both clocks a repetition is timed on.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_s: cpu_s(),
        }
    }

    /// What the work from `self` to `later` took.
    pub fn to(&self, later: &Stamp) -> Took {
        Took {
            wall_s: later.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: later.cpu_s - self.cpu_s,
        }
    }

    pub fn elapsed(&self) -> Took {
        self.to(&Stamp::now())
    }
}

/// Host seconds a piece of work took, on the wall clock and as CPU time
/// of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Took {
    fn add_assign(&mut self, other: Took) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// CPU seconds this process has used, every thread, to the nanosecond
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor hands to another
/// guest is charged as steal, not to the process, and so is time spent
/// waiting for a disk.
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// What one repetition of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up samples in wall seconds (spec parse plus `World::build`;
    /// server start on a fresh store until the socket accepts).
    pub setup_s: Vec<f64>,
    /// The main work after set-up.
    pub run: Took,
    /// From the start of the main work to its first finished result.
    pub first_result: Took,
    /// Every finished result as `(label, stats JSON)`, for the
    /// determinism and digest checks.
    pub results: Vec<(String, String)>,
    /// Workload-specific figures: `(name, unit, value)`.
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Deterministic per-layer counts, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Engine seconds reported by runs the benchmark cannot wrap in
    /// spans (the serve cells).
    pub engine_wall_s: Option<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Rep {
    /// Counts one checked operation, recording `result`'s error if any.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Checks a finished run's stats (conservation), folds its counts,
    /// and keeps it for the determinism and digest checks.
    pub fn finished(&mut self, label: &str, stats_json: String) {
        match check::stats_counts(&stats_json) {
            Ok(c) => {
                self.check(label, Ok(()));
                for (k, v) in c.counts {
                    *self.counts.entry(k).or_default() += v;
                }
                let q = self.counts.entry("engine.max_queue").or_default();
                *q = q.max(c.max_queue);
                if let Some(w) = &mut self.engine_wall_s {
                    *w += c.engine_wall_s;
                }
            }
            Err(e) => self.check(label, Err(e)),
        }
        self.results.push((label.to_string(), stats_json));
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|e| e.0 == name).map(|e| e.2)
    }
}

/// One workload: a repetition takes the workload seed, the tracer and a
/// private scratch directory inside the checkout.
type Workload = fn(u64, &mut Tracer, &Path) -> Result<Rep, String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("paper_specs", sim::paper_specs),
    ("sharded_sensor_grid", sim::sharded_sensor_grid),
    (
        "observed_checkpoint_resume",
        sim::observed_checkpoint_resume,
    ),
    ("serve_paper_sweep", serve::serve_paper_sweep),
];

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_ref_s", "s"),
    ("first_result_ref_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record-digests" => args.record_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any thread exists, so every pool in the process sees it.
    std::env::set_var(bcp_sim::threads::THREADS_ENV, THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("{:010}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let code = if args.record_digests {
        record_digests(args.seed, &work)
    } else {
        match WORKLOADS.iter().find(|w| w.0 == args.workload) {
            Some(&(name, f)) => run(name, f, &args, &work),
            None => Err(format!(
                "unknown workload `{}` (one of {})",
                args.workload,
                WORKLOADS.map(|w| w.0).join(", ")
            )),
        }
    };
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(".bench_work").ok();
    match code {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints `<workload> <seed> <label> <digest>` for every result of the
/// three library workloads (the first three) at `seed` — the lines
/// `digests.txt` holds.
fn record_digests(seed: u64, work: &Path) -> Result<(), String> {
    for &(name, f) in &WORKLOADS[..3] {
        let rep = f(seed, &mut Tracer::new(false), work)?;
        for (label, json) in &rep.results {
            println!("{name} {seed} {label} {}", check::digest(json));
        }
    }
    Ok(())
}

/// The run's verdict over every repetition.
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    first: Option<Vec<(String, String)>>,
}

impl Checks {
    /// Takes a repetition's own checks, then holds its results to the
    /// same seed's others: every repetition must reproduce the first
    /// byte for byte (modulo `.engine`), and the first must match the
    /// recorded digest where this seed has one.
    fn settle(&mut self, workload: &str, seed: u64, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failures.extend(rep.failures.iter().cloned());
        match &self.first {
            None => {
                for (label, json) in &rep.results {
                    if let Some(want) = check::recorded(workload, seed, label) {
                        self.attempted += 1;
                        if check::digest(json) != want {
                            self.failures
                                .push(format!("{label}: stats differ from the recorded digest"));
                        }
                    }
                }
                self.first = Some(rep.results.clone());
            }
            Some(prev) => {
                self.attempted += 1;
                let same = prev.len() == rep.results.len()
                    && prev.iter().zip(&rep.results).all(|(a, b)| {
                        a.0 == b.0 && check::strip_engine(&a.1) == check::strip_engine(&b.1)
                    });
                if !same {
                    self.failures
                        .push("a repetition's stats differ from the first".into());
                }
            }
        }
    }
}

fn run(name: &str, f: Workload, args: &Args, work: &Path) -> Result<(), String> {
    println!("{}", host_block(name, args));
    let mut checks = Checks {
        attempted: 0,
        failures: Vec::new(),
        first: None,
    };
    let metrics = if args.trace {
        let t0 = Instant::now();
        let plain = f(args.seed, &mut Tracer::new(false), work)?;
        let plain_wall = t0.elapsed().as_secs_f64();
        checks.settle(name, args.seed, &plain);
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let traced = f(args.seed, &mut tracer, work)?;
        let traced_wall = t0.elapsed().as_secs_f64();
        span::stop_counting();
        checks.settle(name, args.seed, &traced);
        write_spans(name, args.seed, &tracer);
        per_layer(
            &traced,
            &tracer,
            traced_wall - tracer.probe_s() - plain_wall,
        )
    } else {
        let mut tracer = Tracer::new(false);
        let mut setups = Vec::new();
        let t0 = Instant::now();
        let mut reps = Vec::new();
        let mut readings = Vec::new();
        while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
            for _ in 0..EXTRA_SETUPS {
                setups.push(setup_only(name, args.seed, work)?);
            }
            readings.push(host_reading());
            let rep = f(args.seed, &mut tracer, work)?;
            checks.settle(name, args.seed, &rep);
            setups.extend(&rep.setup_s);
            reps.push(rep);
        }
        readings.push(host_reading());
        // A repetition's host speed: the readings on either side of it.
        let probe_s: Vec<f64> = readings.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        print_report(name, &reps, &setups, &probe_s);
        end_to_end(&reps, &setups, &probe_s)
    };
    for e in &checks.failures {
        eprintln!("perfbench: FAILED {e}");
    }
    let body = metrics
        .iter()
        .map(|(k, unit, v)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failures.len()
    );
    Ok(())
}

/// One set-up sample outside any repetition.
fn setup_only(name: &str, seed: u64, work: &Path) -> Result<f64, String> {
    match name {
        "serve_paper_sweep" => serve::setup_sample(work),
        _ => sim::setup_sample(name, seed),
    }
}

/// The `q`-quantile of `v`, interpolating linearly between ranks.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The median of one time over a run's repetitions.
fn median_rep(reps: &[Rep], f: fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// The median over a run's repetitions of one CPU time in reference
/// seconds: each repetition's time divided by the host-speed reading
/// around it (`probe_s`, one per repetition) and multiplied by
/// [`PROBE_REF_S`]. The shared host runs everything up to a third faster
/// or slower in phases of 5–15 s, and up to twice as fast or slow for
/// minutes at a time; the probe, timed just before and after the
/// repetition, moves with it, and no change to the program moves the
/// probe.
fn median_ref(reps: &[Rep], probe_s: &[f64], f: fn(&Rep) -> f64) -> f64 {
    median(
        reps.iter()
            .zip(probe_s)
            .map(|(r, p)| f(r) / p * PROBE_REF_S)
            .collect(),
    )
}

/// The end-to-end metrics. The run and first-result times are CPU time
/// scaled to reference seconds ([`median_ref`]). CPU time, not wall
/// time: on a shared VM the hypervisor takes vCPUs away for other guests
/// (steal, up to a tenth of a run's vCPU time), which stretches wall
/// times, most of all the serve workload's, whose threads hand work to
/// each other.
fn end_to_end(
    reps: &[Rep],
    setups: &[f64],
    probe_s: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    let values = [
        // Set-up has tens of samples per run, and rare spikes in its tail
        // (a server start that met a slow file-system call took 5x the
        // median): the median holds still. Wall time: the serve start is
        // a hand-off between two threads, whose waits CPU time leaves out.
        median(setups.to_vec()),
        median_ref(reps, probe_s, |r| r.run.cpu_s),
        median_ref(reps, probe_s, |r| r.first_result.cpu_s),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(k, unit), v)| (k, unit, v))
        .collect()
}

/// The human-readable report line: the end-to-end metrics, the same
/// times as measured (CPU and wall clock, not scaled), the probe's
/// reading, each workload's own figures (checkpoint bytes, resume, cache
/// hit), all as medians over the repetitions, and every repetition's
/// times.
fn print_report(name: &str, reps: &[Rep], setups: &[f64], probe_s: &[f64]) {
    let mut rows: Vec<(&str, &str, f64)> = end_to_end(reps, setups, probe_s);
    rows.push(("run_cpu_s", "s", median_rep(reps, |r| r.run.cpu_s)));
    rows.push((
        "first_result_cpu_s",
        "s",
        median_rep(reps, |r| r.first_result.cpu_s),
    ));
    rows.push(("run_wall_s", "s", median_rep(reps, |r| r.run.wall_s)));
    rows.push((
        "first_result_wall_s",
        "s",
        median_rep(reps, |r| r.first_result.wall_s),
    ));
    rows.push(("probe_s", "s", median(probe_s.to_vec())));
    if let Some(r) = reps.first() {
        for &(k, unit, _) in &r.extra {
            rows.push((
                k,
                unit,
                median(reps.iter().filter_map(|r| r.extra(k)).collect()),
            ));
        }
    }
    let body = rows
        .iter()
        .map(|(k, unit, v)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect::<Vec<_>>()
        .join(",");
    let list = |f: fn(&Rep) -> f64| reps.iter().map(|r| num(f(r))).collect::<Vec<_>>().join(",");
    println!(
        "{{\"report\":{{\"workload\":\"{name}\",\"reps\":{},\"setups\":{},\"metrics\":{{{body}}},\
         \"run_cpu_s_per_rep\":[{}],\"run_wall_s_per_rep\":[{}],\
         \"first_result_cpu_s_per_rep\":[{}],\"first_result_wall_s_per_rep\":[{}],\
         \"probe_s_per_rep\":[{}]}}}}",
        reps.len(),
        setups.len(),
        list(|r| r.run.cpu_s),
        list(|r| r.run.wall_s),
        list(|r| r.first_result.cpu_s),
        list(|r| r.first_result.wall_s),
        probe_s
            .iter()
            .map(|v| num(*v))
            .collect::<Vec<_>>()
            .join(","),
    );
}

/// One host-speed reading: the median CPU time of a few probe calls.
fn host_reading() -> f64 {
    median(
        (0..PROBES_PER_READING)
            .map(|_| {
                let s = Stamp::now();
                probe::run();
                s.elapsed().cpu_s
            })
            .collect(),
    )
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(rep: &Rep, t: &Tracer, overhead_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let layers = t.layers();
    let self_s = |n: &str| layers.get(n).map_or(0.0, |l| l.self_s);
    let allocs = |n: &str| layers.get(n).map_or(0, |l| l.allocs) as f64;
    let bytes = |n: &str| layers.get(n).map_or(0, |l| l.alloc_bytes) as f64;
    let count = |n: &str| rep.counts.get(n).copied().unwrap_or(0.0);
    let extra = |n: &str| rep.extra(n).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let events = count("engine.events");
    let engine_s = rep.engine_wall_s.unwrap_or_else(|| self_s("engine.run_to"));
    // The library calls; `encode` and `decode` are probes repeating work
    // done inside `save` and `load`.
    let snapshot = [
        "snapshot.capture",
        "snapshot.save",
        "snapshot.load",
        "snapshot.restore",
    ];
    vec![
        ("spec.parse_s", "s", self_s("spec.parse")),
        ("world.build_s", "s", self_s("world.build")),
        ("world.build_allocs", "count", allocs("world.build")),
        ("engine.run_s", "s", engine_s),
        ("engine.events", "count", events),
        ("engine.events_per_s", "1/s", ratio(events, engine_s)),
        ("engine.windows", "count", count("engine.windows")),
        ("engine.barriers", "count", count("engine.barriers")),
        (
            "engine.events_per_window",
            "count",
            ratio(events, count("engine.windows")),
        ),
        ("engine.max_queue", "count", count("engine.max_queue")),
        ("engine.serial_steps", "count", count("engine.serial_steps")),
        (
            "engine.allocs_per_event",
            "count",
            ratio(allocs("engine.run_to"), events),
        ),
        (
            "engine.alloc_bytes_per_event",
            "B",
            ratio(bytes("engine.run_to"), events),
        ),
        ("channel.collisions", "count", count("channel.collisions")),
        ("mac.drops", "count", count("mac.drops")),
        ("bcp.handshakes", "count", count("bcp.handshakes")),
        ("bcp.buffer_drops", "count", count("bcp.buffer_drops")),
        ("radio.wakeups", "count", count("radio.wakeups")),
        ("pkt.generated", "count", count("pkt.generated")),
        ("pkt.delivered", "count", count("pkt.delivered")),
        ("pkt.residual", "count", count("pkt.residual")),
        ("world.finish_s", "s", self_s("world.finish")),
        ("snapshot.capture_s", "s", self_s("snapshot.capture")),
        ("snapshot.save_s", "s", self_s("snapshot.save")),
        ("snapshot.encode_s", "s", self_s("snapshot.encode")),
        ("snapshot.load_s", "s", self_s("snapshot.load")),
        ("snapshot.decode_s", "s", self_s("snapshot.decode")),
        ("snapshot.restore_s", "s", self_s("snapshot.restore")),
        ("snapshot.count", "count", count("snapshot.count")),
        ("snapshot.last_bytes", "B", count("snapshot.last_bytes")),
        (
            "snapshot.allocs",
            "count",
            snapshot.iter().map(|n| allocs(n)).sum(),
        ),
        ("ckpt_bytes", "B", extra("ckpt_bytes")),
        ("resume_s", "s", extra("resume_s")),
        ("resume.run_s", "s", self_s("resume.run")),
        ("trace.records", "count", count("trace.records")),
        ("trace.bytes", "B", count("trace.bytes")),
        ("trace.ndjson_s", "s", self_s("trace.ndjson")),
        ("series.samples", "count", count("series.samples")),
        ("series.bytes", "B", count("series.bytes")),
        ("series.ndjson_s", "s", self_s("series.ndjson")),
        ("serve.start_s", "s", self_s("serve.start")),
        ("serve.restart_s", "s", self_s("serve.restart")),
        ("serve.submit_rtt_s", "s", self_s("serve.submit")),
        ("serve.cells", "count", count("serve.cells")),
        ("serve.cache_hits", "count", count("serve.cache_hits")),
        ("serve.cell_service_p50_s", "s", extra("cell_service_p50_s")),
        ("hit_wall_s", "s", extra("hit_wall_s")),
        ("span.overhead_s", "s", overhead_s),
    ]
}

/// Writes the traced repetition's spans out, once, after the run.
fn write_spans(name: &str, seed: u64, t: &Tracer) {
    let dir = Path::new(".bench_out");
    let file = dir.join(format!("spans-{name}-seed{seed}.ndjson"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, t.to_ndjson()))
    {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host block: what a result depends on besides the code.
fn host_block(name: &str, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"host\":{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"bcp_threads\":\"{THREADS}\",\"serve_budget\":{},\
         \"rustc\":{},\"git_rev\":{}}}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::BUDGET,
        bcp_sim::json::escape(&env("PERFBENCH_RUSTC")),
        bcp_sim::json::escape(&env("PERFBENCH_GIT_REV")),
    )
}

/// A metric value with every digit it has (no rounding).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
