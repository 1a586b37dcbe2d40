//! `repro` — regenerate the paper's tables and figures, and run scenario
//! files.
//!
//! ```text
//! repro list
//! repro all [--quick|--paper-lite|--paper|--test] [--json] [--out <dir>]
//! repro <id>... [--quick|--paper-lite|--paper|--test] [--json] [--out <dir>]
//! repro run <file.scn> [--test] [--out <dir>]
//!           [--trace <file>] [--trace-filter <cats>]
//!           [--series <file>] [--series-every <secs>]
//!           [--checkpoint-every <secs> --ckpt <dir>]
//! repro resume <file.ckpt> [--shards <n>] [--out <dir>]
//!              [--trace <file>] [--series <file>] [--series-every <secs>]
//! repro explore <file.scn|file.ckpt> [--warm <secs>] [--until <secs>]
//!               [--max-interleavings <n>] [--max-steps <n>]
//! repro serve [--store <dir>] [--sock <path>] [--grid <secs>] [--budget <n>]
//! repro submit <file.scn|file.sweep> [--sock <path>]
//!              [--test|--quick|--paper-lite|--paper]
//! repro status [--sock <path>]
//! repro watch <job> [--sock <path>]
//! repro shutdown [--sock <path>]
//! ```
//!
//! * `repro <id>` prints the gnuplot-ready text rendering; `--json` emits
//!   the structured form instead (and, with `--out`, persists `.txt`,
//!   `.json` and `.csv` artifacts per experiment).
//! * `repro run` executes any `.scn` scenario file (see the README's
//!   "Scenario files" section) and prints the run's `RunStats` as JSON;
//!   `--test` clamps the simulated duration to 60 s for smoke tests.
//!   `--trace` additionally writes the flight-recorder trace as NDJSON
//!   (one record per line; `--trace-filter` keeps only the named
//!   comma-separated categories out of `pkt,radio,power,route`), and
//!   `--series` writes one NDJSON delta sample per `--series-every`
//!   seconds of sim time (default 1). Neither switch perturbs the run:
//!   the printed `RunStats` are bit-identical either way.
//! * `--checkpoint-every` additionally pauses the run on that grid of sim
//!   instants and writes a versioned, checksummed checkpoint file per
//!   pause into `--ckpt <dir>`; the printed `RunStats` are bit-identical
//!   to an uninterrupted run. `repro resume <file.ckpt>` finishes a
//!   checkpointed run (optionally re-partitioned with `--shards`) and
//!   prints the same `RunStats` JSON the uninterrupted run would have;
//!   its `--trace`/`--series` switches *append* to the named NDJSON
//!   files, covering exactly the post-checkpoint segment, so resuming on
//!   top of the original run's files yields the uninterrupted streams.
//! * `repro explore` runs the bounded race explorer: every admissible
//!   same-timestamp event ordering from a checkpoint (or from a scenario
//!   warmed for `--warm` seconds) up to `--until`, checking the engine's
//!   liveness/energy invariants on each path. Exits nonzero on any
//!   violation. Keep the world small (≤10 nodes) — ties compound.
//! * `repro serve` runs the sweep server (see the README's "Sweep
//!   server" section): submissions land in a content-addressed result
//!   cache under `--store`, long cells checkpoint on the `--grid` so a
//!   killed server resumes them, and `repro watch <job>` streams the
//!   per-window series samples live. `repro submit` accepts a `.scn`
//!   file (one cell) or a `.sweep` grid file (one cell per job); the
//!   quality flag is recorded in each cell's cache key (`--test` clamps
//!   the horizon server-side exactly like `repro run --test`).

use bcp_experiments::{all, find, Output, Quality, RunCtx};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::TraceCat;
use bcp_simnet::{parse_spec, ExploreLimits, LiveWorld, RunOptions, RunOutput, World, WorldState};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    quality: Quality,
    json: bool,
    out_dir: Option<PathBuf>,
    /// `repro run <file>`: the scenario file.
    scn: Option<PathBuf>,
    /// Experiment ids (order-preserving, deduplicated).
    ids: Vec<String>,
    list: bool,
    /// `repro run --trace <file>`: write the flight-recorder NDJSON here.
    trace: Option<PathBuf>,
    /// `--trace-filter`: keep only these categories (empty = all).
    trace_filter: Vec<TraceCat>,
    /// `repro run --series <file>`: write per-window NDJSON samples here.
    series: Option<PathBuf>,
    /// `--series-every <secs>` (default 1 s when `--series` is given).
    series_every: Option<f64>,
    /// `repro run --checkpoint-every <secs>`: checkpoint grid interval.
    checkpoint_every: Option<f64>,
    /// `repro run --ckpt <dir>`: where checkpoint files land.
    ckpt_dir: Option<PathBuf>,
    /// `repro resume <file.ckpt>`: the checkpoint to finish.
    resume: Option<PathBuf>,
    /// `repro resume --shards <n>`: re-partition the restored world.
    shards: Option<usize>,
    /// `repro explore <file>`: the scenario or checkpoint to explore.
    explore: Option<PathBuf>,
    /// `repro explore --warm <secs>`: warm-up before snapshotting a `.scn`.
    warm: Option<f64>,
    /// `repro explore --until <secs>`: absolute sim instant to explore to.
    until: Option<f64>,
    /// `repro explore` bounds (None = the library defaults).
    max_interleavings: Option<u64>,
    /// See `max_interleavings`.
    max_steps: Option<u64>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quality: Quality::Quick,
        json: false,
        out_dir: None,
        scn: None,
        ids: Vec::new(),
        list: false,
        trace: None,
        trace_filter: Vec::new(),
        series: None,
        series_every: None,
        checkpoint_every: None,
        ckpt_dir: None,
        resume: None,
        shards: None,
        explore: None,
        warm: None,
        until: None,
        max_interleavings: None,
        max_steps: None,
    };
    let run_mode = args.first().map(String::as_str) == Some("run");
    let resume_mode = args.first().map(String::as_str) == Some("resume");
    let explore_mode = args.first().map(String::as_str) == Some("explore");
    let mut i = usize::from(run_mode || resume_mode || explore_mode);
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => cli.quality = Quality::Quick,
            "--paper" => cli.quality = Quality::Paper,
            "--paper-lite" => cli.quality = Quality::PaperLite,
            "--test" => cli.quality = Quality::Test,
            "--json" => cli.json = true,
            "--out" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--out needs a directory".to_string())?;
                cli.out_dir = Some(PathBuf::from(dir));
            }
            "--trace" if run_mode || resume_mode => {
                i += 1;
                let f = args
                    .get(i)
                    .ok_or_else(|| "--trace needs a file".to_string())?;
                cli.trace = Some(PathBuf::from(f));
            }
            "--trace-filter" if run_mode || resume_mode => {
                i += 1;
                let cats = args
                    .get(i)
                    .ok_or_else(|| "--trace-filter needs categories".to_string())?;
                for c in cats.split(',') {
                    cli.trace_filter.push(TraceCat::parse(c).ok_or_else(|| {
                        format!("unknown trace category {c} (want pkt|radio|power|route)")
                    })?);
                }
            }
            "--series" if run_mode || resume_mode => {
                i += 1;
                let f = args
                    .get(i)
                    .ok_or_else(|| "--series needs a file".to_string())?;
                cli.series = Some(PathBuf::from(f));
            }
            "--series-every" if run_mode || resume_mode => {
                i += 1;
                let secs = args
                    .get(i)
                    .ok_or_else(|| "--series-every needs seconds".to_string())?;
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| format!("bad --series-every value {secs}"))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err("--series-every must be positive".into());
                }
                cli.series_every = Some(secs);
            }
            "--checkpoint-every" if run_mode => {
                i += 1;
                let secs = args
                    .get(i)
                    .ok_or_else(|| "--checkpoint-every needs seconds".to_string())?;
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value {secs}"))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err("--checkpoint-every must be positive".into());
                }
                cli.checkpoint_every = Some(secs);
            }
            "--ckpt" if run_mode => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--ckpt needs a directory".to_string())?;
                cli.ckpt_dir = Some(PathBuf::from(dir));
            }
            "--shards" if resume_mode => {
                i += 1;
                let n = args
                    .get(i)
                    .ok_or_else(|| "--shards needs a count".to_string())?;
                let n: usize = n.parse().map_err(|_| format!("bad --shards value {n}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                cli.shards = Some(n);
            }
            "--warm" | "--until" if explore_mode => {
                i += 1;
                let secs = args.get(i).ok_or_else(|| format!("{a} needs seconds"))?;
                let parsed: f64 = secs.parse().map_err(|_| format!("bad {a} value {secs}"))?;
                if parsed < 0.0 || !parsed.is_finite() {
                    return Err(format!("{a} must be non-negative seconds"));
                }
                if a == "--warm" {
                    cli.warm = Some(parsed);
                } else {
                    cli.until = Some(parsed);
                }
            }
            "--max-interleavings" | "--max-steps" if explore_mode => {
                i += 1;
                let n = args.get(i).ok_or_else(|| format!("{a} needs a count"))?;
                let parsed: u64 = n.parse().map_err(|_| format!("bad {a} value {n}"))?;
                if parsed == 0 {
                    return Err(format!("{a} must be at least 1"));
                }
                if a == "--max-interleavings" {
                    cli.max_interleavings = Some(parsed);
                } else {
                    cli.max_steps = Some(parsed);
                }
            }
            "list" if !run_mode && !resume_mode && !explore_mode => cli.list = true,
            "all" if !run_mode && !resume_mode && !explore_mode => {
                cli.ids.extend(all().iter().map(|e| e.id.to_string()))
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other if run_mode => {
                if cli.scn.is_some() {
                    return Err("repro run takes exactly one scenario file".into());
                }
                cli.scn = Some(PathBuf::from(other));
            }
            other if resume_mode => {
                if cli.resume.is_some() {
                    return Err("repro resume takes exactly one checkpoint file".into());
                }
                cli.resume = Some(PathBuf::from(other));
            }
            other if explore_mode => {
                if cli.explore.is_some() {
                    return Err("repro explore takes exactly one input file".into());
                }
                cli.explore = Some(PathBuf::from(other));
            }
            other => cli.ids.push(other.to_string()),
        }
        i += 1;
    }
    if run_mode && cli.scn.is_none() {
        return Err("repro run needs a scenario file".into());
    }
    if resume_mode && cli.resume.is_none() {
        return Err("repro resume needs a checkpoint file".into());
    }
    if explore_mode && cli.explore.is_none() {
        return Err("repro explore needs a scenario or checkpoint file".into());
    }
    if cli.checkpoint_every.is_some() != cli.ckpt_dir.is_some() {
        return Err("--checkpoint-every and --ckpt go together".into());
    }
    if !cli.trace_filter.is_empty() && cli.trace.is_none() {
        return Err("--trace-filter needs --trace".into());
    }
    if cli.series_every.is_some() && cli.series.is_none() {
        return Err("--series-every needs --series".into());
    }
    // Order-preserving dedup across the whole list, so
    // `repro fig5 table1 fig5` runs fig5 once (and `all` plus an explicit
    // id never doubles up).
    let mut seen = HashSet::new();
    cli.ids.retain(|id| seen.insert(id.clone()));
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if matches!(
        args[0].as_str(),
        "serve" | "submit" | "status" | "watch" | "shutdown"
    ) {
        return run_serve_cli(&args);
    }
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if cli.list {
        let width = all().iter().map(|e| e.id.len()).max().unwrap_or(0);
        for e in all() {
            println!("{:width$}  {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &cli.out_dir {
        // Probe actual writability up front (a read-only volume passes
        // create_dir_all), so a long run can never complete and then
        // fail to persist.
        if let Err(e) = bcp_snapshot::cache::ensure_writable_dir(dir) {
            eprintln!("--out {} is not a writable directory: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(scn) = cli.scn.clone() {
        return run_scenario_file(&scn, &cli);
    }
    if let Some(ckpt) = cli.resume.clone() {
        return run_resume(&ckpt, &mut cli);
    }
    if let Some(input) = &cli.explore {
        return run_explore(input, &cli);
    }
    if cli.ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let ctx = RunCtx {
        quality: cli.quality,
        out_dir: cli.out_dir.clone(),
    };
    for id in &cli.ids {
        let Some(e) = find(id) else {
            eprintln!("unknown experiment {id} (try `repro list`)");
            return ExitCode::FAILURE;
        };
        eprintln!("running {} at {:?} quality...", e.id, cli.quality);
        let started = std::time::Instant::now();
        let out = (e.run)(&ctx);
        // --json always selects the structured stdout form; --out only
        // adds artifact files on top (the .txt rendering is persisted
        // there regardless).
        if cli.json {
            println!("{}", out.to_json(e.title));
        } else {
            println!("{}", out.render(e.title));
        }
        if let Some(dir) = &cli.out_dir {
            if let Err(err) = persist(dir, e.id, e.title, &out, cli.json) {
                eprintln!("cannot persist {} artifacts: {err}", e.id);
                return ExitCode::FAILURE;
            }
        }
        eprintln!("  done in {:.1?}\n", started.elapsed());
    }
    ExitCode::SUCCESS
}

/// Writes `<dir>/<id>.txt` (always) and `<dir>/<id>.json` + `<dir>/<id>.csv`
/// (with `--json`).
fn persist(dir: &Path, id: &str, title: &str, out: &Output, json: bool) -> std::io::Result<()> {
    std::fs::write(dir.join(format!("{id}.txt")), out.render(title))?;
    if json {
        std::fs::write(dir.join(format!("{id}.json")), out.to_json(title))?;
        std::fs::write(dir.join(format!("{id}.csv")), out.to_csv())?;
    }
    Ok(())
}

/// `repro run <file.scn>`: parse, validate, execute, print `RunStats` JSON.
fn run_scenario_file(path: &Path, cli: &Cli) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut scenario = match parse_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if cli.quality == Quality::Test {
        // Smoke mode: cap the horizon so CI runs any preset in seconds.
        let cap = bcp_sim::time::SimDuration::from_secs(60);
        scenario.duration = scenario.duration.min(cap);
        if let Some(c) = scenario.traffic_cutoff {
            scenario.traffic_cutoff = Some(c.min(cap));
        }
    }
    eprintln!(
        "running {} ({} nodes, {} senders, {:?})...",
        path.display(),
        scenario.topo.len(),
        scenario.senders.len(),
        scenario.duration
    );
    let started = std::time::Instant::now();
    let opts = run_options(cli);
    let stem = file_stem(path);
    let out = match (cli.checkpoint_every, &cli.ckpt_dir) {
        (Some(every), Some(dir)) => {
            // Probe writability before building the world: a read-only
            // or mis-permissioned directory must fail here, not at the
            // first grid pause with the run's work already spent.
            if let Err(e) = bcp_snapshot::cache::ensure_writable_dir(dir) {
                eprintln!("--ckpt {} is not a writable directory: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let every = SimDuration::from_secs_f64(every);
            let meta = run_meta(cli);
            let mut lw = World::build(&scenario, &opts);
            // Pause on the checkpoint grid, persist, keep going: the
            // final stats are bit-identical to the uninterrupted run
            // (capture is a pure read of the paused world).
            while lw.time() + every < lw.end() {
                let t = lw.time() + every;
                lw.run_to(t);
                let file = dir.join(format!("{stem}-{}s.ckpt", t.as_secs_f64()));
                if let Err(e) = bcp_snapshot::save_with_meta(&file, &lw.snapshot(), &meta) {
                    eprintln!("cannot write checkpoint {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("  checkpoint at {t} -> {}", file.display());
            }
            lw.finish()
        }
        _ => scenario.run_with(&opts),
    };
    if let Err(e) = emit_run_outputs(&out, cli, &stem, false) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    eprintln!("  done in {:.1?}", started.elapsed());
    ExitCode::SUCCESS
}

/// `repro resume <file.ckpt>`: load, restore (optionally re-sharded),
/// finish, print the run's `RunStats` JSON. Trace/series files are opened
/// in append mode so a resume continues the original run's streams
/// without re-emitting anything from before the checkpoint.
///
/// The checkpoint records the original run's series interval and trace
/// filter ([`bcp_snapshot::RunMeta`]); flags that contradict the recorded
/// values are rejected (a silently different interval or filter would
/// make the appended stream incoherent with the pre-checkpoint part),
/// and unset flags inherit them.
fn run_resume(path: &Path, cli: &mut Cli) -> ExitCode {
    let (state, meta) = match bcp_snapshot::load_with_meta(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = reconcile_resume_meta(cli, &meta) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let state = match cli.shards {
        Some(n) => state.with_shards(n),
        None => state,
    };
    eprintln!(
        "resuming {} at {} ({} nodes, {} shard{})...",
        path.display(),
        state.time,
        state.nodes.len(),
        state.scen.shards,
        if state.scen.shards == 1 { "" } else { "s" }
    );
    let started = std::time::Instant::now();
    let out = LiveWorld::restore(&state, &run_options(cli)).finish();
    if let Err(e) = emit_run_outputs(&out, cli, &file_stem(path), true) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    eprintln!("  done in {:.1?}", started.elapsed());
    ExitCode::SUCCESS
}

/// `repro explore <file.scn|file.ckpt>`: bounded race exploration from a
/// checkpoint, or from a scenario warmed for `--warm` seconds. Prints the
/// report as JSON; exits nonzero when any invariant was violated.
fn run_explore(path: &Path, cli: &Cli) -> ExitCode {
    let state = match load_explore_state(path, cli) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let end = match cli.until {
        Some(secs) => SimTime::from_secs_f64(secs),
        None => state.time + SimDuration::from_secs(1),
    };
    if end <= state.time {
        eprintln!(
            "--until {} is not past the start instant {}",
            end, state.time
        );
        return ExitCode::FAILURE;
    }
    let mut limits = ExploreLimits::default();
    if let Some(n) = cli.max_interleavings {
        limits.max_interleavings = n;
    }
    if let Some(n) = cli.max_steps {
        limits.max_steps = n;
    }
    eprintln!(
        "exploring {} from {} to {end} ({} nodes)...",
        path.display(),
        state.time,
        state.nodes.len()
    );
    let started = std::time::Instant::now();
    let report = bcp_simnet::explore(&state, end, limits);
    let mut json = format!(
        "{{\"interleavings\":{},\"branch_points\":{},\"max_ties\":{},\"truncated\":{},\"violations\":[",
        report.interleavings, report.branch_points, report.max_ties, report.truncated
    );
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('"');
        json.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
        json.push('"');
    }
    json.push_str("]}");
    println!("{json}");
    eprintln!("  done in {:.1?}", started.elapsed());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: {} invariant violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

/// Explore input: a checkpoint file is loaded as-is; anything else is
/// parsed as a `.scn` spec, built, and run to `--warm` (default 0).
fn load_explore_state(path: &Path, cli: &Cli) -> Result<WorldState, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if bytes.starts_with(&bcp_snapshot::MAGIC) {
        return bcp_snapshot::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()));
    }
    let text =
        String::from_utf8(bytes).map_err(|_| format!("{}: not a .scn file", path.display()))?;
    let scenario = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lw = World::build(&scenario, &RunOptions::default());
    if let Some(warm) = cli.warm {
        if warm > 0.0 {
            let t = SimTime::from_secs_f64(warm);
            if t >= lw.end() {
                return Err(format!("--warm {warm} is past the scenario horizon"));
            }
            lw.run_to(t);
        }
    }
    Ok(lw.snapshot())
}

/// Reconciles resume-time flags against the checkpoint's recorded
/// [`bcp_snapshot::RunMeta`]: explicit contradictions are errors, unset
/// flags inherit the recorded values, and a resume that silently drops a
/// recorded stream gets a warning (the combined NDJSON file would stop at
/// the checkpoint).
fn reconcile_resume_meta(cli: &mut Cli, meta: &bcp_snapshot::RunMeta) -> Result<(), String> {
    match (meta.series_every, &cli.series) {
        (Some(rec), Some(_)) => match cli.series_every {
            Some(req) if SimDuration::from_secs_f64(req) != rec => {
                return Err(format!(
                    "checkpoint recorded --series-every {} but the resume asked for {req}; \
                     the appended samples would not telescope onto the original stream \
                     (drop --series-every to inherit, or re-run from the scenario)",
                    rec.as_secs_f64()
                ));
            }
            Some(_) => {}
            None => {
                eprintln!(
                    "  inheriting --series-every {} from the checkpoint",
                    rec.as_secs_f64()
                );
                cli.series_every = Some(rec.as_secs_f64());
            }
        },
        (Some(rec), None) => eprintln!(
            "  note: the original run sampled series every {rec}; resuming without \
             --series leaves that stream truncated at the checkpoint"
        ),
        (None, _) => {}
    }
    if meta.trace {
        if cli.trace.is_some() {
            let recorded: Vec<TraceCat> = meta
                .trace_filter
                .iter()
                .filter_map(|l| TraceCat::parse(l))
                .collect();
            if cli.trace_filter.is_empty() && !recorded.is_empty() {
                eprintln!(
                    "  inheriting --trace-filter {} from the checkpoint",
                    meta.trace_filter.join(",")
                );
                cli.trace_filter = recorded;
            } else if !cli.trace_filter.is_empty() && cli.trace_filter != recorded {
                return Err(format!(
                    "checkpoint recorded --trace-filter {} but the resume asked for {}; \
                     the appended records would not match the original stream \
                     (drop --trace-filter to inherit)",
                    if meta.trace_filter.is_empty() {
                        "<all>".to_string()
                    } else {
                        meta.trace_filter.join(",")
                    },
                    cli.trace_filter
                        .iter()
                        .map(|c| c.label())
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
        } else {
            eprintln!(
                "  note: the original run traced; resuming without --trace leaves that \
                 stream truncated at the checkpoint"
            );
        }
    }
    Ok(())
}

/// The recorded run metadata a `repro run` checkpoint carries: enough for
/// `repro resume` to reject or inherit stream-shaping flags.
fn run_meta(cli: &Cli) -> bcp_snapshot::RunMeta {
    bcp_snapshot::RunMeta {
        series_every: run_options(cli).series_every,
        trace: cli.trace.is_some(),
        trace_filter: cli
            .trace_filter
            .iter()
            .map(|c| c.label().to_string())
            .collect(),
    }
}

/// The `RunOptions` both `run` and `resume` build from the CLI switches.
fn run_options(cli: &Cli) -> RunOptions {
    RunOptions {
        trace: cli.trace.is_some(),
        series_every: cli
            .series
            .as_ref()
            .map(|_| SimDuration::from_secs_f64(cli.series_every.unwrap_or(1.0))),
        ..RunOptions::default()
    }
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".into())
}

/// Writes the trace/series NDJSON streams and prints (and, with `--out`,
/// persists) the stats JSON. `append` is the resume path: the NDJSON
/// files grow instead of being truncated, so the combined file holds the
/// uninterrupted streams.
fn emit_run_outputs(out: &RunOutput, cli: &Cli, stem: &str, append: bool) -> Result<(), String> {
    if let Some(file) = &cli.trace {
        let mut ndjson = String::new();
        let mut kept = 0usize;
        for r in &out.trace {
            if cli.trace_filter.is_empty() || cli.trace_filter.contains(&r.ev.cat()) {
                ndjson.push_str(&r.to_ndjson());
                ndjson.push('\n');
                kept += 1;
            }
        }
        write_ndjson(file, &ndjson, append)
            .map_err(|e| format!("cannot write trace {}: {e}", file.display()))?;
        eprintln!(
            "  trace: {kept}/{} records {} {}",
            out.trace.len(),
            if append { "appended to" } else { "->" },
            file.display()
        );
    }
    if let Some(file) = &cli.series {
        let mut ndjson = String::new();
        for s in &out.series {
            ndjson.push_str(&s.to_ndjson());
            ndjson.push('\n');
        }
        write_ndjson(file, &ndjson, append)
            .map_err(|e| format!("cannot write series {}: {e}", file.display()))?;
        eprintln!(
            "  series: {} samples {} {}",
            out.series.len(),
            if append { "appended to" } else { "->" },
            file.display()
        );
    }
    let json = out.stats.to_json();
    println!("{json}");
    if let Some(dir) = &cli.out_dir {
        std::fs::write(dir.join(format!("{stem}.json")), &json)
            .map_err(|e| format!("cannot persist stats: {e}"))?;
    }
    Ok(())
}

fn write_ndjson(path: &Path, text: &str, append: bool) -> std::io::Result<()> {
    if append {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        f.write_all(text.as_bytes())
    } else {
        std::fs::write(path, text)
    }
}

/// `repro serve|submit|status|watch|shutdown`: the sweep-server side.
/// Parsed separately from the experiment CLI — the server subcommands
/// share none of its flags.
fn run_serve_cli(args: &[String]) -> ExitCode {
    match serve_cli(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn serve_cli(args: &[String]) -> Result<ExitCode, String> {
    let cmd = args[0].as_str();
    let mut store = PathBuf::from("serve-store");
    let mut sock: Option<PathBuf> = None;
    let mut grid = 10.0f64;
    let mut budget = 0usize;
    let mut quality = "quick";
    let mut positional: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--store" if cmd == "serve" => {
                i += 1;
                store = PathBuf::from(args.get(i).ok_or("--store needs a directory")?);
            }
            "--sock" => {
                i += 1;
                sock = Some(PathBuf::from(args.get(i).ok_or("--sock needs a path")?));
            }
            "--grid" if cmd == "serve" => {
                i += 1;
                let secs = args.get(i).ok_or("--grid needs seconds")?;
                grid = secs
                    .parse()
                    .map_err(|_| format!("bad --grid value {secs}"))?;
                if grid <= 0.0 || !grid.is_finite() {
                    return Err("--grid must be positive".into());
                }
            }
            "--budget" if cmd == "serve" => {
                i += 1;
                let n = args.get(i).ok_or("--budget needs a thread count")?;
                budget = n.parse().map_err(|_| format!("bad --budget value {n}"))?;
            }
            "--test" if cmd == "submit" => quality = "test",
            "--quick" if cmd == "submit" => quality = "quick",
            "--paper-lite" if cmd == "submit" => quality = "paper-lite",
            "--paper" if cmd == "submit" => quality = "paper",
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other} for repro {cmd}"));
            }
            other => {
                if positional.is_some() {
                    return Err(format!("repro {cmd} takes at most one argument"));
                }
                positional = Some(other.to_string());
            }
        }
        i += 1;
    }
    // The socket lives inside the store by default, so one `--store` (or
    // none) is enough to pair a server with its clients.
    let sock = sock.unwrap_or_else(|| store.join("serve.sock"));
    match cmd {
        "serve" => {
            if positional.is_some() {
                return Err("repro serve takes no positional argument".into());
            }
            let cfg = bcp_serve::ServeConfig {
                store_root: store,
                socket: sock,
                grid: SimDuration::from_secs_f64(grid),
                budget,
            };
            bcp_serve::run_server(&cfg)?;
            Ok(ExitCode::SUCCESS)
        }
        "submit" => {
            let file = positional.ok_or("repro submit needs a .scn or .sweep file")?;
            let cells = expand_submission(Path::new(&file), quality)?;
            eprintln!("submitting {} cell(s) from {file}...", cells.len());
            let reply =
                bcp_serve::client::request_line(&sock, &bcp_serve::proto::submit_line(&cells))?;
            println!("{reply}");
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            if positional.is_some() {
                return Err("repro status takes no positional argument".into());
            }
            let reply = bcp_serve::client::request_line(&sock, &bcp_serve::proto::status_line())?;
            println!("{reply}");
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            let job = positional.ok_or("repro watch needs a job id")?;
            bcp_serve::client::watch(&sock, &job, |line| println!("{line}"))?;
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            if positional.is_some() {
                return Err("repro shutdown takes no positional argument".into());
            }
            let reply = bcp_serve::client::request_line(&sock, &bcp_serve::proto::shutdown_line())?;
            println!("{reply}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown server subcommand {other}")),
    }
}

/// Expands a submission file into serve cells: a `.sweep` grid becomes
/// one cell per job (canonical `.scn` text each), anything else is parsed
/// as a single `.scn` scenario.
fn expand_submission(path: &Path, quality: &str) -> Result<Vec<bcp_serve::CellSpec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if path.extension().is_some_and(|x| x == "sweep") {
        let spec = bcp_experiments::suite::parse_sweep(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return spec
            .jobs()
            .iter()
            .map(|job| {
                let scen = spec
                    .scenario(job)
                    .map_err(|e| format!("{}: invalid grid point: {e}", path.display()))?;
                let scn = bcp_simnet::emit_spec(&scen)
                    .map_err(|e| format!("{}: cell does not re-emit: {e}", path.display()))?;
                Ok(bcp_serve::CellSpec {
                    scn,
                    quality: quality.to_string(),
                    seed: job.seed,
                })
            })
            .collect();
    }
    let scen = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let scn = bcp_simnet::emit_spec(&scen)
        .map_err(|e| format!("{}: scenario does not re-emit: {e}", path.display()))?;
    Ok(vec![bcp_serve::CellSpec {
        scn,
        quality: quality.to_string(),
        seed: scen.seed,
    }])
}

fn usage() {
    eprintln!(
        "usage: repro list\n\
         \x20      repro all [--quick|--paper-lite|--paper|--test] [--json] [--out <dir>]\n\
         \x20      repro <id>... [--quick|--paper-lite|--paper|--test] [--json] [--out <dir>]\n\
         \x20      repro run <file.scn> [--test] [--out <dir>]\n\
         \x20                [--trace <file>] [--trace-filter pkt,radio,power,route]\n\
         \x20                [--series <file>] [--series-every <secs>]\n\
         \x20                [--checkpoint-every <secs> --ckpt <dir>]\n\
         \x20      repro resume <file.ckpt> [--shards <n>] [--out <dir>]\n\
         \x20                [--trace <file>] [--series <file>] [--series-every <secs>]\n\
         \x20      repro explore <file.scn|file.ckpt> [--warm <secs>] [--until <secs>]\n\
         \x20                [--max-interleavings <n>] [--max-steps <n>]\n\
         \x20      repro serve [--store <dir>] [--sock <path>] [--grid <secs>] [--budget <n>]\n\
         \x20      repro submit <file.scn|file.sweep> [--sock <path>]\n\
         \x20                [--test|--quick|--paper-lite|--paper]\n\
         \x20      repro status [--sock <path>]\n\
         \x20      repro watch <job> [--sock <path>]\n\
         \x20      repro shutdown [--sock <path>]"
    );
}
