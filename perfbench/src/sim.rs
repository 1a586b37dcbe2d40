//! The three in-process workloads: the paper's checked-in specs, the
//! sharded sensor grid, and the observed checkpoint/resume run.

use crate::span::Tracer;
use crate::{Rep, Stamp};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_simnet::{parse_spec, LiveWorld, RunOptions, RunOutput, Scenario, World};
use bcp_snapshot::RunMeta;
use std::path::Path;
use std::time::Instant;

/// Every checked-in spec that is not a scale or serve showcase, run at
/// its full horizon on one shard. `single_hop` goes first, so the first
/// result is the paper's main run.
const PAPER_SPECS: [(&str, &str); 9] = [
    (
        "single_hop",
        include_str!("../../examples/specs/single_hop.scn"),
    ),
    (
        "multi_hop",
        include_str!("../../examples/specs/multi_hop.scn"),
    ),
    (
        "broadcast_demo",
        include_str!("../../examples/specs/broadcast_demo.scn"),
    ),
    (
        "broadcast_grid",
        include_str!("../../examples/specs/broadcast_grid.scn"),
    ),
    (
        "gossip_pairs",
        include_str!("../../examples/specs/gossip_pairs.scn"),
    ),
    (
        "lifetime",
        include_str!("../../examples/specs/lifetime.scn"),
    ),
    (
        "lossy_audio",
        include_str!("../../examples/specs/lossy_audio.scn"),
    ),
    (
        "lpl_monitoring",
        include_str!("../../examples/specs/lpl_monitoring.scn"),
    ),
    (
        "shadowed_grid",
        include_str!("../../examples/specs/shadowed_grid.scn"),
    ),
];

/// The 576-node sensor convergecast of `serve_long.scn` (4 shards), cut
/// to 25 s so that a 30 s run holds about 25 repetitions.
const SERVE_LONG: &str = include_str!("../../examples/specs/serve_long.scn");
const GRID_HORIZON_S: u64 = 25;

/// `single_hop` cut to 1000 s (a checkpoint every 100 s) so that a 30 s
/// run holds about 25 repetitions.
const OBSERVED_HORIZON_S: u64 = 1000;
const CHECKPOINT_EVERY_S: u64 = 100;
const SERIES_EVERY_S: u64 = 1;

/// Parses a spec and moves its seed by the workload seed: seed 1 runs
/// the file exactly as checked in.
fn parse(t: &mut Tracer, text: &str, seed: u64) -> Result<Scenario, String> {
    let mut scen = t
        .span("spec.parse", |_| parse_spec(text))
        .map_err(|e| format!("spec does not parse: {e}"))?;
    scen.seed = scen.seed.wrapping_add(seed).wrapping_sub(1);
    Ok(scen)
}

/// Runs a built world to its horizon, then folds it into the summary.
fn run_out(t: &mut Tracer, mut lw: LiveWorld) -> RunOutput {
    let end = lw.end();
    t.span("engine.run_to", |_| lw.run_to(end));
    t.span("world.finish", |_| lw.finish())
}

/// One set-up sample: the workload's parses and builds, then dropped.
pub fn setup_sample(name: &str, seed: u64) -> Result<f64, String> {
    let t = &mut Tracer::new(false);
    let t0 = Instant::now();
    match name {
        "paper_specs" => {
            for (_, text) in PAPER_SPECS {
                let scen = parse(t, text, seed)?;
                drop(World::build(&scen, &RunOptions::default()));
            }
        }
        "sharded_sensor_grid" => drop(World::build(&grid(t, seed)?, &RunOptions::default())),
        _ => drop(World::build(&observed(t, seed)?, &observed_opts())),
    }
    Ok(t0.elapsed().as_secs_f64())
}

pub fn paper_specs(seed: u64, t: &mut Tracer, _work: &Path) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut setup = 0.0;
    let mut outs = Vec::new();
    for (i, (label, text)) in PAPER_SPECS.iter().enumerate() {
        let (out, (s, r)) = t.op("op.spec", |t| -> Result<_, String> {
            let t0 = Instant::now();
            let scen = parse(t, text, seed)?;
            let lw = t.span("world.build", |_| {
                World::build(&scen, &RunOptions::default())
            });
            let built = t0.elapsed().as_secs_f64();
            let t1 = Stamp::now();
            let out = run_out(t, lw);
            Ok((out, (built, t1.elapsed())))
        })?;
        setup += s;
        rep.run += r;
        if i == 0 {
            rep.first_result = r;
        }
        outs.push((*label, out.stats));
    }
    rep.setup_s.push(setup);
    for (label, stats) in outs {
        rep.finished(label, stats.to_json());
    }
    Ok(rep)
}

fn grid(t: &mut Tracer, seed: u64) -> Result<Scenario, String> {
    let mut scen = parse(t, SERVE_LONG, seed)?;
    scen.duration = SimDuration::from_secs(GRID_HORIZON_S);
    Ok(scen)
}

pub fn sharded_sensor_grid(seed: u64, t: &mut Tracer, _work: &Path) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let out = t.op("op.spec", |t| -> Result<_, String> {
        let t0 = Instant::now();
        let scen = grid(t, seed)?;
        let lw = t.span("world.build", |_| {
            World::build(&scen, &RunOptions::default())
        });
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        let t1 = Stamp::now();
        let out = run_out(t, lw);
        rep.run = t1.elapsed();
        Ok(out)
    })?;
    rep.first_result = rep.run;
    rep.finished(
        &format!("serve_long_{GRID_HORIZON_S}s"),
        out.stats.to_json(),
    );
    Ok(rep)
}

fn observed(t: &mut Tracer, seed: u64) -> Result<Scenario, String> {
    let mut scen = parse(t, PAPER_SPECS[0].1, seed)?;
    scen.duration = SimDuration::from_secs(OBSERVED_HORIZON_S);
    Ok(scen)
}

/// What `repro run --trace --series` records: every trace category and
/// a series sample every second.
fn observed_opts() -> RunOptions {
    RunOptions {
        trace: true,
        series_every: Some(SimDuration::from_secs(SERIES_EVERY_S)),
        scalar_lookahead: false,
    }
}

/// `single_hop` at 1000 s as `repro run --trace --series
/// --checkpoint-every 100` runs it: a checkpoint file per grid pause,
/// then the trace and series serialised to NDJSON. Then `repro resume`
/// of the midpoint checkpoint, whose stats must equal the uninterrupted
/// run's.
pub fn observed_checkpoint_resume(seed: u64, t: &mut Tracer, work: &Path) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let opts = observed_opts();
    let meta = RunMeta {
        series_every: opts.series_every,
        trace: true,
        trace_filter: Vec::new(),
    };
    let t0 = Instant::now();
    let scen = observed(t, seed)?;
    let mut lw = t.span("world.build", |_| World::build(&scen, &opts));
    rep.setup_s.push(t0.elapsed().as_secs_f64());

    let every = SimDuration::from_secs(CHECKPOINT_EVERY_S);
    let midpoint = SimTime::ZERO + SimDuration::from_secs(OBSERVED_HORIZON_S / 2);
    let mut mid_file = None;
    let mut files = Vec::new();
    let mut ckpt_bytes = 0u64;
    let t1 = Stamp::now();
    while lw.time() + every < lw.end() {
        let at = lw.time() + every;
        let file = work.join(format!("ckpt-{:06}.ckpt", at.as_secs_f64() as u64));
        let len = t.op("op.checkpoint", |t| -> Result<u64, String> {
            t.span("engine.run_to", |_| lw.run_to(at));
            let state = t.span("snapshot.capture", |_| lw.snapshot());
            t.span("snapshot.save", |_| {
                bcp_snapshot::save_with_meta(&file, &state, &meta)
            })
            .map_err(|e| format!("cannot save {}: {e}", file.display()))?;
            // The encode half of the save, timed on its own.
            t.probe("snapshot.encode", |_| {
                bcp_snapshot::to_bytes_with_meta(&state, &meta)
            });
            std::fs::metadata(&file)
                .map(|m| m.len())
                .map_err(|e| format!("cannot stat {}: {e}", file.display()))
        })?;
        ckpt_bytes += len;
        rep.add("snapshot.count", 1.0);
        rep.counts.insert("snapshot.last_bytes", len as f64);
        if at == midpoint {
            mid_file = Some(file.clone());
        }
        files.push(file);
    }
    let out = t.op("op.spec", |t| run_out(t, lw));
    rep.first_result = t1.elapsed();
    let trace_bytes = t.span("trace.ndjson", |_| {
        ndjson(out.trace.iter().map(|r| r.to_ndjson()))
    });
    let series_bytes = t.span("series.ndjson", |_| {
        ndjson(out.series.iter().map(|s| s.to_ndjson()))
    });
    rep.run = t1.elapsed();
    rep.add("trace.records", out.trace.len() as f64);
    rep.add("trace.bytes", trace_bytes as f64);
    rep.add("series.samples", out.series.len() as f64);
    rep.add("series.bytes", series_bytes as f64);
    rep.check("series", telescopes(&out));
    let stats = out.stats.to_json();
    drop(out);

    let mid_file: std::path::PathBuf = mid_file.ok_or("no checkpoint at the midpoint")?;
    let t2 = Instant::now();
    let resumed = t.op("op.resume", |t| -> Result<RunOutput, String> {
        let (state, meta) = t
            .span("snapshot.load", |_| bcp_snapshot::load_with_meta(&mid_file))
            .map_err(|e| format!("cannot load {}: {e}", mid_file.display()))?;
        // `repro resume` inherits the recorded stream settings.
        let opts = RunOptions {
            trace: meta.trace,
            series_every: meta.series_every,
            scalar_lookahead: false,
        };
        let mut lw = t.span("snapshot.restore", |_| LiveWorld::restore(&state, &opts));
        // One span: the resumed half's events are not in `engine.events`,
        // so its engine time stays out of `engine.run_s`.
        Ok(t.span("resume.run", |_| {
            let end = lw.end();
            lw.run_to(end);
            lw.finish()
        }))
    })?;
    let resume_s = t2.elapsed().as_secs_f64();
    // The decode half of the load, timed on its own.
    if t.enabled() {
        let bytes = std::fs::read(&mid_file)
            .map_err(|e| format!("cannot read {}: {e}", mid_file.display()))?;
        t.probe("snapshot.decode", |_| {
            bcp_snapshot::from_bytes_with_meta(&bytes)
        });
    }
    let resumed = resumed.stats.to_json();
    rep.check(
        "resume",
        if crate::check::strip_engine(&resumed) == crate::check::strip_engine(&stats) {
            Ok(())
        } else {
            Err("resumed stats differ from the uninterrupted run".into())
        },
    );
    for file in files {
        std::fs::remove_file(file).ok();
    }
    rep.finished(&format!("single_hop_{OBSERVED_HORIZON_S}s"), stats);
    rep.extra = vec![
        ("ckpt_bytes", "B", ckpt_bytes as f64),
        ("resume_s", "s", resume_s),
    ];
    Ok(rep)
}

/// Serialises NDJSON lines into a 64 KiB buffer that is emptied when
/// full, as a streaming writer would; returns the bytes produced. The
/// sink holds no output, so peak RSS measures the program, not a
/// 56 MB string of the benchmark's.
fn ndjson(lines: impl Iterator<Item = String>) -> usize {
    const CHUNK: usize = 64 * 1024;
    let mut buf = String::with_capacity(2 * CHUNK);
    let mut total = 0;
    for line in lines {
        buf.push_str(&line);
        buf.push('\n');
        if buf.len() >= CHUNK {
            total += std::hint::black_box(&buf).len();
            buf.clear();
        }
    }
    total + std::hint::black_box(&buf).len()
}

/// The series deltas sum to the end-of-run totals: packets and bits
/// exactly, energy to rounding.
fn telescopes(out: &RunOutput) -> Result<(), String> {
    let m = &out.stats.metrics;
    let sum = |f: fn(&bcp_simnet::SeriesSample) -> u64| out.series.iter().map(f).sum::<u64>();
    let pairs = [
        (
            "generated packets",
            sum(|s| s.generated_packets),
            m.generated_packets,
        ),
        (
            "generated bits",
            sum(|s| s.generated_bits),
            m.generated_bits,
        ),
        (
            "delivered packets",
            sum(|s| s.delivered_packets),
            m.delivered_packets,
        ),
        (
            "delivered bits",
            sum(|s| s.delivered_bits),
            m.delivered_bits,
        ),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!(
                "series {what} sum to {got}, the run counted {want}"
            ));
        }
    }
    let energy: f64 = out.series.iter().map(|s| s.energy_j).sum();
    let want = out.stats.energy_j;
    if (energy - want).abs() > 1e-9 * want.abs().max(1.0) {
        return Err(format!(
            "series energy sums to {energy} J, the run counted {want} J"
        ));
    }
    Ok(())
}
