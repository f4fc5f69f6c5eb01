//! End-to-end and per-layer benchmark of the SW26010 DGEMM reproduction.
//!
//! One command runs one workload for a fixed time, checks every output,
//! and prints as the last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload func_sched --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run, made
//! of [`PARTS`] fresh processes that each set up and measure a share of
//! `--seconds`. `--trace 1` runs the workload twice in one process, untraced then
//! with a span around every call the benchmark makes into a layer, and
//! prints the per-layer metrics plus the gap between the two halves
//! (`trace.overhead_pct`). The spans are written to
//! `.bench_trace/<workload>-seed<seed>.json` (Chrome trace format).
//! The README next to this file lists every metric and which workload
//! moves it.

mod check;
mod func;
mod model;
mod probes;
mod procstat;
mod report;
mod serve;
mod spans;
mod stats;

use report::Metrics;
use spans::Spans;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Fresh processes behind one untraced run. Each sets the workload up
/// and measures `--seconds / PARTS`; the run pools their operations.
/// Host timings shift from process to process, so pooling several
/// processes steadies every median, and each `setup_s` sample starts
/// with cold process-wide caches.
const PARTS: usize = 5;

/// Fewest timed operations a run holds, so `op_p90_ms` always has at
/// least ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// The four workloads; see the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ModelSweep,
    FuncSched,
    FuncRaw,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ModelSweep,
        Workload::FuncSched,
        Workload::FuncRaw,
        Workload::ServeOpen,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ModelSweep => "model_sweep",
            Workload::FuncSched => "func_sched",
            Workload::FuncRaw => "func_raw",
            Workload::ServeOpen => "serve_open",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A workload after its set-up.
pub trait Load {
    /// Runs one timed window of about `seconds`, recording every
    /// operation (and, when `rec.spans` is on, every layer call).
    fn window(&mut self, seconds: f64, rec: &mut Recorder);

    /// Adds the per-layer metrics of the last window that this
    /// workload reaches.
    fn layer_metrics(&self, rec: &Recorder, out: &mut Metrics);
}

/// Builds a workload. Returns it with the duration of its set-up:
/// input generation and reference results are made first and are not
/// part of that duration.
fn setup(w: Workload, seed: u64, spans: &mut Spans) -> (Box<dyn Load>, Duration) {
    match w {
        Workload::ModelSweep => model::setup(spans),
        Workload::FuncSched => func::setup(sw_dgemm::Variant::Sched, seed, spans),
        Workload::FuncRaw => func::setup(sw_dgemm::Variant::Raw, seed, spans),
        Workload::ServeOpen => serve::setup(seed, spans),
    }
}

/// Operations and their outcomes in one window.
pub struct Recorder {
    /// Spans of the window (off in untraced windows).
    pub spans: Spans,
    /// Host latency of every completed operation, in ms.
    pub lat_ms: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error or did not complete.
    pub failed: u64,
    /// Completed operations whose output failed its check.
    pub wrong: u64,
    /// Fewest operations a window runs.
    pub min_ops: u64,
    next_op: u64,
}

impl Recorder {
    fn new(spans: Spans, min_ops: u64) -> Self {
        Recorder {
            spans,
            lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            min_ops,
            next_op: 0,
        }
    }

    /// Starts an operation; returns its id (shared by its spans).
    pub fn begin(&mut self) -> u64 {
        self.attempted += 1;
        self.next_op += 1;
        self.next_op - 1
    }

    /// Times one operation that is exactly one call into `layer`.
    pub fn op<T, E: std::fmt::Debug>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let id = self.begin();
        let t0 = Instant::now();
        let r = self.spans.time(layer, id, f);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(v) => {
                self.lat_ms.push(ms);
                Some(v)
            }
            Err(e) => {
                self.fail(&format!("{layer}: {e:?}"));
                None
            }
        }
    }

    /// Counts a failed operation (the first few are reported).
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("operation failed: {why}");
        }
    }

    /// Records the verdict of an output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.wrong += 1;
            if self.wrong <= 3 {
                eprintln!("output check failed: {what}");
            }
        }
    }
}

/// Runs rounds of the same operations until `seconds` have passed and
/// the window holds its share of [`MIN_OPS`]. Every round is whole, so
/// a window's failure share does not depend on its length.
pub fn closed_loop(seconds: f64, rec: &mut Recorder, mut round: impl FnMut(&mut Recorder)) {
    let t0 = Instant::now();
    let first = rec.attempted;
    loop {
        round(rec);
        if t0.elapsed().as_secs_f64() >= seconds && rec.attempted - first >= rec.min_ops {
            return;
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run as one part of an untraced run (see [`PARTS`]).
    part: bool,
}

const USAGE: &str = "usage: benchmark --workload <model_sweep|func_sched|func_raw|serve_open> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut part = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--part" {
            part = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        part,
    })
}

/// Window totals taken from the process accounting.
struct Window {
    wall: Duration,
    before: procstat::Snap,
    after: procstat::Snap,
}

fn run_window(load: &mut dyn Load, seconds: f64, rec: &mut Recorder) -> Window {
    let before = procstat::snap();
    let t0 = Instant::now();
    load.window(seconds, rec);
    let wall = t0.elapsed();
    Window {
        wall,
        before,
        after: procstat::snap(),
    }
}

/// What one part reports to the run, one `key value…` line each.
#[derive(Default)]
struct Part {
    setup_s: f64,
    wall_s: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    lat_ms: Vec<f64>,
}

/// Child side: set up, measure one window, print the raw results.
fn run_part(args: &Args) {
    let (mut load, setup) = setup(args.workload, args.seed, &mut Spans::new(false));
    let mut rec = Recorder::new(Spans::new(false), MIN_OPS.div_ceil(PARTS as u64));
    let w = run_window(load.as_mut(), args.seconds, &mut rec);
    let lat: Vec<String> = rec.lat_ms.iter().map(|v| format!("{v:?}")).collect();
    println!("setup_s {:?}", setup.as_secs_f64());
    println!("wall_s {:?}", w.wall.as_secs_f64());
    println!("cpu_ms {}", w.after.cpu_ms() - w.before.cpu_ms());
    println!("peak_rss_mb {:?}", procstat::peak_rss_mb());
    println!("attempted {}", rec.attempted);
    println!("failed {}", rec.failed);
    println!("wrong {}", rec.wrong);
    println!("lat_ms {}", lat.join(" "));
}

/// Parent side: runs one part in a fresh process and reads its lines.
fn spawn_part(args: &Args, seconds: f64) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--part", "--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("part process: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("part process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut p = Part::default();
    let mut seen = 0;
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || {
            rest.parse::<f64>()
                .map_err(|e| format!("part line {line:?}: {e}"))
        };
        match key {
            "setup_s" => p.setup_s = num()?,
            "wall_s" => p.wall_s = num()?,
            "cpu_ms" => p.cpu_ms = num()?,
            "peak_rss_mb" => p.peak_rss_mb = num()?,
            "attempted" => p.attempted = num()? as u64,
            "failed" => p.failed = num()? as u64,
            "wrong" => p.wrong = num()? as u64,
            "lat_ms" => {
                p.lat_ms = rest
                    .split_whitespace()
                    .map(|v| v.parse::<f64>().map_err(|e| format!("latency {v:?}: {e}")))
                    .collect::<Result<_, _>>()?
            }
            _ => continue,
        }
        seen += 1;
    }
    if seen != 8 {
        return Err(format!("part process printed {seen} of 8 results:\n{text}"));
    }
    Ok(p)
}

fn untraced(args: &Args) -> Result<(Metrics, Recorder, bool), String> {
    let parts = (0..PARTS)
        .map(|_| spawn_part(args, args.seconds / PARTS as f64))
        .collect::<Result<Vec<Part>, String>>()?;
    let figures = model::paper_figures();

    let mut rec = Recorder::new(Spans::new(false), MIN_OPS);
    for p in &parts {
        rec.lat_ms.extend_from_slice(&p.lat_ms);
        rec.attempted += p.attempted;
        rec.failed += p.failed;
        rec.wrong += p.wrong;
    }
    let of = |f: fn(&Part) -> f64| parts.iter().map(f).collect::<Vec<f64>>();
    let ops = rec.lat_ms.len().max(1) as f64;
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&of(|p| p.setup_s)));
    m.put(
        "ops_s",
        rec.lat_ms.len() as f64 / of(|p| p.wall_s).iter().sum::<f64>(),
    );
    m.put("op_p50_ms", stats::quantile(&rec.lat_ms, 0.5));
    m.put("op_p90_ms", stats::quantile(&rec.lat_ms, 0.9));
    m.put("cpu_ms_per_op", of(|p| p.cpu_ms).iter().sum::<f64>() / ops);
    m.put("peak_rss_mb", stats::median(&of(|p| p.peak_rss_mb)));
    m.put("sim_gflops", figures.sim_gflops);
    m.put("tuned_gflops", figures.tuned_gflops);
    Ok((m, rec, figures.ok))
}

fn traced(args: &Args) -> Result<(Metrics, Recorder, bool), String> {
    let mut m = Metrics::default();
    // Cold lint first: nothing else in the process has warmed its
    // memo table yet.
    let mut spans = Spans::new(true);
    probes::lint_cold(&mut spans);
    m.put(
        "lint.variant_ms",
        stats::mean(&spans.self_ms("lint.variant")),
    );
    let (mut load, _) = setup(args.workload, args.seed, &mut spans);

    let half = args.seconds / 2.0;
    let mut plain = Recorder::new(Spans::new(false), MIN_OPS);
    run_window(load.as_mut(), half, &mut plain);
    let mut rec = Recorder::new(Spans::new(true), MIN_OPS);
    let w = run_window(load.as_mut(), half, &mut rec);

    let ops = rec.lat_ms.len().max(1) as f64;
    // A thread that exits mid-window takes its switch counts with it.
    let per_op = |a: u64, b: u64| b.saturating_sub(a) as f64 / ops;
    m.put(
        "trace.overhead_pct",
        100.0 * (stats::mean(&rec.lat_ms) / stats::mean(&plain.lat_ms) - 1.0),
    );
    m.put(
        "proc.cpu_user_ms_per_op",
        per_op(w.before.user_ms, w.after.user_ms),
    );
    m.put(
        "proc.cpu_sys_ms_per_op",
        per_op(w.before.sys_ms, w.after.sys_ms),
    );
    m.put(
        "sim.ctxsw_vol_per_op",
        per_op(w.before.ctxsw_vol, w.after.ctxsw_vol),
    );
    m.put(
        "sim.ctxsw_invol_per_op",
        per_op(w.before.ctxsw_invol, w.after.ctxsw_invol),
    );
    m.put("sim.threads", w.after.threads as f64);
    m.put("sim.cg_new_ms", stats::mean(&spans.self_ms("sim.cg_new")));
    load.layer_metrics(&rec, &mut m);
    m.put(
        "isa.replay_minstr_s",
        probes::isa_replay_minstr_s(&mut spans),
    );
    m.put("mesh.ring_mwords_s", probes::mesh_ring_mwords_s(&mut spans));
    m.fill_missing(report::PER_LAYER);

    spans.append(&rec.spans);
    let path = format!(
        ".bench_trace/{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    if let Err(e) = spans.write_chrome(&path) {
        eprintln!("could not write {path}: {e}");
    }
    // Outcomes of both halves count: each is a whole number of rounds.
    rec.attempted += plain.attempted;
    rec.failed += plain.failed;
    rec.wrong += plain.wrong;
    Ok((m, rec, true))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.part {
        run_part(&args);
        return ExitCode::SUCCESS;
    }
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let (metrics, rec, model_ok) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let units = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    eprintln!(
        "{} seed {}: {} attempted, {} failed, {} wrong outputs",
        args.workload.name(),
        args.seed,
        rec.attempted,
        rec.failed,
        rec.wrong
    );
    println!(
        "{}",
        metrics.to_json(rec.wrong == 0 && model_ok, rec.attempted, rec.failed, units)
    );
    ExitCode::SUCCESS
}
