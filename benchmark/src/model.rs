//! `model_sweep`: the timing model on a single thread.
//!
//! One round makes, in a fixed order, the Fig. 6 ladder (5 variants x
//! 10 square sizes), the Fig. 7 shape calls (SCHED with two dimensions
//! at 9216 and the third swept), and a staged `tuner::search` on
//! shapes off the paper's blocking. Each call is one operation. The
//! kernel timing cache is emptied at the start of every round, so each
//! round does the work of one cold sweep and every round is alike.
//!
//! The checks are properties the method must have, not a copy of
//! today's numbers: every estimate is at or below the 742.4 Gflop/s
//! peak, the ladder is ordered RAW <= PE <= ROW <= DB <= SCHED at every
//! Fig. 6 size, and the tuner's best is at least the paper blocking it
//! always times as its baseline.

use crate::report::Metrics;
use crate::spans::Spans;
use crate::{closed_loop, stats, Load, Recorder};
use std::time::{Duration, Instant};
use sw_dgemm::timing::{estimate, kernel_cache_reset, kernel_cache_stats};
use sw_dgemm::tuner::{search, TuneOutcome, TuneRequest};
use sw_dgemm::Variant;
use sw_mem::dma::BandwidthModel;

/// Peak of one core group: 64 CPEs x 8 flops/cycle x 1.45 GHz.
const PEAK_GFLOPS: f64 = 742.4;

/// Figure 6's square sizes.
const FIG6_SIZES: [usize; 10] = [
    1536, 3072, 4608, 6144, 7680, 9216, 10752, 12288, 13824, 15360,
];

/// Figure 6's ladder, slowest first.
const LADDER: [Variant; 5] = [
    Variant::Raw,
    Variant::Pe,
    Variant::Row,
    Variant::Db,
    Variant::Sched,
];

/// Figure 7: the swept dimension's sizes; the other two stay at 9216.
const FIG7_SWEEP: [usize; 4] = [1536, 4608, 9216, 15360];
const FIG7_BASE: usize = 9216;

/// Shapes the tuner searches: a tall-skinny n = 96 that wastes most of
/// the paper's bN = 256 block, a skinny n = 256, and a small batch.
const SEARCH_SHAPES: [(usize, usize, usize); 3] =
    [(9216, 96, 9216), (9216, 256, 4608), (768, 384, 768)];

pub struct ModelSweep {
    bw: BandwidthModel,
    /// Kernel-cache misses of each round's Fig. 6 ladder.
    ladder_misses: Vec<u64>,
    /// Search funnel of each search: (enumerated, timed).
    funnel: Vec<(usize, usize)>,
}

pub fn setup(spans: &mut Spans) -> (Box<dyn Load>, Duration) {
    let t0 = Instant::now();
    let bw = spans.time("mem.bandwidth_model", 0, BandwidthModel::calibrated);
    // Warm-up: one Fig. 6 ladder, the first use of every lazily built
    // table behind `estimate`.
    for &s in &FIG6_SIZES {
        for v in LADDER {
            if let Err(e) = spans.time("core.estimate", 0, || estimate(v, s, s, s)) {
                panic!("warm-up estimate {v:?} {s}: {e:?}");
            }
        }
    }
    let load = ModelSweep {
        bw,
        ladder_misses: Vec::new(),
        funnel: Vec::new(),
    };
    (Box::new(load), t0.elapsed())
}

/// Whether the tuner's best is at least the paper baseline it timed.
fn beats_paper(o: &TuneOutcome) -> bool {
    o.timed_for(&Variant::Sched.paper_params())
        .is_some_and(|paper| o.best().gflops >= paper.gflops)
}

impl ModelSweep {
    fn round(&mut self, rec: &mut Recorder) {
        kernel_cache_reset();
        for &s in &FIG6_SIZES {
            let mut rung = [f64::NAN; LADDER.len()];
            for (slot, v) in rung.iter_mut().zip(LADDER) {
                if let Some(r) = rec.op("core.estimate", || estimate(v, s, s, s)) {
                    rec.check(
                        r.gflops > 0.0 && r.gflops <= PEAK_GFLOPS,
                        "estimate above peak",
                    );
                    *slot = r.gflops;
                }
            }
            rec.check(
                rung.windows(2).all(|w| w[0] <= w[1]),
                &format!("Fig. 6 ladder out of order at {s}: {rung:?}"),
            );
        }
        self.ladder_misses.push(kernel_cache_stats().misses);
        for &s in &FIG7_SWEEP {
            let b = FIG7_BASE;
            for (m, n, k) in [(s, b, b), (b, s, b), (b, b, s)] {
                if let Some(r) = rec.op("core.estimate", || estimate(Variant::Sched, m, n, k)) {
                    rec.check(
                        r.gflops > 0.0 && r.gflops <= PEAK_GFLOPS,
                        "estimate above peak",
                    );
                }
            }
        }
        for (m, n, k) in SEARCH_SHAPES {
            let req = TuneRequest::shaped(Variant::Sched, m, n, k);
            if let Some(o) = rec.op("core.search", || search(&req, &self.bw)) {
                rec.check(
                    beats_paper(&o) && o.best().gflops <= PEAK_GFLOPS,
                    &format!("tuner best below the paper blocking at {m}x{n}x{k}"),
                );
                self.funnel.push((o.stats.enumerated, o.stats.timed));
            }
        }
    }
}

impl Load for ModelSweep {
    fn window(&mut self, seconds: f64, rec: &mut Recorder) {
        self.ladder_misses.clear();
        self.funnel.clear();
        closed_loop(seconds, rec, |rec| self.round(rec));
    }

    fn layer_metrics(&self, rec: &Recorder, out: &mut Metrics) {
        let misses: Vec<f64> = self.ladder_misses.iter().map(|&m| m as f64).collect();
        let enumerated: Vec<f64> = self.funnel.iter().map(|f| f.0 as f64).collect();
        let timed: Vec<f64> = self.funnel.iter().map(|f| f.1 as f64).collect();
        out.put(
            "core.estimate_ms",
            stats::median(&rec.spans.self_ms("core.estimate")),
        );
        out.put(
            "core.search_ms",
            stats::median(&rec.spans.self_ms("core.search")),
        );
        out.put("core.kernel_cache_misses", stats::median(&misses));
        out.put("core.tune_enumerated", stats::mean(&enumerated));
        out.put("core.tune_timed", stats::mean(&timed));
    }
}

/// The paper's metric and the tuner's, both deterministic.
pub struct Figures {
    /// Geometric mean of SCHED's simulated Gflop/s over the Fig. 6 sizes.
    pub sim_gflops: f64,
    /// Geometric mean of the tuner's best effective Gflop/s over
    /// [`SEARCH_SHAPES`].
    pub tuned_gflops: f64,
    /// Every figure formed and passed the checks above.
    pub ok: bool,
}

/// Computes [`Figures`]; every run prints them, after its timed window
/// and its resource readings.
pub fn paper_figures() -> Figures {
    let mut ok = true;
    let mut sched = Vec::new();
    for &s in &FIG6_SIZES {
        match estimate(Variant::Sched, s, s, s) {
            Ok(r) if r.gflops <= PEAK_GFLOPS => sched.push(r.gflops),
            _ => ok = false,
        }
    }
    let bw = BandwidthModel::calibrated();
    let mut tuned = Vec::new();
    for (m, n, k) in SEARCH_SHAPES {
        match search(&TuneRequest::shaped(Variant::Sched, m, n, k), &bw) {
            Ok(o) if beats_paper(&o) => tuned.push(o.best().gflops),
            _ => ok = false,
        }
    }
    Figures {
        sim_gflops: stats::geomean(&sched),
        tuned_gflops: stats::geomean(&tuned),
        ok: ok && sched.len() == FIG6_SIZES.len() && tuned.len() == SEARCH_SHAPES.len(),
    }
}
