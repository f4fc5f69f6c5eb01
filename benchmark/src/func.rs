//! `func_sched` and `func_raw`: a closed loop with one client running
//! `DgemmRunner::run_on` on one reused `CoreGroup` at one fixed shape.
//!
//! SCHED moves its panels over the register mesh and keeps the 64 CPE
//! threads trading places on the host cores; RAW streams PE-mode DMA
//! and sends nothing over the mesh. A change to the mesh shows on
//! `func_sched` and leaves `func_raw` alone; a barrier or DMA change
//! shows the reverse.

use crate::check::{Case, ALPHA, BETA};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::{closed_loop, stats, Load, Recorder};
use std::time::{Duration, Instant};
use sw_dgemm::{DgemmRunner, Variant};
use sw_sim::{CoreGroup, Lane};

/// m x n x k of every operation: two CG blocks at the test-scale
/// blocking the runner picks for shapes below the paper's blocks.
pub const SHAPE: (usize, usize, usize) = (128, 128, 128);

/// Distinct input sets; one round runs each once.
const CASES: u64 = 4;

/// Operations in the set-up, after which the CPE pool is spawned and
/// the lint memo filled.
const WARMUP_OPS: usize = 2;

/// Per-operation simulated-clock readings of the flight recorder:
/// makespan, then the compute, DMA, mesh and barrier lanes summed over
/// the 64 CPEs.
type Flight = [u64; 5];

pub struct Func {
    runner: DgemmRunner,
    cg: CoreGroup,
    cases: Vec<Case>,
    flight: Vec<Flight>,
    traffic_before: Traffic,
    traffic_after: Traffic,
}

/// DMA and mesh traffic the core groups published to the global
/// metrics registry (every `CoreGroup` run adds its `RunStats` there).
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub dma_bytes: u64,
    pub dma_descriptors: u64,
    pub mesh_bytes: u64,
}

impl Traffic {
    pub fn now() -> Self {
        let c = |name: &str| sw_probe::metrics::global().counter(name).get();
        Traffic {
            dma_bytes: ["pe", "bcast", "row", "brow", "rank"]
                .iter()
                .map(|mode| c(&format!("sim.dma.{mode}.bytes")))
                .sum(),
            dma_descriptors: c("sim.dma.descriptors"),
            mesh_bytes: 32 * (c("sim.mesh.row.words_sent") + c("sim.mesh.col.words_sent")),
        }
    }

    /// Per-operation DMA bytes, descriptors and mesh bytes since `before`.
    pub fn put_per_op(before: Traffic, after: Traffic, ops: usize, out: &mut Metrics) {
        let ops = ops.max(1) as f64;
        out.put(
            "dma.bytes_per_op",
            (after.dma_bytes - before.dma_bytes) as f64 / ops,
        );
        out.put(
            "dma.descriptors_per_op",
            (after.dma_descriptors - before.dma_descriptors) as f64 / ops,
        );
        out.put(
            "mesh.bytes_per_op",
            (after.mesh_bytes - before.mesh_bytes) as f64 / ops,
        );
    }
}

pub fn setup(variant: Variant, seed: u64, spans: &mut Spans) -> (Box<dyn Load>, Duration) {
    let cases: Vec<Case> = (0..CASES).map(|i| Case::new(seed, i, SHAPE)).collect();
    let runner = DgemmRunner::new(variant);
    let t0 = Instant::now();
    let mut cg = None;
    for i in 0..WARMUP_OPS {
        let case = &cases[i % cases.len()];
        let mut c = (*case.c0).clone();
        let mut run = || {
            let cg = cg.get_or_insert_with(CoreGroup::new);
            runner.run_on(cg, ALPHA, &case.a, &case.b, BETA, &mut c)
        };
        let r = if i == 0 {
            spans.time("sim.cg_new", 0, run)
        } else {
            run()
        };
        if let Err(e) = r {
            panic!("warm-up {variant:?} run failed: {e:?}");
        }
    }
    let took = t0.elapsed();
    let load = Func {
        runner,
        cg: cg.expect("warm-up ran"),
        cases,
        flight: Vec::new(),
        traffic_before: Traffic::default(),
        traffic_after: Traffic::default(),
    };
    (Box::new(load), took)
}

impl Func {
    fn round(&mut self, rec: &mut Recorder) {
        for case in &self.cases {
            let mut c = (*case.c0).clone();
            let (runner, cg) = (&self.runner, &mut self.cg);
            let ran = rec.op("core.run_on", || {
                runner.run_on(cg, ALPHA, &case.a, &case.b, BETA, &mut c)
            });
            if ran.is_some() {
                rec.check(
                    case.accepts(&c),
                    "functional result outside the error bound",
                );
                if rec.spans.is_on() {
                    let rings = self.cg.flight().attribution();
                    let lane = |l: Lane| rings.iter().map(|r| r.busy[l as usize]).sum::<u64>();
                    let makespan = rings.iter().map(|r| r.clock).max().unwrap_or(0);
                    let [c, d, m, b] = Lane::ALL.map(lane);
                    self.flight.push([makespan, c, d, m, b]);
                }
            }
        }
    }
}

impl Load for Func {
    fn window(&mut self, seconds: f64, rec: &mut Recorder) {
        self.flight.clear();
        self.traffic_before = Traffic::now();
        closed_loop(seconds, rec, |rec| self.round(rec));
        self.traffic_after = Traffic::now();
    }

    fn layer_metrics(&self, rec: &Recorder, out: &mut Metrics) {
        out.put(
            "core.run_on_ms",
            stats::median(&rec.spans.self_ms("core.run_on")),
        );
        Traffic::put_per_op(
            self.traffic_before,
            self.traffic_after,
            rec.lat_ms.len(),
            out,
        );
        let names = [
            "flight.makespan_cycles",
            "flight.compute_cycles",
            "flight.dma_cycles",
            "flight.mesh_cycles",
            "flight.barrier_cycles",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let v: Vec<f64> = self.flight.iter().map(|f| f[i] as f64).collect();
            out.put(name, stats::median(&v));
        }
    }
}
