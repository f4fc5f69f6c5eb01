//! `serve_open`: an open loop at a constant rate into `sw-serve`.
//!
//! Two tenants share the load 2:1: `plain` sends SCHED requests,
//! `abft` sends SCHED requests under `AbftPolicy::Correct` with a fault
//! plan that flips one bit of one DMA per CG block on the first try,
//! which the checksums catch and the recompute heals inside the same
//! request. No request has a deadline. An `abft` request costs about
//! twice a `plain` one; with a 1:1 mix the median latency would fall in
//! the gap between the two, where it jumps from run to run.
//!
//! The rate is a constant, never derived from a capacity measured at
//! run time (that would hand a faster build more load). Latency runs
//! from each request's due time to its completion, so a stall also
//! charges the requests queued behind it, and `serve.gen_late_ms` says
//! how late the generator itself ran.

use crate::check::{Case, ALPHA, BETA};
use crate::func::Traffic;
use crate::report::Metrics;
use crate::spans::Spans;
use crate::{stats, Load, Recorder};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sw_dgemm::{AbftPolicy, FaultSpec};
use sw_serve::{FaultPlan, GemmRequest, ServeConfig, ServeOutcome, Service, TenantCfg, Ticket};

/// m x n x k of every request: one CG block at the test-scale blocking.
const SHAPE: (usize, usize, usize) = (128, 64, 128);

/// Requests per second, both tenants together (about 40% of what two
/// core groups serve on two host cores at this shape and mix).
const RATE_PER_S: f64 = 9.0;

const PLAIN: usize = 0;
const ABFT: usize = 1;

/// The tenant of each request of a round; request `i` belongs to
/// `ROUND[i % ROUND.len()]`.
const ROUND: [usize; 3] = [PLAIN, PLAIN, ABFT];

/// Seed of the fault plan; fixed, so the injected faults do not move
/// with the input seed.
const FAULT_SEED: u64 = 0x5EED_F1A5;

/// Distinct input sets per tenant.
const CASES: u64 = 4;

struct Sent {
    op: u64,
    case: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

pub struct ServeOpen {
    svc: Arc<Service>,
    cases: Vec<Case>,
    late_ms: Vec<f64>,
    ticket_ms: Vec<f64>,
    attempts: Vec<f64>,
    faults_before: (u64, u64),
    faults_after: (u64, u64),
    traffic_before: Traffic,
    traffic_after: Traffic,
}

fn fault_plan() -> FaultPlan {
    FaultPlan::EveryAttempt(FaultSpec {
        bitflip_every_epoch: true,
        ..FaultSpec::seeded(FAULT_SEED)
    })
}

/// Injected faults of every kind and ABFT-corrected blocks, process-wide.
fn fault_counts() -> (u64, u64) {
    let snap = sw_probe::metrics::global().snapshot();
    let injected = snap
        .entries
        .iter()
        .filter(|(name, _)| name.starts_with("faults.injected."))
        .map(|(_, v)| match v {
            sw_probe::metrics::MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();
    let corrected = sw_probe::metrics::global()
        .counter("faults.recovered.abft_blocks")
        .get();
    (injected, corrected)
}

impl ServeOpen {
    fn request(&self, i: usize) -> (GemmRequest, usize) {
        let case = i / ROUND.len() % self.cases.len();
        let x = &self.cases[case];
        let tenant = ROUND[i % ROUND.len()];
        let mut req = GemmRequest::new(tenant, x.a.clone(), x.b.clone(), x.c0.clone());
        req.alpha = ALPHA;
        req.beta = BETA;
        if tenant == ABFT {
            req.abft = AbftPolicy::Correct;
            req.faults = Some(fault_plan());
        }
        (req, case)
    }

    /// Checks one resolved request.
    fn settle(&mut self, sent: &Sent, outcome: ServeOutcome, rec: &mut Recorder) {
        match outcome {
            ServeOutcome::Completed {
                c,
                attempts,
                latency,
            } => {
                let from_due = sent.submitted - sent.due + latency;
                rec.lat_ms.push(from_due.as_secs_f64() * 1e3);
                rec.check(
                    self.cases[sent.case].accepts(&c),
                    "served result outside the error bound",
                );
                self.ticket_ms.push(latency.as_secs_f64() * 1e3);
                self.attempts.push(f64::from(attempts));
                rec.spans.record(
                    "serve.ticket",
                    sent.op,
                    sent.submitted,
                    sent.submitted + latency,
                );
            }
            other => rec.fail(&format!("request {}: {other:?}", sent.op)),
        }
    }
}

pub fn setup(seed: u64, _spans: &mut Spans) -> (Box<dyn Load>, Duration) {
    let cases = (0..CASES).map(|i| Case::new(seed, i, SHAPE)).collect();
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let t0 = Instant::now();
    let svc = Service::start(ServeConfig {
        tenants: vec![TenantCfg::new("plain"), TenantCfg::new("abft")],
        workers: pool,
        core_groups: pool,
        ..ServeConfig::default()
    });
    let load = ServeOpen {
        svc,
        cases,
        late_ms: Vec::new(),
        ticket_ms: Vec::new(),
        attempts: Vec::new(),
        faults_before: (0, 0),
        faults_after: (0, 0),
        traffic_before: Traffic::default(),
        traffic_after: Traffic::default(),
    };
    // Warm-up: one round per core group, all in flight at once, so
    // every worker leases its own group and each group spawns its CPE
    // pool before the window.
    let tickets: Vec<_> = (0..ROUND.len() * pool)
        .map(|i| load.svc.submit(load.request(i).0))
        .collect();
    for t in tickets {
        match t.map(|t| t.wait()) {
            Ok(ServeOutcome::Completed { .. }) => {}
            other => panic!("warm-up request failed: {other:?}"),
        }
    }
    let took = t0.elapsed();
    (Box::new(load), took)
}

impl Load for ServeOpen {
    fn window(&mut self, seconds: f64, rec: &mut Recorder) {
        self.late_ms.clear();
        self.ticket_ms.clear();
        self.attempts.clear();
        self.faults_before = fault_counts();
        self.traffic_before = Traffic::now();
        let rounds = ((seconds * RATE_PER_S / ROUND.len() as f64).round() as usize)
            .max(rec.min_ops.div_ceil(ROUND.len() as u64) as usize);
        let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
        let mut pending: Vec<Sent> = Vec::new();
        let t0 = Instant::now();
        for i in 0..rounds * ROUND.len() {
            let due = t0 + period * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (req, case) = self.request(i);
            let op = rec.begin();
            let submitted = Instant::now();
            self.late_ms.push((submitted - due).as_secs_f64() * 1e3);
            let svc = &self.svc;
            match rec.spans.time("serve.submit", op, || svc.submit(req)) {
                Ok(ticket) => pending.push(Sent {
                    op,
                    case,
                    due,
                    submitted,
                    ticket,
                }),
                Err(reason) => rec.fail(&format!("request {op} refused: {reason}")),
            }
            // Settle whatever has finished without blocking the schedule.
            let mut k = 0;
            while k < pending.len() {
                match pending[k].ticket.try_take() {
                    Some(outcome) => {
                        let sent = pending.swap_remove(k);
                        self.settle(&sent, outcome, rec);
                    }
                    None => k += 1,
                }
            }
        }
        for sent in std::mem::take(&mut pending) {
            let outcome = sent.ticket.wait();
            self.settle(&sent, outcome, rec);
        }
        self.faults_after = fault_counts();
        self.traffic_after = Traffic::now();
    }

    fn layer_metrics(&self, rec: &Recorder, out: &mut Metrics) {
        let submit_us: Vec<f64> = rec
            .spans
            .self_ms("serve.submit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.put("serve.submit_us", stats::median(&submit_us));
        out.put("serve.ticket_latency_ms", stats::median(&self.ticket_ms));
        out.put("serve.gen_late_ms", stats::mean(&self.late_ms));
        out.put("serve.attempts_per_op", stats::mean(&self.attempts));
        out.put(
            "faults.injected",
            (self.faults_after.0 - self.faults_before.0) as f64,
        );
        out.put(
            "faults.corrected",
            (self.faults_after.1 - self.faults_before.1) as f64,
        );
        Traffic::put_per_op(
            self.traffic_before,
            self.traffic_after,
            rec.lat_ms.len(),
            out,
        );
    }
}
