//! Metric names, units and the result line.

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_gflops", "Gflop/s"),
    ("tuned_gflops", "Gflop/s"),
];

/// Per-layer metrics (`--trace 1`), with their units. A workload that
/// does not reach a layer reports 0 for it (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.estimate_ms", "ms"),
    ("core.kernel_cache_misses", "count"),
    ("core.search_ms", "ms"),
    ("core.tune_enumerated", "count"),
    ("core.tune_timed", "count"),
    ("core.run_on_ms", "ms"),
    ("lint.variant_ms", "ms"),
    ("isa.replay_minstr_s", "Minstr/s"),
    ("sim.cg_new_ms", "ms"),
    ("sim.ctxsw_invol_per_op", "count"),
    ("sim.ctxsw_vol_per_op", "count"),
    ("sim.threads", "count"),
    ("proc.cpu_user_ms_per_op", "ms"),
    ("proc.cpu_sys_ms_per_op", "ms"),
    ("flight.makespan_cycles", "cycles"),
    ("flight.compute_cycles", "cycles"),
    ("flight.dma_cycles", "cycles"),
    ("flight.mesh_cycles", "cycles"),
    ("flight.barrier_cycles", "cycles"),
    ("mesh.bytes_per_op", "bytes"),
    ("mesh.ring_mwords_s", "Mwords/s"),
    ("dma.bytes_per_op", "bytes"),
    ("dma.descriptors_per_op", "count"),
    ("serve.submit_us", "us"),
    ("serve.ticket_latency_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("serve.attempts_per_op", "count"),
    ("faults.injected", "count"),
    ("faults.corrected", "count"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Reports 0 for every name in `list` that no layer set.
    pub fn fill_missing(&mut self, list: &[(&'static str, &str)]) {
        for (name, _) in list {
            if !self.0.iter().any(|(n, _)| n == name) {
                self.0.push((name, 0.0));
            }
        }
    }

    /// The result line: every metric of `list`, in its order.
    pub fn to_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        list: &[(&str, &str)],
    ) -> String {
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .0
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                // JSON has no NaN or infinity; a metric that could not be
                // formed reads 0.
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
