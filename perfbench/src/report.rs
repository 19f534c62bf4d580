//! What one run measured and checked, and how it is printed: one line per
//! metric and check for people, then one JSON object as the last line of
//! standard output for the harness.

use crate::stats::Percentile;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "steps_per_s",
    "step_ms_p50",
    "step_ms_p95",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [&str; 35] = [
    "structure.nl_update_ms",
    "structure.nl_rebuild_frac",
    "model.hamiltonian_ms",
    "model.occupations_ms",
    "model.density_ms",
    "model.forces_ms",
    "model.eval_ms",
    "model.eval_residual_frac",
    "linalg.tridiag_ms",
    "linalg.spectrum_ms",
    "linalg.eigvec_ms",
    "linalg.occupied_frac",
    "linalg.tridiag_gflops",
    "linalg.syrk_gflops",
    "linalg.ql_eigh_ms",
    "parallel.dist_eval_ms",
    "parallel.serial_eval_ms",
    "parallel.speedup",
    "rayon.fanout_us",
    "core.build_ms",
    "core.step_ms",
    "core.step_overhead_ms",
    "ckpt.write_us",
    "ckpt.snapshot_bytes",
    "trace.record_bytes_per_step",
    "trace.overhead_frac",
    "trace.overhead_base_ms",
    "serve.tick_ms",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p95",
    "proc.cpu_ms_per_step",
    "proc.sys_ms_per_step",
    "proc.runq_wait_frac",
    "proc.host_ref_us",
    "proc.host_mem_gbps",
];

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    detail: String,
}

/// Accumulates one run's operations, checks and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Count one attempted operation (an MD step or a check).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count and print one correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.op(ok);
        self.lines.push(format!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// A free-form diagnostic line (host load, CPU time, sample counts).
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail,
        });
    }

    /// A percentile metric, printed with its sample count and tail size.
    pub fn percentile(&mut self, name: &'static str, p: Percentile, unit: &'static str) {
        let tail = if p.has_tail() {
            String::new()
        } else {
            " — fewer than 10 samples beyond it".to_string()
        };
        let detail = format!("n={}, {} beyond{tail}", p.n, p.beyond);
        self.metric(name, p.value, unit, detail);
    }

    /// Print every line, then the result object restricted to `names`.
    /// Fails if a required metric is missing or not a finite number.
    pub fn print(&self, names: &[&str]) -> Result<(), String> {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{} = {} {} ({})", m.name, m.value, m.unit, m.detail);
        }
        let mut fields = Vec::new();
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {}", m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}
