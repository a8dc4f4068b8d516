//! Named metrics, their printed table, and the final JSON result line.

/// The end-to-end metrics of the result line, in `BENCHMARK.json`
/// order. Every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[("cpu_us_per_op", "us"), ("setup_s", "s")];

/// The per-layer metrics of a traced run's result line, in
/// `BENCHMARK.json` order. A layer a workload never enters reports 0
/// and is listed as not measured, with the reason.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.sssp_rows", "count"),
    ("graph.relaxations", "count"),
    ("graph.row_us", "us"),
    ("oracle.builds", "count"),
    ("oracle.refills_skipped", "count"),
    ("oracle.row_hit_ratio", "ratio"),
    ("oracle.round_reuse_ratio", "ratio"),
    ("oracle.lazy_reject_ratio", "ratio"),
    ("oracle.row_hit_ratio.alpha1", "ratio"),
    ("oracle.row_hit_ratio.alpha2", "ratio"),
    ("oracle.row_hit_ratio.alpha4", "ratio"),
    ("oracle.round_reuse_ratio.alpha1", "ratio"),
    ("oracle.round_reuse_ratio.alpha2", "ratio"),
    ("oracle.round_reuse_ratio.alpha4", "ratio"),
    ("session.exec_us.mutate", "us"),
    ("session.exec_us.read", "us"),
    ("session.exec_us.best_response", "us"),
    ("session.exec_us.heavy", "us"),
    ("session.csr_rebuilds", "count"),
    ("session.row_survival", "ratio"),
    ("dynamics.activations", "count"),
    ("dynamics.moves", "count"),
    ("dynamics.rounds", "count"),
    ("dynamics.seq_s", "s"),
    ("dynamics.sim_s", "s"),
    ("dynamics.measure_s", "s"),
    ("registry.inproc_us.mutate", "us"),
    ("registry.inproc_us.read", "us"),
    ("registry.inproc_us.best_response", "us"),
    ("registry.inproc_us.heavy", "us"),
    ("registry.inproc_us.lifecycle", "us"),
    ("registry.queue_wait_us", "us"),
    ("registry.evictions", "count"),
    ("registry.restores", "count"),
    ("registry.restores_per_kreq", "1/kreq"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.rewarm_rows", "count"),
    ("wal.append_us", "us"),
    ("wal.commit_ms", "ms"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.records_per_fsync", "ratio"),
    ("wire.json.encode_us", "us"),
    ("wire.json.decode_us", "us"),
    ("wire.json.bytes_per_req", "bytes"),
    ("wire.binary.encode_us", "us"),
    ("wire.binary.decode_us", "us"),
    ("wire.binary.bytes_per_req", "bytes"),
    ("io.ping_rtt_us.reactor", "us"),
    ("io.ping_rtt_us.threaded", "us"),
    ("io.residual_us.mutate", "us"),
    ("io.residual_us.read", "us"),
    ("io.residual_us.best_response", "us"),
    ("io.residual_us.heavy", "us"),
    ("io.residual_us.lifecycle", "us"),
    ("io.wakeups_per_req", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `Err(reason)` when the metric could not be measured.
    pub value: Result<f64, String>,
    /// Samples behind the value, where it is a statistic over samples.
    pub samples: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a value; a missing or non-finite value becomes "not
    /// measured" with `why_missing` as the reason.
    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        value: Option<f64>,
        samples: Option<usize>,
        why_missing: &str,
    ) {
        let value = match value {
            Some(v) if v.is_finite() => Ok(v),
            Some(v) => Err(format!("non-finite value {v}")),
            None => Err(why_missing.to_owned()),
        };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
        });
    }

    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, unit, Some(value), None, "");
    }

    pub fn set_n(&mut self, name: &str, unit: &'static str, value: Option<f64>, samples: usize) {
        self.put(name, unit, value, Some(samples), "too few samples");
    }

    pub fn na(&mut self, name: &str, unit: &'static str, reason: &str) {
        self.put(name, unit, None, None, reason);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// One table line: `name = value unit (n=samples)` or `name = n/a (why)`.
pub fn line(m: &Metric) -> String {
    let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
    match &m.value {
        Ok(v) => format!("{:<36} {v:.6} {}{n}", m.name, m.unit),
        Err(why) => format!("{:<36} n/a {} ({why})", m.name, m.unit),
    }
}

/// The final result line. `required` lists the metrics it carries;
/// `zero_if_missing` lets a traced run report an unentered layer as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    report: &Report,
    required: &[(&str, &str)],
    zero_if_missing: bool,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(required.len());
    for &(name, unit) in required {
        let value = match report.get(name).map(|m| &m.value) {
            Some(Ok(v)) => *v,
            Some(Err(_)) | None if zero_if_missing => 0.0,
            Some(Err(why)) => return Err(format!("{name} not measured: {why}")),
            None => return Err(format!("{name} not measured")),
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
