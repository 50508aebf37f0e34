//! Run-level observability summaries: pool statistics and the
//! [`ObsReport`] attached to a traced run's `BatchReport`.

use crate::metrics::HistogramSummary;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A snapshot of the work-stealing pool's lifetime counters.
///
/// All counters are cumulative since pool construction; subtract two
/// snapshots with [`PoolStats::delta_since`] to scope them to one run.
/// High-water marks are lifetime maxima and survive the subtraction
/// unchanged (a per-run high-water mark is not recoverable from two
/// snapshots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Tasks pushed to the shared injector (driver-side submissions).
    pub injector_pushes: u64,
    /// Tasks a worker popped from the shared injector.
    pub injector_pops: u64,
    /// Times a worker parked (found no work and slept).
    pub parks: u64,
    /// Times a parked worker was woken by a submission.
    pub unparks: u64,
    /// Tasks executed, per worker.
    pub tasks_per_worker: Vec<u64>,
    /// Deepest each worker's own deque has been, per worker.
    pub queue_hwm_per_worker: Vec<u64>,
    /// Deepest the shared injector queue has been.
    pub injector_hwm: u64,
}

impl PoolStats {
    /// Total tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// Counters accrued since `base` was snapshotted (high-water marks
    /// are carried over from `self` as lifetime maxima).
    pub fn delta_since(&self, base: &PoolStats) -> PoolStats {
        let per_worker = |now: &[u64], then: &[u64]| {
            now.iter()
                .enumerate()
                .map(|(i, v)| v.saturating_sub(then.get(i).copied().unwrap_or(0)))
                .collect()
        };
        PoolStats {
            workers: self.workers,
            steals: self.steals.saturating_sub(base.steals),
            injector_pushes: self.injector_pushes.saturating_sub(base.injector_pushes),
            injector_pops: self.injector_pops.saturating_sub(base.injector_pops),
            parks: self.parks.saturating_sub(base.parks),
            unparks: self.unparks.saturating_sub(base.unparks),
            tasks_per_worker: per_worker(&self.tasks_per_worker, &base.tasks_per_worker),
            queue_hwm_per_worker: self.queue_hwm_per_worker.clone(),
            injector_hwm: self.injector_hwm,
        }
    }

    /// JSON object rendering (stable key order).
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            concat!(
                "{{\"workers\":{},\"steals\":{},\"injector_pushes\":{},",
                "\"injector_pops\":{},\"parks\":{},\"unparks\":{},",
                "\"tasks_per_worker\":{},\"queue_hwm_per_worker\":{},",
                "\"injector_hwm\":{}}}"
            ),
            self.workers,
            self.steals,
            self.injector_pushes,
            self.injector_pops,
            self.parks,
            self.unparks,
            list(&self.tasks_per_worker),
            list(&self.queue_hwm_per_worker),
            self.injector_hwm,
        )
    }
}

/// Per-run observability summary, attached to `BatchReport` (and to the
/// trace JSONL's final `summary` line) when a run is traced.
///
/// This is diagnostic data about *how* the run executed — it is
/// deliberately excluded from report equality, which compares only
/// certified outcomes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Wall-clock duration of the run on the session clock.
    pub wall_ns: u64,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots (per-stage totals live in their sums),
    /// sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Pool counters accrued during the run, if the run used the pool.
    pub pool: Option<PoolStats>,
}

impl ObsReport {
    /// Value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The named histogram snapshot, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// JSON object rendering (stable key order).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| {
                format!("{{\"name\":\"{}\",\"value\":{}}}", json_escape(name), value)
            })
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(bound, count)| format!("[{bound},{count}]"))
                    .collect();
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"count\":{},\"sum\":{},",
                        "\"min\":{},\"max\":{},\"buckets\":[{}]}}"
                    ),
                    json_escape(&h.name),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    buckets.join(",")
                )
            })
            .collect();
        let pool = self
            .pool
            .as_ref()
            .map_or("null".to_string(), PoolStats::to_json);
        format!(
            "{{\"wall_ns\":{},\"counters\":[{}],\"histograms\":[{}],\"pool\":{}}}",
            self.wall_ns,
            counters.join(","),
            histograms.join(","),
            pool
        )
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("obs: wall {:.3} ms\n", self.wall_ns as f64 / 1e6));
        for (name, value) in &self.counters {
            out.push_str(&format!("  counter {name:<24} {value}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "  hist    {:<24} n={} sum={}ns mean={:.0}ns min={}ns max={}ns\n",
                h.name,
                h.count,
                h.sum,
                h.mean(),
                h.min,
                h.max
            ));
        }
        if let Some(p) = &self.pool {
            out.push_str(&format!(
                "  pool    workers={} tasks={} steals={} inj_push={} inj_pop={} parks={} unparks={} hwm={:?}\n",
                p.workers,
                p.total_tasks(),
                p.steals,
                p.injector_pushes,
                p.injector_pops,
                p.parks,
                p.unparks,
                p.queue_hwm_per_worker,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn pool_stats_delta_subtracts_counters_and_keeps_hwm() {
        let base = PoolStats {
            workers: 2,
            steals: 3,
            injector_pushes: 10,
            injector_pops: 9,
            parks: 4,
            unparks: 4,
            tasks_per_worker: vec![5, 6],
            queue_hwm_per_worker: vec![2, 2],
            injector_hwm: 4,
        };
        let now = PoolStats {
            steals: 8,
            injector_pushes: 25,
            injector_pops: 24,
            parks: 9,
            unparks: 8,
            tasks_per_worker: vec![15, 18],
            queue_hwm_per_worker: vec![3, 2],
            injector_hwm: 6,
            ..base.clone()
        };
        let d = now.delta_since(&base);
        assert_eq!(d.steals, 5);
        assert_eq!(d.injector_pushes, 15);
        assert_eq!(d.tasks_per_worker, vec![10, 12]);
        assert_eq!(d.total_tasks(), 22);
        // High-water marks are lifetime maxima, not differences.
        assert_eq!(d.queue_hwm_per_worker, vec![3, 2]);
        assert_eq!(d.injector_hwm, 6);
    }

    #[test]
    fn obs_report_json_is_pinned() {
        let report = ObsReport {
            wall_ns: 42,
            counters: vec![("labels_decoded".into(), 7)],
            histograms: vec![crate::metrics::HistogramSummary {
                name: "prove_ns".into(),
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                buckets: vec![(16, 1), (32, 1)],
            }],
            pool: None,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                "{\"wall_ns\":42,",
                "\"counters\":[{\"name\":\"labels_decoded\",\"value\":7}],",
                "\"histograms\":[{\"name\":\"prove_ns\",\"count\":2,\"sum\":30,",
                "\"min\":10,\"max\":20,\"buckets\":[[16,1],[32,1]]}],",
                "\"pool\":null}"
            )
        );
        assert_eq!(report.counter("labels_decoded"), 7);
        assert_eq!(report.counter("missing"), 0);
        assert_eq!(report.histogram("prove_ns").map(|h| h.sum), Some(30));
    }
}
