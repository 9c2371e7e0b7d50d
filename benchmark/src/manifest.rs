//! The benchmark's contract, in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics (README.md says what each should
//! move).
//! `BENCHMARK.json` is this table rendered; `--check-manifest` fails when
//! the file and the table differ, and every run refuses to print a result
//! whose metric names are not exactly the table's.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// The quantile `latency_tail_ms` reports: the highest of p75 / p95 /
    /// p99 that keeps at least ten samples per kind beyond it at the sample
    /// counts a run of [`RUN_SECONDS`] reaches on the seed machine.  Fixed
    /// per workload, so the metric does not change meaning when a run
    /// collects a few samples more or fewer.
    pub tail_q: f64,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 10;
pub const DEFAULT_SEED: u64 = 0x5eed_cafe;
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["benchmark"];

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "arena-paths",
        why: "12 predicate-free queries, compile cache hot, on a resident 10^5-element document: axis kernels, node-set merges and the cache hand-off do the work; per-context memo does nothing",
        tail_q: 0.95,
    },
    WorkloadSpec {
        name: "arena-preds",
        why: "14 predicate, positional and aggregate queries on the same document: per-context evaluation, memo tables and backward propagation do the work; kernels are a few percent",
        tail_q: 0.75,
    },
    WorkloadSpec {
        name: "adhoc-corpus",
        why: "evaluate_str of 161 corpus queries on 4 tiny documents, nothing cached: lexer, parser, normalizer and rewriter do the work; kernels and memo do nothing",
        tail_q: 0.95,
    },
    WorkloadSpec {
        name: "ingest-arena",
        why: "XML text to parse to evaluate_str to value, document dropped: tokenizer plus arena builder are about 95 % of an op, evaluation the rest",
        tail_q: 0.75,
    },
    WorkloadSpec {
        name: "ingest-stream",
        why: "the same text and queries through the streaming engine: the tokenizer consumed without a builder, so a tokenizer gain shows here and in ingest-arena, a builder gain only there",
        tail_q: 0.75,
    },
    WorkloadSpec {
        name: "snapshot-cold",
        why: "open_snapshot of a 4*10^5-element snapshot, one query, unmap: the open-time validation sweep dominates; process-cold, page-cache-warm",
        tail_q: 0.75,
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "closed loop of 2 clients on a 2-worker ServeEngine over two snapshots, 65 % light, 25 % heavy, 10 % compile-cache-missing requests: hand-off, both LRUs, queueing and core under sharing",
        tail_q: 0.99,
    },
];

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "kind_geomean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

const fn row(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 91] = [
    // xml
    row("xml.token.ms", "ms", Lower),
    row("xml.token.mb_per_s", "MB/s", Higher),
    row("xml.token.events", "count", Lower),
    row("xml.parse.ms", "ms", Lower),
    row("xml.build.ms", "ms", Lower),
    row("xml.parse.nodes_per_s", "1/s", Higher),
    row("xml.parse.alloc_mb", "MB", Lower),
    row("xml.doc.resident_mb", "MB", Lower),
    row("xml.axes.desc_name_root_us", "us", Lower),
    row("xml.axes.desc_name_set_us", "us", Lower),
    row("xml.axes.child_name_all_us", "us", Lower),
    row("xml.axes.attr_name_all_us", "us", Lower),
    row("xml.axes.following_name_set_us", "us", Lower),
    row("xml.axes.desc_anynode_root_us", "us", Lower),
    row("xml.axes.preimage_child_set_us", "us", Lower),
    row("xml.axes.out_nodes", "count", Lower),
    row("xml.par.t2_pass_ms", "ms", Lower),
    row("xml.par.speedup_t2", "x", Higher),
    row("xml.par.chunks", "count", Higher),
    row("xml.par.bypass", "count", Lower),
    // syntax
    row("syntax.lex_us", "us", Lower),
    row("syntax.parse_us", "us", Lower),
    row("syntax.normalize_us", "us", Lower),
    row("syntax.lower_us", "us", Lower),
    row("syntax.parse_xpath_us", "us", Lower),
    row("syntax.ir_nodes", "count", Lower),
    // core
    row("core.rewrite_us", "us", Lower),
    row("core.rewrite.fired", "count", Higher),
    row("core.rewrite.passes", "count", Lower),
    row("core.compile_us", "us", Lower),
    row("core.cache.hit_us", "us", Lower),
    row("core.eval_us", "us", Lower),
    row("core.eval.fuel", "count", Lower),
    row("core.eval.fuel_per_out_node", "ratio", Lower),
    row("core.memo.hits", "count", Higher),
    row("core.memo.misses", "count", Lower),
    row("core.memo.hit_ratio", "ratio", Higher),
    row("core.backward_passes", "count", Lower),
    row("core.alloc_mb_per_pass", "MB", Lower),
    row("core.mincontext_pass_ms", "ms", Lower),
    row("core.opt_over_min_x", "x", Lower),
    row("core.rewrite.gain_x", "x", Higher),
    row("core.par.fanout_speedup_t2", "x", Higher),
    row("core.explain_overhead_x", "x", Lower),
    // index
    row("index.open_ms", "ms", Lower),
    row("index.first_eval_ms", "ms", Lower),
    row("index.warm_eval_ms", "ms", Lower),
    row("index.open_heap_mb", "MB", Lower),
    row("index.mapped_over_owned_x", "x", Lower),
    row("index.write_ms", "ms", Lower),
    row("index.file_mb", "MB", Lower),
    row("index.bytes_per_xml_byte", "ratio", Lower),
    row("index.stamp_us", "us", Lower),
    // stream
    row("stream.classify_us", "us", Lower),
    row("stream.eval_ms", "ms", Lower),
    row("stream.reader_ms", "ms", Lower),
    row("stream.over_token_x", "x", Lower),
    row("stream.alloc_total_mb", "MB", Lower),
    row("stream.matches", "count", Lower),
    row("stream.fallbacks", "count", Lower),
    // serve
    row("serve.queue_wait_us_p50", "us", Lower),
    row("serve.queue_wait_us_p99", "us", Lower),
    row("serve.max_queue_depth", "count", Lower),
    row("serve.query_hit_ratio", "ratio", Higher),
    row("serve.snapshot_hit_ratio", "ratio", Higher),
    row("serve.shed", "count", Lower),
    row("serve.panics", "count", Lower),
    row("serve.light_ms_p50", "ms", Lower),
    row("serve.heavy_ms_p50", "ms", Lower),
    row("serve.miss_ms_p50", "ms", Lower),
    row("serve.handoff_us", "us", Lower),
    row("serve.direct_qps", "1/s", Higher),
    row("serve.scaling_x", "x", Higher),
    // obs and the harness itself
    row("obs.recorder_overhead_pct", "%", Lower),
    row("obs.render_prometheus_us", "us", Lower),
    row("trace.op_ms", "ms", Lower),
    row("trace.overhead_pct", "%", Lower),
    row("trace.unaccounted_pct", "%", Lower),
    // Where the traced workload's op time went: self time of each stage of
    // the staged replay as a share of the op spans; 0 for a stage the
    // workload does not have.
    row("share.xml.parse_pct", "%", Lower),
    row("share.xml.drop_pct", "%", Lower),
    row("share.syntax.parse_xpath_pct", "%", Lower),
    row("share.core.rewrite_pct", "%", Lower),
    row("share.core.compile_pct", "%", Lower),
    row("share.core.cache_hit_pct", "%", Lower),
    row("share.core.eval_pct", "%", Lower),
    row("share.index.open_pct", "%", Lower),
    row("share.index.drop_pct", "%", Lower),
    row("share.stream.eval_pct", "%", Lower),
    row("share.serve.submit_pct", "%", Lower),
    row("share.serve.wait_pct", "%", Lower),
    row("share.xml.token_side_pct", "%", Lower),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command = COMMAND.map(json_string).join(", ");
    let paths = PATHS.map(json_string).join(", ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    r#"{{"name": {}, "why": {}}}"#,
                    json_string(w.name),
                    json_string(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    r#"{{"name": {}, "unit": {}, "better": "{}", "bound": {}}}"#,
                    json_string(m.name),
                    json_string(m.unit),
                    better(m.better),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    r#"{{"name": {}, "unit": {}, "better": "{}"}}"#,
                    json_string(m.name),
                    json_string(m.unit),
                    better(m.better)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{paths}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

/// The final line of a run: exactly the contract's four keys.  Fails when
/// `values` does not hold exactly the names of `specs`, in either
/// direction.
pub fn result_line(
    specs: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !specs.iter().any(|(s, _)| s == n))
    {
        return Err(format!("metric {name} is measured but not in the manifest"));
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for (name, unit) in specs {
        let mut found = values.iter().filter(|(n, _)| n == name);
        let value = match (found.next(), found.next()) {
            (Some((_, v)), None) => *v,
            (None, _) => return Err(format!("metric {name} is in the manifest but not measured")),
            (Some(_), Some(_)) => return Err(format!("metric {name} is measured twice")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            r#"{}: {{"value": {value}, "unit": {}}}"#,
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        metrics.join(", ")
    ))
}

pub fn end_to_end_specs() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_specs() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let valid_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_refuses_missing_extra_and_non_finite_metrics() {
        let specs = [("a", "ms"), ("b", "count")];
        let line = result_line(&specs, &[("b", 2.0), ("a", 1.25)], 10, 0).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a": {"value": 1.25, "unit": "ms"}, "b": {"value": 2, "unit": "count"}}}"#
        );
        assert!(result_line(&specs, &[("a", 1.0)], 1, 0)
            .unwrap_err()
            .contains("not measured"));
        assert!(
            result_line(&specs, &[("a", 1.0), ("b", 2.0), ("c", 3.0)], 1, 0)
                .unwrap_err()
                .contains("not in the manifest")
        );
        assert!(result_line(&specs, &[("a", f64::NAN), ("b", 2.0)], 1, 0).is_err());
        assert!(result_line(&specs, &[("a", 1.0), ("b", 2.0)], 5, 1)
            .unwrap()
            .starts_with(r#"{"correct": false"#));
    }
}
