//! The metric tables: what `BENCHMARK.json` lists, in the order the
//! harness emits it. A per-layer metric is a statistic of one span name
//! over the traced part of a run, or a figure the workload derives; it
//! reads 0 in a workload that never makes the call.

use crate::harness::Metric;
use crate::trace::NameStats;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// `failed_share` is not here: the contract wants metrics that are
/// never 0, and failures already travel in the result line's `failed`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "heavy_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

#[derive(Clone, Copy)]
pub enum Src {
    /// Median span duration.
    P50(&'static str),
    /// Median of duration over unit items (ops, rows, ranks).
    PerUnit(&'static str),
    P99(&'static str),
    /// Median self time: duration minus children.
    SelfP50(&'static str),
    /// Supplied by the workload or the harness under the metric's name.
    Derived,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub src: Src,
}

const fn t(name: &'static str, unit: &'static str, src: Src) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        src,
    }
}

const fn up(name: &'static str, unit: &'static str, src: Src) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
        src,
    }
}

pub const PER_LAYER: &[Layer] = &[
    // rda_db
    t(
        "db.snapshot.freeze_ms",
        "ms",
        Src::P50("db.snapshot.freeze"),
    ),
    t(
        "db.snapshot.freeze_delta_ms",
        "ms",
        Src::P50("db.snapshot.freeze_delta"),
    ),
    t(
        "db.persist.append_delta_ms",
        "ms",
        Src::P50("db.persist.append_delta"),
    ),
    t("db.persist.save_ms", "ms", Src::P50("db.persist.save")),
    t("db.persist.load_ms", "ms", Src::P50("db.persist.load")),
    t(
        "db.database.mutate_ms",
        "ms",
        Src::P50("db.database.mutate"),
    ),
    t("db.persist.file_bytes", "bytes", Src::Derived),
    t(
        "db.snapshot.encodes_per_dirty_relation",
        "ratio",
        Src::Derived,
    ),
    t("db.dict.len", "count", Src::Derived),
    // rda_query
    t(
        "query.parser.parse_us",
        "us",
        Src::P50("query.parser.parse"),
    ),
    t(
        "query.classify.classify_us",
        "us",
        Src::P50("query.classify.classify"),
    ),
    // rda_core: builds and the engine
    t("core.lexda.build_ms", "ms", Src::P50("core.lexda.build")),
    t("core.sumda.build_ms", "ms", Src::P50("core.sumda.build")),
    t(
        "core.engine.prepare_miss_ms",
        "ms",
        Src::P50("core.engine.prepare_miss"),
    ),
    t(
        "core.engine.route_self_ms",
        "ms",
        Src::SelfP50("core.engine.prepare_miss"),
    ),
    t(
        "core.engine.prepare_hit_ns",
        "ns",
        Src::P50("core.engine.prepare_hit"),
    ),
    t(
        "core.engine.advance_ms",
        "ms",
        Src::P50("core.engine.advance"),
    ),
    t("core.engine.open_ms", "ms", Src::P50("core.engine.open")),
    up("core.engine.carried_share", "ratio", Src::Derived),
    t("core.engine.cache_miss_share", "ratio", Src::Derived),
    t(
        "core.window.first_page_us",
        "us",
        Src::P50("core.window.first_page"),
    ),
    // rda_core: access kernels
    t(
        "core.plan.access_ns",
        "ns",
        Src::PerUnit("core.plan.access"),
    ),
    t(
        "core.plan.access_product_ns",
        "ns",
        Src::PerUnit("core.plan.access_product"),
    ),
    t(
        "core.plan.access_fd_ns",
        "ns",
        Src::PerUnit("core.plan.access_fd"),
    ),
    t(
        "core.plan.access_sum_ns",
        "ns",
        Src::PerUnit("core.plan.access_sum"),
    ),
    t(
        "core.lexda.access_ns",
        "ns",
        Src::PerUnit("core.lexda.access"),
    ),
    t(
        "core.sumda.access_ns",
        "ns",
        Src::PerUnit("core.sumda.access"),
    ),
    t("core.plan.dispatch_self_ns", "ns", Src::Derived),
    t(
        "core.lexda.inverted_ns",
        "ns",
        Src::PerUnit("core.lexda.inverted"),
    ),
    t(
        "core.lexda.window_row_ns",
        "ns",
        Src::PerUnit("core.lexda.window"),
    ),
    t(
        "core.sumda.window_row_ns",
        "ns",
        Src::PerUnit("core.sumda.window"),
    ),
    t(
        "core.plan.window_row_ns",
        "ns",
        Src::PerUnit("core.plan.window"),
    ),
    t(
        "core.plan.batch_rank_ns",
        "ns",
        Src::PerUnit("core.plan.batch"),
    ),
    t(
        "core.lexda.batch_scattered_rank_ns",
        "ns",
        Src::PerUnit("core.lexda.batch_scattered"),
    ),
    t(
        "core.lexda.batch_dense_rank_ns",
        "ns",
        Src::PerUnit("core.lexda.batch_dense"),
    ),
    t("core.lexda.batch_vs_single", "ratio", Src::Derived),
    t(
        "core.lexsel.select_ms",
        "ms",
        Src::P50("core.lexsel.select"),
    ),
    t(
        "core.sumsel.select_ms",
        "ms",
        Src::P50("core.sumsel.select"),
    ),
    // rda_orderstat
    t(
        "orderstat.weighted.select_us",
        "us",
        Src::P50("orderstat.weighted.select"),
    ),
    // rda_serve
    t(
        "serve.session.prepare_us",
        "us",
        Src::P50("serve.session.prepare"),
    ),
    t(
        "serve.session.page_us",
        "us",
        Src::P50("serve.session.page"),
    ),
    t(
        "serve.session.page_p99_us",
        "us",
        Src::P99("serve.session.page"),
    ),
    t(
        "serve.session.stream_next_us",
        "us",
        Src::P50("serve.session.stream_next"),
    ),
    t(
        "serve.session.page_batch_us",
        "us",
        Src::P50("serve.session.page_batch"),
    ),
    t(
        "serve.cursor.decode_ns",
        "ns",
        Src::P50("serve.cursor.decode"),
    ),
    t(
        "serve.cursor.encode_ns",
        "ns",
        Src::P50("serve.cursor.encode"),
    ),
    t(
        "serve.server.hop_self_us",
        "us",
        Src::SelfP50("serve.session.page"),
    ),
    t("serve.server.stale_share", "ratio", Src::Derived),
    up("serve.server.clean_resume_share", "ratio", Src::Derived),
    up("serve.server.admitted", "count", Src::Derived),
    t("serve.server.overloaded", "count", Src::Derived),
    t("serve.server.deadline_expired", "count", Src::Derived),
    // whole-op spans of the harness
    t("bench.first_page_ms", "ms", Src::P50("bench.first_page")),
    t("bench.select_ms", "ms", Src::P50("bench.select")),
    t("bench.cold_open_ms", "ms", Src::P50("bench.cold_open")),
    t("bench.write_ms", "ms", Src::P50("bench.write")),
    t("bench.stale_retry_ms", "ms", Src::P50("bench.stale_retry")),
    // rda_baseline and the host
    up("baseline.oracle_rows_checked", "count", Src::Derived),
    t("host.calib_ns", "ns", Src::Derived),
    up("host.parallelism", "count", Src::Derived),
    t("trace_overhead_share", "ratio", Src::Derived),
];

/// Nanoseconds per one of `unit`.
fn ns_per(unit: &str) -> f64 {
    match unit {
        "ms" => 1e6,
        "us" => 1e3,
        _ => 1.0,
    }
}

/// Every `PER_LAYER` metric, from the span statistics and the derived
/// figures of one traced run.
pub fn per_layer(names: &[NameStats], derived: &[(&'static str, f64)]) -> Vec<Metric> {
    let span = |name: &str| names.iter().find(|n| n.name == name);
    PER_LAYER
        .iter()
        .map(|l| {
            let (value, samples) = match l.src {
                Src::P50(s) => span(s).map_or((0.0, 0), |n| (n.p50_ns, n.calls)),
                Src::PerUnit(s) => span(s).map_or((0.0, 0), |n| (n.per_unit_p50_ns, n.calls)),
                Src::P99(s) => span(s).map_or((0.0, 0), |n| (n.p99_ns, n.calls)),
                Src::SelfP50(s) => span(s).map_or((0.0, 0), |n| (n.self_p50_ns, n.calls)),
                Src::Derived => derived
                    .iter()
                    .find(|(name, _)| *name == l.name)
                    .map_or((0.0, 0), |(_, v)| (*v, 1)),
            };
            let scale = match l.src {
                Src::Derived => 1.0,
                _ => ns_per(l.unit),
            };
            Metric {
                name: l.name.to_string(),
                unit: l.unit.to_string(),
                value: value / scale,
                spread: 0.0,
                samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand-off from `rdabench manifest`;
    /// this fails when the file and the tables drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            crate::manifest(),
            "regenerate with `rdabench manifest`"
        );
    }

    #[test]
    fn per_layer_reads_zero_for_calls_never_made() {
        let out = per_layer(&[], &[("host.parallelism", 2.0)]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(out
            .iter()
            .all(|m| m.value == 0.0 || m.name == "host.parallelism"));
    }
}
