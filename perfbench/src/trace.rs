//! The traced run: the benchmark's own spans around every layer call, the
//! existing JSONL sink, and per-layer self time from the rebuilt span tree
//! (the same tree `obs trace-view` renders).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lash_obs::{tree, validate, EventSink, FileSink};

/// Span names whose own self time is reported on its own, beside the
/// per-layer totals: the program's spans that split `mine_s` and
/// `refresh_s`.
pub const SPANS: &[&str] = &[
    "mapreduce.map_task",
    "mapreduce.reduce_task",
    "mapreduce.merge",
    "mine.partition",
    "mine.flist",
    "store.scan.shard",
    "store.compact.round",
    "index.build",
    "serve.refresh",
    "serve.batch",
    "query.request",
];

/// Layers whose self time is reported, keyed by the first component of a
/// span name (`bench.<layer>.*` spans count toward `<layer>`).
pub const LAYERS: &[&str] = &["store", "mapreduce", "core", "index", "serve"];

/// The layer a span name belongs to.
fn layer_of(name: &str) -> Option<&'static str> {
    let name = name.strip_prefix("bench.").unwrap_or(name);
    let head = name.split('.').next().unwrap_or("");
    match head {
        "store" => Some("store"),
        "mapreduce" => Some("mapreduce"),
        "mine" | "core" => Some("core"),
        "index" | "query" => Some("index"),
        "serve" => Some("serve"),
        _ => None,
    }
}

/// Tracing switch for one run: when on, layer calls are wrapped in
/// `bench.*` spans and events go to a JSONL file in the run directory.
pub struct Tracer {
    sink: Option<(PathBuf, Arc<FileSink>)>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// Installs a JSONL file sink at `path` on the global registry.
    pub fn on(path: &Path) -> std::io::Result<Tracer> {
        let sink = Arc::new(FileSink::append_with_counter(
            path,
            lash_obs::global().counter("obs.sink.dropped_lines"),
        )?);
        lash_obs::global().set_sink(Some(sink.clone() as Arc<dyn EventSink>));
        Ok(Tracer {
            sink: Some((path.to_path_buf(), sink)),
        })
    }

    /// Whether this run traces.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Detaches (`false`) or re-attaches (`true`) the sink, for the
    /// interleaved untraced/traced passes that measure tracing overhead.
    pub fn attach(&self, on: bool) {
        if let Some((_, sink)) = &self.sink {
            let sink = on.then(|| sink.clone() as Arc<dyn EventSink>);
            lash_obs::global().set_sink(sink);
        }
    }

    /// Runs `f` as one layer call: timed from outside and, when tracing,
    /// inside a `bench.<layer>.<op>` span.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let _span =
            (self.enabled() && lash_obs::global().sink_installed()).then(|| lash_obs::span!(name));
        let started = Instant::now();
        let out = f();
        (out, started.elapsed())
    }

    /// Flushes and detaches the sink, then sums self time per layer and per
    /// reported span name over every trace in the file (milliseconds).
    pub fn self_times(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut out = BTreeMap::new();
        for layer in LAYERS {
            out.insert(format!("self_ms.{layer}"), 0.0);
        }
        for span in SPANS {
            out.insert(format!("self_ms.span.{span}"), 0.0);
        }
        let Some((path, sink)) = &self.sink else {
            return Ok(out);
        };
        lash_obs::global().set_sink(None);
        sink.flush();
        let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
        let (events, _) = validate::validate_str_schema_only(&text)?;
        for trace in tree::build_forest(&events) {
            for (i, node) in trace.nodes.iter().enumerate() {
                let ms = trace.self_us(i) as f64 / 1e3;
                if let Some(layer) = layer_of(&node.name) {
                    *out.entry(format!("self_ms.{layer}")).or_default() += ms;
                }
                if SPANS.contains(&node.name.as_str()) {
                    *out.entry(format!("self_ms.span.{}", node.name))
                        .or_default() += ms;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_follow_span_prefixes() {
        assert_eq!(layer_of("bench.store.open"), Some("store"));
        assert_eq!(layer_of("mine.partition"), Some("core"));
        assert_eq!(layer_of("query.request"), Some("index"));
        assert_eq!(layer_of("mapreduce.map_task"), Some("mapreduce"));
        assert_eq!(layer_of("serve.batch"), Some("serve"));
        assert_eq!(layer_of("bench.loadgen"), None);
    }
}
