//! Trace-fixture test for fork-join span parenting (ROADMAP item): spans
//! opened on `par_map` / `OwnerPool::par_map_mut` worker threads must
//! parent onto the fan-out span, so a traced run folds into one tree
//! instead of a forest with one root per worker thread.
//!
//! Integration test on purpose: it installs a process-global NDJSON sink,
//! and `tests/` binaries run in their own process, so no other test's
//! events can leak into the capture.

use std::collections::HashMap;
use std::sync::Mutex;

use navarchos_core::{par_map, OwnerPool};
use navarchos_obs as obs;
use navarchos_obs::SpanClose;

/// The sink is process-global, so tests in this binary must not overlap.
/// (Ignore poisoning: a failed test must not cascade into the others.)
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `work` with an NDJSON sink installed, returns the captured span
/// closes keyed by id.
fn capture_spans(tag: &str, work: impl FnOnce()) -> HashMap<u64, SpanClose> {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join("navarchos-trace-parenting");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.ndjson"));
    let sink = obs::NdjsonSink::create(&path).expect("create trace sink");
    obs::set_sink(std::sync::Arc::new(sink));
    work();
    obs::set_events_enabled(false);
    obs::set_sink(std::sync::Arc::new(obs::NullSink));
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    text.lines()
        .filter_map(|l| obs::parse_line(l).ok())
        .filter_map(|e| SpanClose::from_event(&e))
        .map(|s| (s.id, s))
        .collect()
}

fn spans_named<'a>(spans: &'a HashMap<u64, SpanClose>, name: &str) -> Vec<&'a SpanClose> {
    spans.values().filter(|s| s.name == name).collect()
}

#[test]
fn par_map_worker_spans_parent_onto_the_fanout_span() {
    let spans = capture_spans("par_map", || {
        let _root = obs::span("evaluate");
        let items: Vec<usize> = (0..32).collect();
        let _ = par_map(&items, |_, &x| {
            let _inner = obs::span("score_vehicle");
            x * 2
        });
    });

    let root = spans_named(&spans, "evaluate");
    assert_eq!(root.len(), 1, "exactly one root span");
    let fanout = spans_named(&spans, "par_map");
    assert_eq!(fanout.len(), 1, "exactly one par_map span");
    assert_eq!(fanout[0].parent, Some(root[0].id), "par_map nests under the caller");

    let workers = spans_named(&spans, "par_map.worker");
    assert!(!workers.is_empty(), "workers must open spans");
    for w in &workers {
        assert_eq!(
            w.parent,
            Some(fanout[0].id),
            "worker span {} must inherit the par_map span as parent",
            w.id
        );
    }
    let worker_ids: Vec<u64> = workers.iter().map(|w| w.id).collect();
    let inner = spans_named(&spans, "score_vehicle");
    assert_eq!(inner.len(), 32, "one span per item");
    for s in &inner {
        let parent = s.parent.expect("inner spans must have a parent");
        assert!(
            worker_ids.contains(&parent),
            "span {} parents onto {parent}, which is not a worker span",
            s.id
        );
    }
}

#[test]
fn par_map_mut_worker_spans_parent_onto_the_fanout_span() {
    // Two calls on one pool: the second runs on workers that already
    // exist, and must still parent onto its own fan-out span.
    let spans = capture_spans("par_map_mut", || {
        let _root = obs::span("ingest");
        let mut pool = OwnerPool::new();
        let mut shards: Vec<u64> = (0..8).collect();
        for _ in 0..2 {
            let _ = pool.par_map_mut(&mut shards, |_, shard| {
                let _inner = obs::span("shard_drain");
                *shard += 1;
                *shard
            });
        }
    });

    let root = spans_named(&spans, "ingest");
    let fanout = spans_named(&spans, "par_map_mut");
    assert_eq!(fanout.len(), 2, "one fan-out span per call");
    let fanout_ids: Vec<u64> = fanout.iter().map(|f| f.id).collect();
    for f in &fanout {
        assert_eq!(f.parent, Some(root[0].id));
    }
    let workers = spans_named(&spans, "par_map.worker");
    assert!(!workers.is_empty());
    for &id in &fanout_ids {
        let chunks = workers.iter().filter(|w| w.parent == Some(id)).count();
        assert_eq!(chunks * 2, workers.len(), "each call parents its own chunks");
    }
    let worker_ids: Vec<u64> = workers.iter().map(|w| w.id).collect();
    let inner = spans_named(&spans, "shard_drain");
    assert_eq!(inner.len(), 16, "one span per item per call");
    for s in inner {
        assert!(worker_ids.contains(&s.parent.expect("parented")));
    }
}

#[test]
fn traced_fanout_folds_into_one_tree() {
    // The flamegraph consequence of parenting: every folded stack of a
    // traced fan-out starts at the single root frame.
    let _guard = SINK_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join("navarchos-trace-parenting");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("fold.ndjson");
    let sink = obs::NdjsonSink::create(&path).expect("create trace sink");
    obs::set_sink(std::sync::Arc::new(sink));
    {
        let _root = obs::span("evaluate");
        let items: Vec<usize> = (0..16).collect();
        let _ = par_map(&items, |_, &x| {
            let _inner = obs::span("score_vehicle");
            x + 1
        });
    }
    obs::set_events_enabled(false);
    obs::set_sink(std::sync::Arc::new(obs::NullSink));
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();

    let (folded, _skipped) = obs::fold_trace(&text).expect("fold");
    assert!(!folded.is_empty());
    for (stack, _) in &folded {
        assert!(
            stack == "evaluate" || stack.starts_with("evaluate;"),
            "stack `{stack}` is not rooted at the single root span"
        );
    }
    // And the deep stack exists: root → fan-out → worker → item.
    assert!(
        folded.iter().any(|(s, _)| s == "evaluate;par_map;par_map.worker;score_vehicle"),
        "expected the full four-deep stack, got {folded:?}"
    );
}
