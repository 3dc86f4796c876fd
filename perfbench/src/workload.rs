//! The three workloads and the inputs they generate from a seed.
//!
//! Input generation is benchmark work: it may call the workspace's
//! generators (they are how the repository defines its stand-in graphs), but
//! it is never timed, and the program under test receives only the edge list
//! and the queries.

use crate::reference::RawEdge;
use crate::stats::SplitMix;
use rlc_core::Query;
use rlc_graph::generate::{erdos_renyi, SyntheticConfig};
use rlc_graph::{Label, LabeledGraph};
use rlc_workloads::datasets::dataset_by_code;
use rlc_workloads::querygen::{generate_query_set, QueryGenConfig};

/// The recursive `k` every workload builds with (the paper's default).
pub const K: usize = 2;

/// Names accepted by `--workload`, in run order.
pub const NAMES: [&str; 3] = ["paper-rlc", "concat-reuse", "sharded-reload"];

/// What a workload serves and how it is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Shards of the served `ShardedIndex`; `0` serves a plain `RlcIndex`.
    pub shards: usize,
    /// Reload at a fixed cadence during the open-loop phase, rather than in
    /// an idle phase of its own.
    pub reload_under_load: bool,
    /// Queries per `BatchPlan` batch.
    pub batch: usize,
}

/// The spec of workload `name`, or `None` for an unknown name.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "paper-rlc" => Spec {
            name: "paper-rlc",
            shards: 0,
            reload_under_load: false,
            batch: 2000,
        },
        "concat-reuse" => Spec {
            name: "concat-reuse",
            shards: 0,
            reload_under_load: false,
            batch: 256,
        },
        "sharded-reload" => Spec {
            name: "sharded-reload",
            shards: 4,
            reload_under_load: true,
            batch: 256,
        },
        _ => return None,
    };
    Some(spec)
}

/// Generated inputs of one run.
pub struct Inputs {
    /// Vertex count of the graph.
    pub vertices: usize,
    /// Label alphabet size `|L|`.
    pub labels: usize,
    /// The graph's edges, `(source, label, target)`.
    pub edges: Vec<RawEdge>,
    /// The workload's queries, in submission order.
    pub queries: Vec<Query>,
}

/// Table III stand-in of `paper-rlc`: Advogato (AD), the catalog's smallest
/// real graph, at a tenth of its size (600 vertices, ~5.5k edges with self
/// loops), so that one sequential build takes a few tenths of a second.
const PAPER_DATASET: &str = "AD";

/// Concatenated constraints of `concat-reuse` with their draw weights:
/// mostly two- and three-block concatenations (Q4 of §VI-C) and two single
/// blocks. Weights are skewed so a few constraints dominate.
const CONCAT_POOL: [(&[&[u16]], u32); 8] = [
    (&[&[0], &[1]], 30),
    (&[&[0, 1], &[2]], 20),
    (&[&[1], &[2], &[0]], 14),
    (&[&[2, 0], &[1]], 10),
    (&[&[0], &[1, 2], &[0]], 8),
    (&[&[1], &[0]], 7),
    (&[&[0, 2]], 6),
    (&[&[1]], 5),
];

/// Mixed constraints of `sharded-reload`: half single blocks, half
/// two-block concatenations, so both stitcher paths are exercised.
const SHARDED_POOL: [(&[&[u16]], u32); 6] = [
    (&[&[0]], 20),
    (&[&[1]], 10),
    (&[&[0, 1]], 10),
    (&[&[2, 0]], 10),
    (&[&[0], &[1]], 30),
    (&[&[1, 2], &[0]], 20),
];

/// Sizes of one workload: the full benchmark or the seconds-long smoke run
/// the benchmark's own tests use.
#[derive(Debug, Clone, Copy)]
struct Size {
    scale: f64,
    vertices: usize,
    degree: f64,
    labels: usize,
    queries: usize,
    hot_sources: usize,
}

fn size(name: &str, smoke: bool) -> Size {
    match (name, smoke) {
        ("paper-rlc", false) => Size {
            scale: 0.1,
            vertices: 0,
            degree: 0.0,
            labels: 0,
            queries: 1000,
            hot_sources: 0,
        },
        ("paper-rlc", true) => Size {
            scale: 0.02,
            vertices: 0,
            degree: 0.0,
            labels: 0,
            queries: 40,
            hot_sources: 0,
        },
        ("concat-reuse", false) => Size {
            scale: 1.0,
            vertices: 10_000,
            degree: 3.0,
            labels: 3,
            queries: 1024,
            hot_sources: 16,
        },
        ("concat-reuse", true) => Size {
            scale: 1.0,
            vertices: 600,
            degree: 3.0,
            labels: 3,
            queries: 128,
            hot_sources: 8,
        },
        ("sharded-reload", false) => Size {
            scale: 1.0,
            vertices: 6_000,
            degree: 2.0,
            labels: 3,
            queries: 1024,
            hot_sources: 0,
        },
        (_, _) => Size {
            scale: 1.0,
            vertices: 400,
            degree: 2.0,
            labels: 3,
            queries: 128,
            hot_sources: 0,
        },
    }
}

/// Share of `concat-reuse` queries whose source is drawn from the hot set.
pub const HOT_SHARE: f64 = 0.8;

/// Generates the inputs of workload `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64, smoke: bool) -> Inputs {
    let size = size(spec.name, smoke);
    let mut rng = SplitMix::new(seed);
    let (graph, queries) = match spec.name {
        "paper-rlc" => {
            let dataset = dataset_by_code(PAPER_DATASET).expect("AD is in the Table III catalog");
            let graph = dataset.generate(size.scale, seed);
            // §VI: |constraint| = 2, half true and half false queries.
            let set = generate_query_set(
                &graph,
                &QueryGenConfig::small(size.queries, size.queries, 2, seed),
            );
            let mut queries: Vec<Query> = set
                .iter()
                .map(|(q, _)| {
                    Query::rlc(q.source, q.target, q.constraint.clone())
                        .expect("generated constraints are non-empty")
                })
                .collect();
            shuffle(&mut queries, &mut rng);
            (graph, queries)
        }
        _ => {
            let graph = erdos_renyi(&SyntheticConfig::new(
                size.vertices,
                size.degree,
                size.labels,
                seed,
            ));
            let pool: &[(&[&[u16]], u32)] = if spec.name == "concat-reuse" {
                &CONCAT_POOL
            } else {
                &SHARDED_POOL
            };
            let n = graph.vertex_count() as u64;
            let hot: Vec<u32> = (0..size.hot_sources).map(|_| rng.below(n) as u32).collect();
            let total: u32 = pool.iter().map(|(_, w)| w).sum();
            let queries = (0..size.queries)
                .map(|_| {
                    let mut pick = rng.below(u64::from(total)) as u32;
                    let blocks = pool
                        .iter()
                        .find(|(_, w)| {
                            let found = pick < *w;
                            pick = pick.saturating_sub(*w);
                            found
                        })
                        .map_or(pool[0].0, |(b, _)| *b);
                    let source = if !hot.is_empty() && rng.unit() < HOT_SHARE {
                        hot[rng.below(hot.len() as u64) as usize]
                    } else {
                        rng.below(n) as u32
                    };
                    let target = rng.below(n) as u32;
                    let blocks: Vec<Vec<Label>> = blocks
                        .iter()
                        .map(|b| b.iter().map(|&l| Label(l)).collect())
                        .collect();
                    Query::concat(source, target, blocks).expect("pool constraints are valid")
                })
                .collect();
            (graph, queries)
        }
    };
    Inputs {
        vertices: graph.vertex_count(),
        labels: graph.label_count(),
        edges: raw_edges(&graph),
        queries,
    }
}

/// The edge list of `graph` in its own edge order.
fn raw_edges(graph: &LabeledGraph) -> Vec<RawEdge> {
    graph
        .edges()
        .map(|e| (e.source, e.label.index() as u16, e.target))
        .collect()
}

/// Fisher–Yates shuffle driven by the workload's generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The blocks of `query` as raw label ids, the reference evaluator's form.
pub fn raw_blocks(query: &Query) -> Vec<Vec<u16>> {
    query
        .constraint()
        .blocks()
        .iter()
        .map(|b| b.iter().map(|l| l.index() as u16).collect())
        .collect()
}
