//! One benchmark run: generate inputs, set up, then sample every timed
//! phase in interleaved rounds until the run's time is up.
//!
//! A round runs, in this order: the build at 1 worker, the build at
//! `nproc` workers, a slice of direct queries, a slice of planned batches,
//! an open-loop chunk against the server, a closed-loop slice, and (on
//! workloads that reload while idle) one reload. A slow spell of the shared
//! host therefore lands on every metric alike, and each metric is the
//! median over rounds (latency percentiles pool the open-loop requests of
//! all rounds).

use crate::client::{self, ReloadRun, Reply, Timed};
use crate::reference::Reference;
use crate::stats::{self, median, percentile, us};
use crate::trace::Tracer;
use crate::workload::{self, Inputs, Spec, K};
use rlc_core::engine::{IndexEngine, ReachabilityEngine};
use rlc_core::{build_index, prefix_frontier, BatchPlan, BuildConfig, BuildStats, PlanCache};
use rlc_core::{Query, RlcIndex};
use rlc_graph::{GraphBuilder, Label, LabeledGraph};
use rlc_obs::HistogramSnapshot;
use rlc_serve::{Counter, Epoch, ServeConfig, Server};
use rlc_shard::{ShardBuildConfig, ShardedEngine, ShardedIndex};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, the same on every workload and
/// well under the lowest closed-loop throughput of any of them.
pub const OPEN_RATE: f64 = 150.0;
/// Requests per open-loop chunk (one chunk per round).
const OPEN_CHUNK: usize = 75;
/// Wall time of one direct-query or planned-batch slice.
const SLICE: Duration = Duration::from_millis(80);
/// Wall time of one closed-loop slice.
const CLOSED_SPAN: Duration = Duration::from_millis(150);
/// Reload cadence during the open loop of `sharded-reload`.
pub const RELOAD_EVERY: Duration = Duration::from_millis(100);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds every run makes, however short its time.
const MIN_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Open-loop offered rate per second ([`OPEN_RATE`] in the benchmark;
    /// other values serve the reference latency-at-rate figures).
    pub rate: f64,
    /// Seconds-long input sizes for the benchmark's own tests.
    pub smoke: bool,
    /// Where the traced run writes its spans; `None` writes nothing.
    pub trace_dir: Option<std::path::PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No answer differed from the reference and every property held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (an engine error, a non-200 response, a
    /// failed reload).
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Facts about the host and the run, as one JSON object.
    pub facts: String,
    /// The first few problems found, for the log.
    pub problems: Vec<String>,
}

/// The served index of a workload.
#[derive(Clone)]
enum Built {
    Rlc(Arc<RlcIndex>, BuildStats),
    Sharded(Arc<ShardedIndex>, Vec<BuildStats>),
}

impl Built {
    fn encode(&self) -> Vec<u8> {
        match self {
            Built::Rlc(index, _) => index.to_bytes(),
            Built::Sharded(index, _) => index.to_bytes(),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Built::Rlc(index, _) => index.memory_bytes(),
            Built::Sharded(index, _) => index.memory_bytes(),
        }
    }

    fn csr_bytes(&self) -> usize {
        match self {
            Built::Rlc(index, _) => index.csr_memory_bytes(),
            Built::Sharded(index, _) => (0..index.shard_count())
                .map(|s| index.shard(s).index().csr_memory_bytes())
                .sum(),
        }
    }

    fn entries(&self) -> usize {
        match self {
            Built::Rlc(index, _) => index.entry_count(),
            Built::Sharded(index, _) => (0..index.shard_count())
                .map(|s| index.shard(s).index().entry_count())
                .sum(),
        }
    }

    /// `(insert attempts, inserted, kernel-BFS runs)`, summed over shards.
    fn build_counts(&self) -> (u64, u64, u64) {
        let all: Vec<&BuildStats> = match self {
            Built::Rlc(_, stats) => vec![stats],
            Built::Sharded(_, stats) => stats.iter().collect(),
        };
        all.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.insert_attempts,
                acc.1 + s.inserted,
                acc.2 + s.kernel_bfs_runs,
            )
        })
    }

    fn epoch(&self, graph: &Arc<LabeledGraph>) -> Epoch {
        match self {
            Built::Rlc(index, _) => Epoch::rlc(Arc::clone(graph), (**index).clone()),
            Built::Sharded(index, _) => Epoch::sharded(Arc::clone(graph), (**index).clone()),
        }
    }

    fn with_engine<R>(
        &self,
        graph: &LabeledGraph,
        f: impl FnOnce(&dyn ReachabilityEngine) -> R,
    ) -> R {
        match self {
            Built::Rlc(index, _) => f(&IndexEngine::new(graph, index)),
            Built::Sharded(index, _) => f(&ShardedEngine::new(graph, index)),
        }
    }
}

/// Builds the workload's index on a pool of `workers` threads: the plain
/// index with `with_threads(workers)` (sequential at one worker), the
/// sharded index with `ShardedIndex::build` inside the pool.
fn build(
    graph: &LabeledGraph,
    spec: &Spec,
    pool: &rayon::ThreadPool,
    workers: usize,
) -> Result<Built, String> {
    pool.install(|| {
        if spec.shards == 0 {
            let config = if workers <= 1 {
                BuildConfig::new(K)
            } else {
                BuildConfig::new(K).with_threads(workers)
            };
            let (index, stats) = build_index(graph, &config);
            Ok(Built::Rlc(Arc::new(index), stats))
        } else {
            let (index, stats) =
                ShardedIndex::build(graph, &ShardBuildConfig::new(K, spec.shards))?;
            Ok(Built::Sharded(Arc::new(index), stats))
        }
    })
}

/// Decodes a blob of the workload's index kind.
fn decode(spec: &Spec, blob: &[u8], graph: &LabeledGraph) -> Result<Built, String> {
    if spec.shards == 0 {
        Ok(Built::Rlc(
            Arc::new(RlcIndex::from_bytes(blob)?),
            BuildStats::default(),
        ))
    } else {
        Ok(Built::Sharded(
            Arc::new(ShardedIndex::from_bytes(blob, graph)?),
            Vec::new(),
        ))
    }
}

/// The program's graph, built from the generated edge list.
fn make_graph(inputs: &Inputs) -> LabeledGraph {
    let mut builder = GraphBuilder::with_capacity(inputs.vertices, inputs.labels);
    for &(s, l, t) in &inputs.edges {
        builder.add_edge(s, Label(l), t);
    }
    builder.build()
}

/// Answer and failure bookkeeping shared by every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    fn check(&mut self, what: &str, query: usize, got: Result<bool, String>, expected: &[bool]) {
        self.attempted += 1;
        match got {
            Ok(answer) if answer == expected[query] => {}
            Ok(answer) => {
                self.wrong += 1;
                self.problem(format!(
                    "{what}: query {query} answered {answer}, reference says {}",
                    expected[query]
                ));
            }
            Err(error) => {
                self.failed += 1;
                self.problem(format!("{what}: query {query} failed: {error}"));
            }
        }
    }

    fn check_reply(&mut self, what: &str, query: usize, reply: &Reply, expected: &[bool]) {
        let got = match (reply.status, reply.answer) {
            (200, Some(answer)) => Ok(answer),
            (status, _) => Err(format!("status {status}")),
        };
        self.check(what, query, got, expected);
    }
}

/// Samples of the timed phases.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    build_par_s: Vec<f64>,
    query_qps: Vec<f64>,
    batch_qps: Vec<f64>,
    plan_1w_qps: Vec<f64>,
    open: Vec<Timed>,
    open_p50_us: Vec<f64>,
    closed_qps: Vec<f64>,
    reload_ms: Vec<f64>,
    post_reload_us: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    plan_new_us: Vec<f64>,
    untraced_unit_s: Vec<f64>,
    traced_unit_s: Vec<f64>,
}

/// Everything a round needs.
struct Bench<'a> {
    spec: Spec,
    opts: &'a Options,
    inputs: &'a Inputs,
    expected: &'a [bool],
    graph: Arc<LabeledGraph>,
    served: Built,
    blob: Vec<u8>,
    server: Server,
    addr: SocketAddr,
    bodies: Vec<Vec<u8>>,
    cache: PlanCache,
    pool1: rayon::ThreadPool,
    pooln: rayon::ThreadPool,
    workers: usize,
    tracer: Tracer,
    tally: Tally,
    samples: Samples,
    cursor: usize,
    open_cursor: usize,
}

fn pool(workers: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))
}

fn server_config(workers: usize) -> ServeConfig {
    ServeConfig {
        threads: workers,
        port: 0,
        ..ServeConfig::default()
    }
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = workload::spec(&opts.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            opts.workload,
            workload::NAMES
        )
    })?;
    let workers = stats::nproc();
    let steal_before = stats::steal_ticks();
    if opts.trace {
        rlc_obs::set_global_enabled(true);
    }

    // Inputs and the reference answers: benchmark work, never timed.
    let inputs = workload::generate(&spec, opts.seed, opts.smoke);
    let raw: Vec<(u32, u32, Vec<Vec<u16>>)> = inputs
        .queries
        .iter()
        .map(|q| (q.source, q.target, workload::raw_blocks(q)))
        .collect();
    let expected = Reference::new(inputs.vertices, &inputs.edges).answers(&raw);
    drop(raw);
    let bodies: Vec<Vec<u8>> = inputs.queries.iter().map(client::encode_query).collect();

    // Set-up, repeated: graph from edges, first build, server start until
    // the first answered request. The last set-up's server stays up.
    let tracer = Tracer::new(opts.trace);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let (graph, served, server) = tracer.span("setup", 0, |id| -> Result<_, String> {
            let graph = Arc::new(tracer.span("graph.from_edges", id, |_| make_graph(&inputs)));
            let served = tracer.span("build.first", id, |_| -> Result<Built, String> {
                if spec.shards == 0 {
                    let (index, stats) = build_index(&graph, &BuildConfig::new(K));
                    Ok(Built::Rlc(Arc::new(index), stats))
                } else {
                    let (index, stats) =
                        ShardedIndex::build(&graph, &ShardBuildConfig::new(K, spec.shards))?;
                    Ok(Built::Sharded(Arc::new(index), stats))
                }
            })?;
            let server = tracer.span("serve.start", id, |_| {
                Server::start(server_config(workers), served.epoch(&graph))
                    .map_err(|e| format!("server start: {e}"))
            })?;
            let reply = tracer.span("serve.first_request", id, |_| {
                client::exchange(server.addr(), "POST", "/query", &bodies[0])
            });
            tally.check_reply("setup request", 0, &reply, &expected);
            Ok((graph, served, server))
        })?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, _, old)) = kept.replace((graph, served, server)) {
            let old: Server = old;
            old.shutdown();
        }
    }
    let Some((graph, served, server)) = kept else {
        return Err("no set-up ran".to_owned());
    };
    let blob = served.encode();
    let addr = server.addr();
    let mut bench = Bench {
        spec,
        opts,
        inputs: &inputs,
        expected: &expected,
        graph,
        served,
        blob,
        server,
        addr,
        bodies,
        cache: PlanCache::new(),
        pool1: pool(1)?,
        pooln: pool(workers)?,
        workers,
        tracer,
        tally,
        samples: Samples {
            setup_s,
            ..Samples::default()
        },
        cursor: 0,
        open_cursor: 0,
    };

    let hist_before = registry_hists();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < opts.seconds {
        bench.round(rounds)?;
        rounds += 1;
    }
    let hist_after = registry_hists();
    let metrics_text = client::get(bench.addr, "/metrics").1;
    let steal = stats::steal_ticks().saturating_sub(steal_before);

    let lags: Vec<f64> = bench.samples.open.iter().map(|t| us(t.lag)).collect();
    let lag_p99 = percentile(&lags, 99.0);
    let open: Vec<f64> = bench.samples.open.iter().map(|t| us(t.latency)).collect();
    let (kernel, name, seed) = (rlc_core::kernel_name(), spec.name, opts.seed);
    let (requests, serve_p99) = (open.len(), percentile(&open, 99.0));
    let facts = format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"nproc\":{workers},\"kernel\":\"{kernel}\",\"build_workers\":[1,{workers}],\"batch_workers\":{workers},\"server_threads\":{workers},\"open_clients\":{workers},\"closed_clients\":{workers},\"rounds\":{rounds},\"steal_ticks\":{steal},\"generator_lag_p99_us\":{lag_p99:.1},\"open_requests\":{requests},\"serve_p99_us\":{serve_p99:.1}}}"
    );

    {
        let s = &bench.samples;
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        eprintln!(
            "samples {{\"build_s\":[{}],\"build_par_s\":[{}],\"query_qps\":[{}],\"batch_qps\":[{}],\"open_p50_us\":[{}],\"closed_qps\":[{}],\"reload_ms\":[{}]}}",
            list(&s.build_s),
            list(&s.build_par_s),
            list(&s.query_qps),
            list(&s.batch_qps),
            list(&s.open_p50_us),
            list(&s.closed_qps),
            list(&s.reload_ms)
        );
    }
    let metrics = if opts.trace {
        bench.per_layer(&hist_before, &hist_after, &metrics_text, lag_p99)?
    } else {
        bench.end_to_end()
    };
    if opts.trace {
        bench.write_trace();
    }
    let Bench { server, tally, .. } = bench;
    server.shutdown();
    Ok(Outcome {
        correct: tally.wrong == 0 && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        facts,
        problems: tally.problems,
    })
}

/// The registry histograms the per-layer metrics are read from.
const HISTS: [&str; 6] = [
    "rlc_build_explore_seconds",
    "rlc_build_merge_seconds",
    "rlc_plan_prepare_seconds",
    "rlc_plan_execute_seconds",
    "rlc_plan_scatter_seconds",
    "rlc_plan_cache_miss_seconds",
];

fn registry_hists() -> Vec<HistogramSnapshot> {
    HISTS
        .iter()
        .map(|name| rlc_obs::global().histogram(name).snapshot())
        .collect()
}

/// `(count, sum in ns)` of histogram `i` between two snapshots.
fn hist_delta(before: &[HistogramSnapshot], after: &[HistogramSnapshot], i: usize) -> (u64, f64) {
    (
        after[i].count - before[i].count,
        after[i].sum.wrapping_sub(before[i].sum) as f64,
    )
}

impl Bench<'_> {
    fn round(&mut self, n: usize) -> Result<(), String> {
        let tracer = std::mem::replace(&mut self.tracer, Tracer::new(false));
        let result = tracer.span("round", 0, |round| -> Result<(), String> {
            tracer.span("phase.build", round, |id| {
                self.build_and_check(&tracer, id, n % 2 == 1)
            })?;
            tracer.span("phase.direct", round, |_| self.direct_slice());
            tracer.span("phase.batch", round, |_| self.batch_slice(false));
            if self.opts.trace {
                tracer.span("phase.batch_1w", round, |_| self.batch_slice(true));
                self.overhead_unit(&tracer, round);
            }
            tracer.span("phase.open_loop", round, |_| self.open_chunk());
            tracer.span("phase.closed_loop", round, |_| self.closed_slice());
            if !self.spec.reload_under_load {
                tracer.span("phase.reload_idle", round, |_| self.reload());
            }
            Ok(())
        });
        self.tracer = tracer;
        result
    }

    /// One build, at 1 worker or at `nproc`; checks that it encodes
    /// byte-identically to the served index (so the 1-worker and the
    /// `nproc`-worker builds encode alike) and that decode(encode(index))
    /// re-encodes to the same bytes.
    fn build_and_check(
        &mut self,
        tracer: &Tracer,
        parent: u64,
        parallel: bool,
    ) -> Result<(), String> {
        let t = Instant::now();
        let built = if parallel {
            let built = tracer.span("build.par", parent, |_| {
                build(&self.graph, &self.spec, &self.pooln, self.workers)
            })?;
            self.samples.build_par_s.push(t.elapsed().as_secs_f64());
            built
        } else {
            let built = tracer.span("build.1w", parent, |_| {
                build(&self.graph, &self.spec, &self.pool1, 1)
            })?;
            self.samples.build_s.push(t.elapsed().as_secs_f64());
            built
        };
        self.tally.attempted += 1;

        let t = Instant::now();
        let bytes = tracer.span("codec.encode", parent, |_| built.encode());
        self.samples.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if bytes != self.blob {
            self.tally.wrong += 1;
            self.tally.problem(format!(
                "the {} build encodes differently from the served index",
                if parallel { "nproc-worker" } else { "1-worker" }
            ));
        }
        let t = Instant::now();
        let decoded = tracer.span("codec.decode", parent, |_| {
            decode(&self.spec, &bytes, &self.graph)
        })?;
        self.samples.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if decoded.encode() != bytes {
            self.tally.wrong += 1;
            self.tally
                .problem("decode(encode(index)) re-encodes differently".to_owned());
        }
        Ok(())
    }

    /// One query at a time through `ReachabilityEngine::evaluate`, 1 thread.
    fn direct_slice(&mut self) {
        let queries = &self.inputs.queries;
        let expected = self.expected;
        let mut cursor = self.cursor;
        let mut answers: Vec<(usize, Result<bool, String>)> = Vec::new();
        let (count, elapsed) = self.pool1.install(|| {
            self.served.with_engine(&self.graph, |engine| {
                let started = Instant::now();
                let mut count = 0usize;
                loop {
                    for _ in 0..16 {
                        let i = cursor % queries.len();
                        let got = engine.evaluate(&queries[i]);
                        if got.as_ref().ok() != Some(&expected[i]) {
                            answers.push((i, got.map_err(|e| e.to_string())));
                        }
                        cursor += 1;
                        count += 1;
                    }
                    let elapsed = started.elapsed();
                    if elapsed >= SLICE {
                        return (count, elapsed);
                    }
                }
            })
        });
        self.cursor = cursor;
        self.tally.attempted += (count - answers.len()) as u64;
        for (i, got) in answers {
            self.tally.check("direct", i, got, expected);
        }
        self.samples
            .query_qps
            .push(count as f64 / elapsed.as_secs_f64());
    }

    /// `BatchPlan::execute_cached` over the workload's batches, at `nproc`
    /// workers (or at one, for the planner's 1-worker figure).
    fn batch_slice(&mut self, one_worker: bool) {
        let queries = &self.inputs.queries;
        let batch = self.spec.batch.min(queries.len());
        let batches = queries.len().div_ceil(batch);
        let pool = if one_worker { &self.pool1 } else { &self.pooln };
        let mut results: Vec<(usize, Result<bool, String>)> = Vec::new();
        let mut new_us = Vec::new();
        let mut b = self.cursor;
        let (count, elapsed) = pool.install(|| {
            self.served.with_engine(&self.graph, |engine| {
                let started = Instant::now();
                let mut count = 0usize;
                while started.elapsed() < SLICE {
                    let first = (b % batches) * batch;
                    let slice = &queries[first..(first + batch).min(queries.len())];
                    let t = Instant::now();
                    let plan = BatchPlan::new(slice);
                    new_us.push(us(t.elapsed()));
                    let answers = plan.execute_cached(engine, &self.cache);
                    for (j, got) in answers.into_iter().enumerate() {
                        if got.as_ref().ok() != Some(&self.expected[first + j]) {
                            results.push((first + j, got.map_err(|e| e.to_string())));
                        }
                    }
                    count += slice.len();
                    b += 1;
                }
                (count, started.elapsed())
            })
        });
        self.tally.attempted += (count - results.len()) as u64;
        for (i, got) in results {
            self.tally.check("planned", i, got, self.expected);
        }
        let qps = count as f64 / elapsed.as_secs_f64();
        if one_worker {
            self.samples.plan_1w_qps.push(qps);
        } else {
            self.samples.batch_qps.push(qps);
            self.samples.plan_new_us.extend(new_us);
        }
    }

    /// The traced run's overhead probe: the same in-process work with the
    /// registry off and on.
    fn overhead_unit(&mut self, tracer: &Tracer, parent: u64) {
        let unit = |bench: &Bench<'_>| {
            let queries = &bench.inputs.queries;
            let started = Instant::now();
            bench.pool1.install(|| {
                bench.served.with_engine(&bench.graph, |engine| {
                    for q in queries.iter().take(64) {
                        let _ = engine.evaluate(q);
                    }
                    let batch = bench.spec.batch.min(queries.len());
                    let _ = BatchPlan::new(&queries[..batch]).execute_cached(engine, &bench.cache);
                })
            });
            started.elapsed().as_secs_f64()
        };
        rlc_obs::set_global_enabled(false);
        let off = unit(self);
        rlc_obs::set_global_enabled(true);
        let started = Instant::now();
        tracer.span("overhead.traced_unit", parent, |_| unit(self));
        let on = started.elapsed().as_secs_f64();
        self.samples.untraced_unit_s.push(off);
        self.samples.traced_unit_s.push(on);
    }

    /// One open-loop chunk; on `sharded-reload`, reloads take their slots
    /// in the same schedule at a fixed cadence.
    fn open_chunk(&mut self) {
        let first = self.open_cursor;
        self.open_cursor += OPEN_CHUNK;
        let rate = self.opts.rate;
        let every = ((rate * RELOAD_EVERY.as_secs_f64()).round() as usize).max(2);
        let reload = self
            .spec
            .reload_under_load
            .then_some((self.blob.as_slice(), every));
        let (timed, reloads) = client::open_loop(
            self.addr,
            &self.bodies,
            first,
            OPEN_CHUNK,
            rate,
            self.workers,
            reload,
        );
        for t in &timed {
            self.tally
                .check_reply("served (open loop)", t.query, &t.reply, self.expected);
        }
        let latencies: Vec<f64> = timed.iter().map(|t| us(t.latency)).collect();
        self.samples.open_p50_us.push(percentile(&latencies, 50.0));
        self.samples.open.extend(timed);
        for r in reloads {
            self.record_reload(r);
        }
    }

    fn closed_slice(&mut self) {
        let (replies, elapsed) = client::closed_loop(
            self.addr,
            &self.bodies,
            self.cursor,
            self.workers,
            CLOSED_SPAN,
        );
        for (query, reply) in &replies {
            self.tally
                .check_reply("served (closed loop)", *query, reply, self.expected);
        }
        self.samples
            .closed_qps
            .push(replies.len() as f64 / elapsed.as_secs_f64());
    }

    fn reload(&mut self) {
        let r = client::reload_once(self.addr, &self.blob, &self.bodies, self.cursor);
        self.record_reload(r);
    }

    fn record_reload(&mut self, r: ReloadRun) {
        self.tally.attempted += 1;
        if r.status != 200 {
            self.tally.failed += 1;
            self.tally
                .problem(format!("reload answered status {}", r.status));
            return;
        }
        self.tally.check_reply(
            "served (after reload)",
            r.probe_query,
            &r.probe,
            self.expected,
        );
        match (r.generation, r.probe.generation) {
            (Some(new), Some(seen)) if seen >= new => {
                self.samples.reload_ms.push(r.elapsed.as_secs_f64() * 1e3);
                self.samples.post_reload_us.push(us(r.probe_latency));
            }
            _ => {
                self.tally.failed += 1;
                self.tally
                    .problem("the probe after a reload did not see the new generation".to_owned());
            }
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let s = &self.samples;
        let edges = self.inputs.edges.len().max(1) as f64;
        vec![
            metric("setup_s", median(&s.setup_s), "s"),
            metric("build_s", median(&s.build_s), "s"),
            metric(
                "index_bytes_per_edge",
                self.served.memory_bytes() as f64 / edges,
                "B/edge",
            ),
            metric("query_qps", median(&s.query_qps), "q/s"),
            metric("rss_peak_mb", stats::peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(
        &mut self,
        before: &[HistogramSnapshot],
        after: &[HistogramSnapshot],
        metrics_text: &str,
        lag_p99: f64,
    ) -> Result<Vec<Metric>, String> {
        let edges = self.inputs.edges.len().max(1) as f64;
        let inputs = self.inputs;
        let shard = self.shard_layer(&inputs.queries)?;

        let s = &self.samples;
        let mut out = Vec::new();

        // core::build
        let (attempts, inserted, bfs_runs) = self.served.build_counts();
        let build_s = median(&s.build_s);
        let build_par_s = median(&s.build_par_s);
        let (_, explore_ns) = hist_delta(before, after, 0);
        let (_, merge_ns) = hist_delta(before, after, 1);
        let par_builds = s.build_par_s.len().max(1) as f64;
        out.push(metric("build.insert_attempts", attempts as f64, "count"));
        out.push(metric("build.kernel_bfs_runs", bfs_runs as f64, "count"));
        out.push(metric(
            "build.useful_ratio",
            ratio(inserted as f64, attempts as f64),
            "ratio",
        ));
        out.push(metric("build.par_s", build_par_s, "s"));
        out.push(metric(
            "build.par_speedup",
            ratio(build_s, build_par_s),
            "x",
        ));
        out.push(metric(
            "build.par_explore_s",
            explore_ns / 1e9 / par_builds,
            "s",
        ));
        out.push(metric(
            "build.par_merge_s",
            merge_ns / 1e9 / par_builds,
            "s",
        ));

        // core::index
        out.push(metric(
            "index.entries",
            self.served.entries() as f64,
            "count",
        ));
        out.push(metric(
            "index.csr_bytes_per_edge",
            self.served.csr_bytes() as f64 / edges,
            "B/edge",
        ));
        out.push(metric("index.lookup_ns", self.lookup_ns(), "ns"));

        // codec
        out.push(metric("codec.encode_ms", median(&s.encode_ms), "ms"));
        out.push(metric("codec.decode_ms", median(&s.decode_ms), "ms"));
        out.push(metric(
            "codec.blob_bytes_per_edge",
            self.blob.len() as f64 / edges,
            "B/edge",
        ));

        // core::hybrid, core::kernel
        let (frontier_us, frontier_vertices) = self.prefix_frontiers();
        out.push(metric("hybrid.prefix_frontier_us", frontier_us, "us"));
        out.push(metric(
            "hybrid.frontier_vertices",
            frontier_vertices,
            "count",
        ));

        // core::plan
        let query_qps = median(&s.query_qps);
        let batch_qps = median(&s.batch_qps);
        let qps_1w = median(&s.plan_1w_qps);
        let (executes, prepare_ns) = hist_delta(before, after, 2);
        let (_, execute_ns) = hist_delta(before, after, 3);
        let (_, scatter_ns) = hist_delta(before, after, 4);
        let executes = executes.max(1) as f64;
        out.push(metric("plan.batch_qps", batch_qps, "q/s"));
        out.push(metric("plan.qps_1w", qps_1w, "q/s"));
        out.push(metric("plan.overhead", ratio(query_qps, qps_1w), "x"));
        out.push(metric("plan.par_speedup", ratio(batch_qps, qps_1w), "x"));
        out.push(metric("plan.new_us", median(&s.plan_new_us), "us"));
        out.push(metric("plan.prepare_us", prepare_ns / 1e3 / executes, "us"));
        out.push(metric("plan.execute_us", execute_ns / 1e3 / executes, "us"));
        out.push(metric("plan.scatter_us", scatter_ns / 1e3 / executes, "us"));

        // core::cache
        let local = self.cache.counters();
        let served = self.server.cache().counters();
        let (misses, miss_ns) = hist_delta(before, after, 5);
        out.push(metric(
            "cache.hit_ratio",
            ratio(local.hits as f64, (local.hits + local.misses) as f64),
            "ratio",
        ));
        out.push(metric(
            "cache.stale_drops",
            served.stale_drops as f64,
            "count",
        ));
        out.push(metric(
            "cache.miss_us",
            miss_ns / 1e3 / misses.max(1) as f64,
            "us",
        ));

        // rlc-shard
        out.extend(shard);

        // rlc-serve
        let expo = rlc_obs::expo::parse(metrics_text)
            .map_err(|e| format!("/metrics does not parse: {e}"))?;
        let connects: Vec<f64> = s.open.iter().map(|t| us(t.reply.connect)).collect();
        out.push(metric(
            "serve.connect_us",
            percentile(&connects, 50.0),
            "us",
        ));
        for (name, family) in [
            ("serve.queue_wait_us", "rlc_serve_queue_wait_seconds"),
            ("serve.parse_us", "rlc_serve_parse_seconds"),
            ("serve.batch_window_us", "rlc_serve_batch_window_seconds"),
            ("serve.execute_us", "rlc_serve_execute_seconds"),
            ("serve.write_us", "rlc_serve_write_seconds"),
        ] {
            out.push(metric(name, histogram_p50(&expo, family) * 1e6, "us"));
        }
        let metrics = self.server.metrics();
        out.push(metric(
            "serve.batch_size",
            ratio(
                metrics.get(Counter::MicrobatchedQueries) as f64,
                metrics.get(Counter::Microbatches) as f64,
            ),
            "count",
        ));
        let open: Vec<f64> = s.open.iter().map(|t| us(t.latency)).collect();
        out.push(metric("serve.p50_us", median(&s.open_p50_us), "us"));
        out.push(metric("serve.p99_us", percentile(&open, 99.0), "us"));
        out.push(metric("serve.qps", median(&s.closed_qps), "q/s"));
        out.push(metric("serve.reload_ms", median(&s.reload_ms), "ms"));
        out.push(metric(
            "serve.post_reload_p50_us",
            percentile(&s.post_reload_us, 50.0),
            "us",
        ));
        out.push(metric("serve.generator_lag_us", lag_p99, "us"));

        // rlc-obs
        out.push(metric(
            "obs.trace_overhead",
            ratio(median(&s.traced_unit_s), median(&s.untraced_unit_s)),
            "ratio",
        ));

        // Self times of the benchmark's own spans, for the log.
        for (name, (count, total, own)) in self.tracer.self_times() {
            eprintln!("span {name:<24} n={count:<6} total={total:>10.2} ms self={own:>10.2} ms");
        }
        Ok(out)
    }

    /// Mean ns of one index lookup of a query's last block: the plain
    /// index directly, the sharded index on same-shard pairs.
    fn lookup_ns(&self) -> f64 {
        let lookups: Vec<(u32, u32, Vec<Label>)> = self
            .inputs
            .queries
            .iter()
            .map(|q| (q.source, q.target, q.constraint().last_block().to_vec()))
            .collect();
        let started = Instant::now();
        let mut count = 0usize;
        let mut hits = 0usize;
        while started.elapsed() < SLICE {
            for (s, t, block) in &lookups {
                match &self.served {
                    Built::Rlc(index, _) => {
                        hits += usize::from(index.reaches(*s, *t, block));
                        count += 1;
                    }
                    Built::Sharded(index, _) => {
                        let (ss, ls) = index.partition().locate(*s);
                        let (ts, lt) = index.partition().locate(*t);
                        if ss == ts {
                            hits += usize::from(index.shard(ss).index().reaches(ls, lt, block));
                            count += 1;
                        }
                    }
                }
            }
            if count == 0 {
                return 0.0;
            }
        }
        std::hint::black_box(hits);
        started.elapsed().as_nanos() as f64 / count as f64
    }

    /// Mean µs per `prefix_frontier` call and mean frontier size, over the
    /// distinct `(source, constraint)` pairs of the workload.
    fn prefix_frontiers(&self) -> (f64, f64) {
        let mut seen = std::collections::HashSet::new();
        let pairs: Vec<&Query> = self
            .inputs
            .queries
            .iter()
            .filter(|q| seen.insert((q.source, q.constraint().clone())))
            .collect();
        let mut sizes = Vec::new();
        let started = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || started.elapsed() < SLICE {
            for q in &pairs {
                let frontier = prefix_frontier(&self.graph, q.source, q.constraint().blocks());
                if sizes.len() < pairs.len() {
                    sizes.push(frontier.len() as f64);
                }
                calls += 1;
            }
        }
        (
            us(started.elapsed()) / calls.max(1) as f64,
            stats::mean(&sizes),
        )
    }

    /// Cut edges, EXPLAIN routes and stitcher counters of the sharded
    /// index; zeros on the unsharded workloads, which have no shards.
    fn shard_layer(&mut self, queries: &[Query]) -> Result<Vec<Metric>, String> {
        let Built::Sharded(index, _) = &self.served else {
            return Ok(vec![
                metric("shard.cut_edges", 0.0, "count"),
                metric("shard.stitched_ratio", 0.0, "ratio"),
                metric("shard.stitch_hops_per_query", 0.0, "count"),
                metric("shard.expander_calls_per_query", 0.0, "count"),
            ]);
        };
        let hops = rlc_obs::global().counter("rlc_stitch_hops_total");
        let calls = rlc_obs::global().counter("rlc_stitch_expander_calls_total");
        let (hops0, calls0) = (hops.get(), calls.get());
        let engine = ShardedEngine::new(&self.graph, index);
        let (answers, trace) = BatchPlan::new(queries).execute_explained(&engine, None);
        for (i, got) in answers.into_iter().enumerate() {
            self.tally.check(
                "explained",
                i,
                got.map_err(|e| e.to_string()),
                self.expected,
            );
        }
        let stitched = trace
            .children()
            .iter()
            .filter(|node| node.find_attr_deep("route") == Some("stitched"))
            .count();
        let n = queries.len().max(1) as f64;
        Ok(vec![
            metric("shard.cut_edges", index.cut_edges().len() as f64, "count"),
            metric("shard.stitched_ratio", stitched as f64 / n, "ratio"),
            metric(
                "shard.stitch_hops_per_query",
                (hops.get() - hops0) as f64 / n,
                "count",
            ),
            metric(
                "shard.expander_calls_per_query",
                (calls.get() - calls0) as f64 / n,
                "count",
            ),
        ])
    }

    fn write_trace(&self) {
        let Some(dir) = &self.opts.trace_dir else {
            return;
        };
        let path = dir.join(format!("trace-{}-{}.jsonl", self.spec.name, self.opts.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

/// p50 of an exposed histogram family, read from its cumulative buckets
/// (the upper edge of the bucket holding the median), in the family's unit.
fn histogram_p50(expo: &rlc_obs::expo::Exposition, family: &str) -> f64 {
    let bucket = format!("{family}_bucket");
    let mut buckets: Vec<(f64, f64)> = expo
        .samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s.labels.iter().find(|(k, _)| k == "le")?.1.as_str();
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((edge, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= total / 2.0)
        .map_or(0.0, |(edge, _)| if edge.is_finite() { *edge } else { 0.0 })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Renders the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, value, m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct, outcome.attempted, outcome.failed, metrics
    )
}
