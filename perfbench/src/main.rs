//! Two-clock benchmark of the resident RDBS service.
//!
//! ```text
//! rdbs-perfbench --workload <kron-seq|road-seq|kron-traffic> --seed <n> --seconds <s>
//!     --trace <0|1> --mmpp-qps <slow>,<fast> --mmpp-dwell-ms <ms> --slo-ms <ms>
//!     --hot <sources>,<weight> --shed-margin <x>
//! ```
//!
//! Each workload runs in this one single-threaded process; the
//! simulated command streams are not host threads. Metrics are read
//! from outside the program: host time of calls into its public
//! functions, and the counts it already exposes (`device_counters()`,
//! `kernel_reports()`, `stats()`, `TrafficReport`). Every figure names
//! its clock: *sim* is the simulated device clock, which is
//! deterministic, *host* is wall time.
//!
//! The workload seed picks the query sources and arrivals; the graphs
//! are fixed. The number of queries is a fixed function of `--seconds`
//! and the workload, never of how fast the host runs, so every
//! sim-clock figure and count repeats exactly for one seed. The traffic
//! constants are arguments, so the absolute values live in the
//! benchmark definition rather than being derived from the model under
//! test (deriving the offered rate from the current service time would
//! hide exactly the gains this benchmark exists to show).
//!
//! Once the inputs are built, a run resets the process's peak resident
//! memory and builds the resident service; `peak_rss_mb` is the peak
//! from there to the last answer. Between queries (or serve rounds) it
//! makes short bursts of throwaway `SsspService::new` calls, which give
//! `setup_s`. A throwaway fits in heap that a query has freed, so the
//! bursts leave the peak where the queries put it.
//!
//! Each run prints its model fingerprint, a hash over every answer's
//! distances, the sim series, the kernel label and time sequence and the
//! device counters. Two runs of one seed must print the same one; a
//! `--trace 1` run checks this itself, for its untraced and traced
//! passes.
//!
//! `--trace 0` prints the end-to-end metrics: simulated latency and
//! sojourn, setup time and peak memory. `--trace 1` prints the
//! per-layer ones, host wall time of the queries included: it runs the
//! workload untraced and then traced, records a span around every call
//! into a layer, and writes the spans to `.bench_trace/` at the
//! repository root. Every exact answer is checked against Dijkstra
//! outside the timed calls. The last line of standard output is one JSON
//! object; the exit code is 0 only if every check passed.
//!
//! `BENCHMARK.json` runs this with glibc's mmap and trim thresholds
//! raised, so buffers the service frees are reused instead of being
//! returned to the kernel: with the defaults a Kronecker query faults in
//! about 30 MB of fresh pages (7.5k minor faults), whose cost swings
//! with the host's memory load.

mod trace;

use rdbs_core::seq::dijkstra::dijkstra;
use rdbs_core::service::cache::CacheConfig;
use rdbs_core::service::traffic::{
    AnswerSource, ArrivalProcess, Outcome, SourceMix, TrafficConfig,
};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::stats::{percentile, BatchStats, UpdateStats};
use rdbs_core::validate::check_against;
use rdbs_core::{default_delta, Csr, Dist, VertexId};
use rdbs_gpu_sim::{Counters, DeviceConfig};
use rdbs_graph::datasets::{by_name, kronecker_spec};
use rdbs_graph::reorder;
use rdbs_graph::stats::{bfs_levels, connected_components};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Seed of every workload graph (the swapped-in generation uses the
/// next one). The workload seed never changes a graph.
const GRAPH_SEED: u64 = 42;
/// Throwaway `SsspService::new` calls per second of `--seconds`, and
/// the number of bursts they come in on a `-seq` run (a `kron-traffic`
/// run makes one before each serve round and one after the last). Host
/// speed here swings between two modes, one about 1.7 times slower than
/// the other, that each last from seconds to minutes; `setup_s` is the
/// fastest construction of the run, and bursts spread over the run make
/// it likely that some fall in the fast mode. The count, not the host,
/// fixes the bursts, so every run of a seed makes the same allocations
/// and its peak memory repeats.
const SETUPS_PER_S: f64 = 6.0;
const SEQ_SETUP_BURSTS: usize = 10;
/// Queries (or offered queries) per second of `--seconds`. Sized so a
/// run measures for about `--seconds` on a 2-core x86-64 host; the
/// count, not the host, fixes how much work a run does.
const KRON_SEQ_QUERIES_PER_S: f64 = 6.5;
const ROAD_SEQ_QUERIES_PER_S: f64 = 2.0;
const TRAFFIC_OFFERED_PER_S: f64 = 16.0;
/// A tail needs at least ten samples beyond it.
const MIN_QUERIES: usize = 12;
/// Open-loop serve calls per `kron-traffic` run; the graph swap comes
/// after the first half.
const TRAFFIC_ROUNDS: usize = 4;
const TRAFFIC_STREAMS: usize = 4;
/// Kernel labels of the RDBS driver, frontier and scatter.
const KERNEL_LABELS: [&str; 7] = [
    "phase1_small",
    "phase1_medium",
    "phase1_large",
    "phase1_child",
    "phase2_heavy",
    "phase3_collect",
    "update_heavy_offsets",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    KronSeq,
    RoadSeq,
    KronTraffic,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "kron-seq" => Some(Self::KronSeq),
            "road-seq" => Some(Self::RoadSeq),
            "kron-traffic" => Some(Self::KronTraffic),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::KronSeq => "kron-seq",
            Self::RoadSeq => "road-seq",
            Self::KronTraffic => "kron-traffic",
        }
    }

    /// Kronecker scale 13, edge factor 16, or the road-TX stand-in at
    /// shift 6.
    fn graph(self, seed: u64) -> Csr {
        match self {
            Self::KronSeq | Self::KronTraffic => kronecker_spec(21, 16).generate(8, seed),
            Self::RoadSeq => {
                by_name("road-TX").expect("road-TX is a Table 1 row").generate(6, seed)
            }
        }
    }

    /// Span names the traced run must contain.
    fn traced_calls(self) -> &'static [&'static str] {
        match self {
            Self::KronSeq | Self::RoadSeq => &[
                "SsspService::new",
                "reorder::pro",
                "SsspService::query",
                "seq::dijkstra::dijkstra",
                "validate::check_against",
            ],
            Self::KronTraffic => &[
                "SsspService::new",
                "reorder::pro",
                "SsspService::load_graph",
                "SsspService::serve_open_loop",
                "seq::dijkstra::dijkstra",
                "validate::check_against",
            ],
        }
    }
}

/// Open-loop traffic constants, absolute values from the command line.
#[derive(Clone, Copy)]
struct TrafficConsts {
    slow_qps: f64,
    fast_qps: f64,
    dwell_ms: f64,
    slo_ms: f64,
    hot_sources: u32,
    hot_weight: f64,
    shed_margin: f64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    traffic: TrafficConsts,
}

fn parse_pair(s: &str) -> Result<(f64, f64), String> {
    let (a, b) = s.split_once(',').ok_or(format!("expected <a>,<b>, got {s:?}"))?;
    let num = |x: &str| x.parse::<f64>().map_err(|e| format!("{x:?}: {e}"));
    Ok((num(a)?, num(b)?))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let workload = take("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = take("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let (slow_qps, fast_qps) = parse_pair(&take("--mmpp-qps")?)?;
    let num = |flag: &str, v: String| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
    let dwell_ms = num("--mmpp-dwell-ms", take("--mmpp-dwell-ms")?)?;
    let slo_ms = num("--slo-ms", take("--slo-ms")?)?;
    let (hot_sources, hot_weight) = parse_pair(&take("--hot")?)?;
    let shed_margin = num("--shed-margin", take("--shed-margin")?)?;
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    let positive = [slow_qps, fast_qps, dwell_ms, slo_ms, hot_sources, shed_margin];
    if seconds == 0 || positive.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return Err("--seconds and every traffic constant must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&hot_weight) || hot_sources.fract() != 0.0 {
        return Err("--hot takes a whole source count and a weight in [0, 1]".to_string());
    }
    let traffic = TrafficConsts {
        slow_qps,
        fast_qps,
        dwell_ms,
        slo_ms,
        hot_sources: hot_sources as u32,
        hot_weight,
        shed_margin,
    };
    Ok(Args { workload, seed, seconds, trace, traffic })
}

/// The V100 preset with launch overheads and caches scaled 1/256, the
/// device of the repository's scheduler, load and scatter benches.
fn device() -> DeviceConfig {
    DeviceConfig::v100().with_overhead_scale(1.0 / 256.0).with_cache_scale(1.0 / 256.0)
}

/// splitmix64, for source draws and per-round seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct sources from the largest connected component, in
/// seeded order. A source outside it answers in a bucket or two and
/// would make the per-query figures bimodal. The draw is stratified: one
/// source from each of `count` equal slices of the component ordered by
/// hop distance from a peripheral vertex, so every run covers near and
/// far sources alike. On the road strip a query's work grows with its
/// source's distance from the middle, and a plain uniform draw of 40
/// sources moves the median by about 10% from seed to seed.
fn giant_component_sources(g: &Csr, seed: u64, count: usize) -> Vec<VertexId> {
    let cc = connected_components(g);
    let mut sizes = vec![0usize; cc.num_components];
    for &l in &cc.labels {
        sizes[l as usize] += 1;
    }
    let giant = (0..sizes.len()).max_by_key(|&c| (sizes[c], std::cmp::Reverse(c))).expect("n > 0");
    let start = cc.labels.iter().position(|&l| l as usize == giant).expect("giant is non-empty");
    // Double sweep: the vertex farthest from any vertex is peripheral.
    let sweep = bfs_levels(g, start as VertexId);
    let far = (0..g.num_vertices())
        .filter(|&v| sweep[v] != u32::MAX)
        .max_by_key(|&v| (sweep[v], std::cmp::Reverse(v)))
        .expect("start reaches itself");
    let hops = bfs_levels(g, far as VertexId);
    let mut order: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| hops[v as usize] != u32::MAX).collect();
    order.sort_by_key(|&v| (hops[v as usize], v));
    let mut rng = seed ^ 0x5EED_5042_CE50_0001;
    let count = count.min(order.len());
    let mut picked: Vec<VertexId> = (0..count)
        .map(|i| {
            let (lo, hi) = (i * order.len() / count, (i + 1) * order.len() / count);
            order[lo + (splitmix64(&mut rng) % (hi - lo) as u64) as usize]
        })
        .collect();
    for i in (1..picked.len()).rev() {
        picked.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
    }
    picked
}

/// FNV-1a over everything the model produced: the model fingerprint.
struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn dists(&mut self, dist: &[Dist]) {
        self.u64(dist.len() as u64);
        for &d in dist {
            self.bytes(&d.to_le_bytes());
        }
    }
}

/// What one pass over a workload measured.
#[derive(Default)]
struct Run {
    attempted: usize,
    /// Wrong answers, `Err`s, panics and accounting mismatches.
    failed: usize,
    /// Failures of the run itself, such as an unreadable `/proc` entry.
    problems: Vec<String>,
    device_answered: usize,
    /// Host ms of each throwaway `SsspService::new`.
    setup_ms: Vec<f64>,
    /// VmHWM when the run ends, MiB; reset once the inputs were built.
    peak_rss_mb: f64,
    /// `-seq`: host ms of each `query` call. `kron-traffic`: host ms of
    /// each serve round per device-answered query.
    host_query_ms: Vec<f64>,
    /// Host ms of every timed query or serve call together.
    host_total_ms: f64,
    sim_ms: Vec<f64>,
    sojourn_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    dijkstra_ms: Vec<f64>,
    pro_ms: f64,
    load_graph_ms: f64,
    shed: usize,
    deadline_violations: usize,
    cache_hits: usize,
    /// Σ device service time and Σ streams × makespan over serves, sim ms.
    busy_ms: f64,
    stream_capacity_ms: f64,
    buckets: u64,
    phase1_layers: u64,
    checks: u64,
    updates: u64,
    valid_updates: u64,
    counters_before: Counters,
    counters_after: Counters,
    /// Per kernel label: simulated ns and launches during the queries.
    kernels: BTreeMap<&'static str, (f64, u64)>,
    stats: BatchStats,
    fingerprint: Fingerprint,
}

impl Run {
    /// Reset the peak resident memory, so that it leaves out the
    /// benchmark's inputs (graph generation, source draw), build the
    /// service the run queries, and time PRO on its own when tracing.
    fn start(&mut self, graph: &Csr, config: &ServiceConfig, tracer: &mut Tracer) -> SsspService {
        if let Err(e) = reset_peak_rss() {
            self.problems.push(format!("resetting peak_rss_mb: {e}"));
        }
        let (svc, _) =
            tracer.call("SsspService::new", None, || SsspService::new(graph, config.clone()));
        if tracer.enabled() {
            let delta = default_delta(graph);
            let (pro, ms) = tracer.call("reorder::pro", None, || reorder::pro(graph, delta));
            std::hint::black_box(pro);
            self.pro_ms = ms;
        }
        self.counters_before = svc.device_counters().expect("single-GPU backend").clone();
        svc
    }

    /// End the run: fold in the service's counters, read the peak
    /// resident memory and drop the service.
    fn end(&mut self, svc: SsspService, reports_before: usize) {
        self.finish(&svc, reports_before);
        match peak_rss_mb() {
            Ok(mb) => self.peak_rss_mb = mb,
            Err(e) => self.problems.push(format!("reading peak_rss_mb: {e}")),
        }
    }

    /// One burst of `count` throwaway services, built and dropped one
    /// after another while the resident service stays alive.
    fn setup_burst(
        &mut self,
        graph: &Csr,
        config: &ServiceConfig,
        tracer: &mut Tracer,
        count: usize,
    ) {
        tracer.open("bench.setup", None);
        for _ in 0..count {
            let (svc, ms) =
                tracer.call("SsspService::new", None, || SsspService::new(graph, config.clone()));
            drop(svc);
            self.setup_ms.push(ms);
        }
        tracer.close();
    }

    /// Work counters of one device-answered query.
    fn note_device_run(&mut self, stats: &UpdateStats, dist: &[Dist]) {
        self.buckets += stats.buckets() as u64;
        self.phase1_layers += stats.phase1_layers.iter().map(|&l| u64::from(l)).sum::<u64>();
        self.checks += stats.checks;
        self.updates += stats.total_updates;
        self.valid_updates += UpdateStats::valid_updates(dist);
    }

    /// Check one exact answer against Dijkstra on the graph generation
    /// it was answered for, outside the timed calls.
    fn check(
        &mut self,
        tracer: &mut Tracer,
        graph: &Csr,
        qi: usize,
        source: VertexId,
        dist: &[Dist],
    ) {
        let (oracle, ms) =
            tracer.call("seq::dijkstra::dijkstra", Some(qi), || dijkstra(graph, source));
        self.dijkstra_ms.push(ms);
        let (verdict, _) = tracer.call("validate::check_against", Some(qi), || {
            (oracle.dist.len() == dist.len()).then(|| check_against(&oracle.dist, dist))
        });
        if !matches!(verdict, Some(Ok(()))) {
            eprintln!("wrong answer: query {qi}, source {source}: {verdict:?}");
            self.failed += 1;
        }
        self.fingerprint.u64(u64::from(source));
        self.fingerprint.dists(dist);
    }

    /// Fold in the device's counters and kernel reports since setup.
    fn finish(&mut self, svc: &SsspService, reports_before: usize) {
        self.counters_after = svc.device_counters().expect("single-GPU backend").clone();
        let reports = svc.kernel_reports().expect("single-GPU backend");
        for r in &reports[reports_before..] {
            let slot = self.kernels.entry(r.name).or_insert((0.0, 0));
            slot.0 += r.total_ns;
            slot.1 += 1;
            self.fingerprint.bytes(r.name.as_bytes());
            self.fingerprint.f64(r.total_ns);
        }
        self.fingerprint.bytes(format!("{:?}", self.counters_after).as_bytes());
        for &ms in self.sim_ms.iter().chain(&self.sojourn_ms) {
            self.fingerprint.f64(ms);
        }
        self.stats = svc.stats();
    }

    fn host_qps(&self) -> f64 {
        frac(self.device_answered as f64, self.host_total_ms / 1e3)
    }
}

/// `kron-seq` and `road-seq`: one stream, one closed-loop client.
fn run_seq(args: &Args, tracer: &mut Tracer) -> Run {
    let graph = args.workload.graph(GRAPH_SEED);
    let rate = match args.workload {
        Workload::RoadSeq => ROAD_SEQ_QUERIES_PER_S,
        _ => KRON_SEQ_QUERIES_PER_S,
    };
    let count = ((f64::from(args.seconds) * rate).round() as usize).max(MIN_QUERIES);
    let config = ServiceConfig::rdbs(device());
    let sources = giant_component_sources(&graph, args.seed, count);
    let mut run = Run::default();
    let mut svc = run.start(&graph, &config, tracer);
    let reports_before = svc.kernel_reports().expect("single-GPU backend").len();
    let burst = setup_burst_len(args, SEQ_SETUP_BURSTS);
    let burst_stride = count.div_ceil(SEQ_SETUP_BURSTS);
    for (qi, &source) in sources.iter().enumerate() {
        if qi % burst_stride == 0 {
            run.setup_burst(&graph, &config, tracer, burst);
        }
        tracer.open("bench.query", Some(qi));
        let (answer, ms) = tracer.call("SsspService::query", Some(qi), || {
            catch_unwind(AssertUnwindSafe(|| svc.query(source)))
        });
        run.attempted += 1;
        run.host_query_ms.push(ms);
        run.host_total_ms += ms;
        match answer {
            Ok(result) => {
                run.note_device_run(&result.stats, &result.dist);
                run.check(tracer, &graph, qi, source, &result.dist);
            }
            Err(_) => run.failed += 1,
        }
        tracer.close();
    }
    let stats = svc.stats();
    run.sim_ms = stats.per_query_sim_ms;
    // Closed loop: each query arrives when the previous one is answered.
    run.sojourn_ms = stats.per_query_sojourn_ms;
    run.device_answered = run.sim_ms.len();
    run.end(svc, reports_before);
    run
}

/// `kron-traffic`: 4 streams, open-loop MMPP rounds with the answer
/// cache on, and a graph swap between the two halves.
fn run_traffic(args: &Args, tracer: &mut Tracer) -> Run {
    let t = args.traffic;
    let graphs = [args.workload.graph(GRAPH_SEED), args.workload.graph(GRAPH_SEED + 1)];
    let per_round = ((f64::from(args.seconds) * TRAFFIC_OFFERED_PER_S / TRAFFIC_ROUNDS as f64)
        .round() as usize)
        .max(MIN_QUERIES);
    let config = ServiceConfig::rdbs(device()).with_streams(TRAFFIC_STREAMS);
    let mut run = Run::default();
    let mut svc = run.start(&graphs[0], &config, tracer);
    let reports_before = svc.kernel_reports().expect("single-GPU backend").len();
    let mut generation = 0;
    let mut rng = args.seed ^ 0x7AFF_1C00_0000_0001;
    let burst = setup_burst_len(args, TRAFFIC_ROUNDS + 1);
    for round in 0..TRAFFIC_ROUNDS {
        run.setup_burst(&graphs[0], &config, tracer, burst);
        tracer.open("bench.round", None);
        if round == TRAFFIC_ROUNDS / 2 {
            let ((), ms) =
                tracer.call("SsspService::load_graph", None, || svc.load_graph(&graphs[1]));
            run.load_graph_ms = ms;
            generation = 1;
        }
        let cfg = TrafficConfig {
            arrivals: ArrivalProcess::Mmpp {
                slow_qps: t.slow_qps,
                fast_qps: t.fast_qps,
                mean_dwell_ms: t.dwell_ms,
            },
            offered: per_round,
            seed: splitmix64(&mut rng),
            slo_ms: t.slo_ms,
            tight_slo_ms: None,
            tight_every: 0,
            sources: SourceMix::Hot { hot_sources: t.hot_sources, hot_weight: t.hot_weight },
            shed_margin: t.shed_margin,
            cache: Some(CacheConfig::default()),
            approx_on_shed: false,
        };
        let before = svc.stats();
        let (report, ms) = tracer.call("SsspService::serve_open_loop", None, || {
            catch_unwind(AssertUnwindSafe(|| svc.serve_open_loop(&cfg)))
        });
        let after = svc.stats();
        let qbase = run.attempted;
        run.attempted += per_round;
        let Ok(report) = report else {
            run.failed += per_round;
            tracer.close();
            continue;
        };
        if let Err(m) = report.check_accounting(&before, &after) {
            eprintln!("round {round}: accounting mismatch: {m}");
            run.failed += per_round;
        }
        run.host_total_ms += ms;
        if report.device_answered > 0 {
            run.host_query_ms.push(ms / report.device_answered as f64);
        }
        let new_sim = &after.per_query_sim_ms[before.per_query_sim_ms.len()..];
        run.sim_ms.extend_from_slice(new_sim);
        run.busy_ms += new_sim.iter().sum::<f64>();
        run.stream_capacity_ms += TRAFFIC_STREAMS as f64 * report.makespan_ms;
        run.device_answered += report.device_answered;
        run.shed += report.shed;
        run.deadline_violations += report.deadline_violations;
        run.cache_hits += report.cache_hits;
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                Outcome::Exact { result, via, sojourn_ms, queue_ms, .. } => {
                    run.sojourn_ms.push(*sojourn_ms);
                    if *via != AnswerSource::Cache {
                        run.queue_ms.push(*queue_ms);
                    }
                    if *via == AnswerSource::Device {
                        run.note_device_run(&result.stats, &result.dist);
                    }
                    run.check(tracer, &graphs[generation], qbase + i, result.source, &result.dist);
                }
                Outcome::Approx { source, .. } => {
                    eprintln!(
                        "query {}: approximate answer for {source} while approx_on_shed is off",
                        qbase + i
                    );
                    run.failed += 1;
                }
                Outcome::Rejected(r) => run.fingerprint.u64(u64::from(r.source) | 1 << 63),
            }
        }
        tracer.close();
    }
    run.setup_burst(&graphs[0], &config, tracer, burst);
    run.end(svc, reports_before);
    run
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Run {
    match args.workload {
        Workload::KronSeq | Workload::RoadSeq => run_seq(args, tracer),
        Workload::KronTraffic => run_traffic(args, tracer),
    }
}

/// Throwaway constructions in each of `bursts` set-up bursts.
fn setup_burst_len(args: &Args, bursts: usize) -> usize {
    ((f64::from(args.seconds) * SETUPS_PER_S).round() as usize).div_ceil(bursts).max(2)
}

/// Nearest-rank median, 0 for an empty series.
fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The smallest sample, infinite for an empty series.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples)`.
fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    if n <= 10 {
        return (samples.iter().copied().fold(0.0, f64::max), 100.0, n);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reset this process's peak resident memory (VmHWM) to its current
/// resident memory.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| e.to_string())
}

/// Peak resident memory of this process (VmHWM), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        metric("sim_query_ms_p50", p50(&run.sim_ms), "ms"),
        metric("sim_query_ms_tail", tail(&run.sim_ms).0, "ms"),
        metric("sojourn_ms_p50", p50(&run.sojourn_ms), "ms"),
        metric("sojourn_ms_tail", tail(&run.sojourn_ms).0, "ms"),
        metric("setup_s", fastest(&run.setup_ms) / 1e3, "s"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics. Host wall time of the queries is reported here
/// rather than end to end: on a shared host it drifts by tens of percent
/// over tens of seconds while the work stays identical, more than any
/// bound could absorb.
fn per_layer(run: &Run, tracer: &Tracer, untraced_qps: f64) -> Vec<Metric> {
    let q = run.device_answered.max(1) as f64;
    let (a, b) = (&run.counters_before, &run.counters_after);
    let d = |f: fn(&Counters) -> u64| (f(b) - f(a)) as f64;
    let mut m = vec![
        metric("host_query_ms_p50", p50(&run.host_query_ms), "ms"),
        metric("host_qps", run.host_qps(), "1/s"),
        metric("graph.pro_ms", run.pro_ms, "ms"),
        metric("service.new_ms", p50(&tracer.durations_ms("SsspService::new")), "ms"),
        metric("service.load_graph_ms", run.load_graph_ms, "ms"),
        metric("service.h2d_uploads", b.h2d_uploads as f64, "count"),
        metric("service.h2d_words", b.h2d_words as f64, "count"),
        metric(
            "service.pool_reuse_frac",
            frac(
                run.stats.pool_reuses as f64,
                (run.stats.pool_reuses + run.stats.pool_allocs) as f64,
            ),
            "frac",
        ),
        metric("service.escalations", run.stats.escalations as f64, "count"),
        metric("service.fallbacks", run.stats.fallbacks as f64, "count"),
        metric("traffic.queue_ms_p50", p50(&run.queue_ms), "ms"),
        metric("traffic.queue_ms_tail", tail(&run.queue_ms).0, "ms"),
        metric("traffic.shed_frac", frac(run.shed as f64, run.attempted as f64), "frac"),
        metric("traffic.deadline_violations", run.deadline_violations as f64, "count"),
        metric(
            "traffic.slo_miss_frac",
            frac((run.shed + run.deadline_violations + run.failed) as f64, run.attempted as f64),
            "frac",
        ),
        metric("traffic.cache_hit_frac", frac(run.cache_hits as f64, run.attempted as f64), "frac"),
        metric("traffic.stream_busy_frac", frac(run.busy_ms, run.stream_capacity_ms), "frac"),
    ];
    for label in KERNEL_LABELS {
        let (ns, launches) = run.kernels.get(label).copied().unwrap_or((0.0, 0));
        m.push(metric(format!("gpu.{label}.sim_ms"), ns / 1e6 / q, "ms"));
        m.push(metric(format!("gpu.{label}.launches"), launches as f64 / q, "count"));
    }
    let rate = |hits: f64, accesses: f64| 100.0 * frac(hits, accesses);
    m.extend([
        metric("gpu.buckets", run.buckets as f64 / q, "count"),
        metric("gpu.phase1_layers", run.phase1_layers as f64 / q, "count"),
        metric("gpu.checks", run.checks as f64 / q, "count"),
        metric("gpu.work_ratio", frac(run.updates as f64, run.valid_updates as f64), "ratio"),
        metric("sim.inst_executed", d(|c| c.inst_executed) / q, "count"),
        metric("sim.global_loads", d(|c| c.inst_executed_global_loads) / q, "count"),
        metric("sim.global_stores", d(|c| c.inst_executed_global_stores) / q, "count"),
        metric("sim.global_atomics", d(|c| c.inst_executed_global_atomics) / q, "count"),
        metric("sim.atomic_conflicts", d(|c| c.atomic_conflicts) / q, "count"),
        metric("sim.dram_bytes", d(Counters::dram_bytes) / q, "B"),
        metric("sim.l1_hit_rate", rate(d(|c| c.l1_hits), d(|c| c.l1_accesses)), "%"),
        metric("sim.l2_hit_rate", rate(d(|c| c.l2_hits), d(|c| c.l2_accesses)), "%"),
        metric("sim.warp_efficiency", rate(d(|c| c.active_lane_sum), d(|c| c.lane_slot_sum)), "%"),
        metric("sim.kernel_launches", d(|c| c.kernel_launches) / q, "count"),
        metric("sim.child_launches", d(|c| c.child_kernel_launches) / q, "count"),
        metric("sim.barriers", d(|c| c.barriers) / q, "count"),
        metric(
            "sim.host_ns_per_warp_inst",
            frac(run.host_total_ms * 1e6, d(|c| c.inst_executed)),
            "ns",
        ),
        metric("seq.dijkstra_ms", p50(&run.dijkstra_ms), "ms"),
        metric("seq.host_ratio", frac(p50(&run.host_query_ms), p50(&run.dijkstra_ms)), "x"),
        metric("trace.qps_ratio", frac(run.host_qps(), untraced_qps), "x"),
        metric("check.error_frac", frac(run.failed as f64, run.attempted as f64), "frac"),
    ]);
    m
}

/// Where spans go: `.bench_trace/` at the repository root, beside this
/// package.
fn out_dir() -> Result<PathBuf, String> {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = manifest.parent().unwrap_or(manifest).join(".bench_trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rdbs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut problems: Vec<String> = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut run = run_workload(&args, &mut tracer);
    let untraced_qps = run.host_qps();
    if args.trace {
        let untraced_fp = run.fingerprint.0;
        problems.append(&mut run.problems);
        if run.failed > 0 {
            problems.push(format!(
                "untraced pass: {} of {} queries failed their check",
                run.failed, run.attempted
            ));
        }
        tracer = Tracer::new(true);
        run = run_workload(&args, &mut tracer);
        if run.fingerprint.0 != untraced_fp {
            problems
                .push("traced and untraced passes produced different model fingerprints".into());
        }
        for name in args.workload.traced_calls() {
            if tracer.durations_ms(name).is_empty() {
                problems.push(format!("the traced run recorded no {name} span"));
            }
        }
        let file = format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed);
        let written = out_dir().and_then(|dir| {
            let path = dir.join(file);
            std::fs::write(&path, tracer.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        });
        match written {
            Ok(path) => println!("spans: {} written to {}", tracer.spans().len(), path.display()),
            Err(e) => problems.push(e),
        }
    }
    problems.append(&mut run.problems);
    if run.failed > 0 {
        problems.push(format!("{} of {} queries failed their check", run.failed, run.attempted));
    }

    println!(
        "workload {} seed {} : {} attempted, {} device-answered, model fingerprint {:016x}",
        args.workload.name(),
        args.seed,
        run.attempted,
        run.device_answered,
        run.fingerprint.0
    );
    let (_, sim_pct, sim_n) = tail(&run.sim_ms);
    let (_, soj_pct, soj_n) = tail(&run.sojourn_ms);
    println!("sim_query_ms_tail is p{sim_pct:.2} of {sim_n} samples");
    println!("sojourn_ms_tail is p{soj_pct:.2} of {soj_n} samples");
    println!(
        "setup_s is the fastest of {} SsspService::new calls; their median is {:.4} ms",
        run.setup_ms.len(),
        p50(&run.setup_ms)
    );
    println!(
        "context: host_query_ms_p50 {:.3} ms, host_qps {:.3} 1/s, seq.dijkstra_ms {:.4} ms, \
         host_query_ms_p50 / seq.dijkstra_ms = {:.1}",
        p50(&run.host_query_ms),
        run.host_qps(),
        p50(&run.dijkstra_ms),
        frac(p50(&run.host_query_ms), p50(&run.dijkstra_ms))
    );
    let metrics = if args.trace {
        println!(
            "context: tracing overhead: host_qps traced {:.3} vs untraced {:.3}",
            run.host_qps(),
            untraced_qps
        );
        let (_, q_pct, q_n) = tail(&run.queue_ms);
        println!("traffic.queue_ms_tail is p{q_pct:.2} of {q_n} samples");
        per_layer(&run, &tracer, untraced_qps)
    } else {
        end_to_end(&run)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not finite", bad.name));
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().filter(|m| m.value.is_finite()).enumerate() {
        println!("{:<32} {:>18} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.attempted, run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
