//! The four benchmark workloads: how each is configured, what its set-up
//! is, and how one simulated run is reduced to an [`Outcome`].
//!
//! Every configuration is built from `..Default::default()` and sets only
//! the fields the workload is about; see `perfbench/NOTES.md` for why each
//! workload exists and which layers it stresses.

use gimbal_repro::blobstore::{Blobstore, HbaConfig, HierarchicalAllocator, RateLimiter};
use gimbal_repro::broker::BrokerConfig;
use gimbal_repro::cache::{CacheConfig, WritePolicy};
use gimbal_repro::fabric::{FabricConfig, RdmaDelays, RetryConfig};
use gimbal_repro::lsm_kv::{IoCtx, LsmKv};
use gimbal_repro::rack::{RackConfig, RackResult, RackTestbed};
use gimbal_repro::sim::stats::LatencySummary;
use gimbal_repro::sim::{Digest, FaultPlan, SimDuration, SimRng, SimTime};
use gimbal_repro::ssd::{FlashSsd, SsdConfig};
use gimbal_repro::telemetry::{Component, TraceConfig};
use gimbal_repro::testbed::{
    check_kv_run, check_run, FaultConfig, KvRunResult, KvTestbed, KvTestbedConfig, Precondition,
    RunResult, Testbed, TestbedConfig, WorkerSpec,
};
use gimbal_repro::workload::{AccessPattern, FioSpec, YcsbMix};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// Multiplier on every workload's measured window (the steady-state
/// check); 1 for benchmark runs.
static WINDOW_X: AtomicU32 = AtomicU32::new(1);

pub fn set_window_x(x: u32) {
    WINDOW_X.store(x, Ordering::Relaxed);
}

/// A run of `warmup_ms` warm-up followed by the (scaled) measured window.
fn span(warmup_ms: u64, window_ms: u64) -> (SimDuration, SimDuration) {
    let x = u64::from(WINDOW_X.load(Ordering::Relaxed));
    (
        SimDuration::from_millis(warmup_ms + window_ms * x),
        SimDuration::from_millis(warmup_ms),
    )
}

/// Per-tenant samples the measured window must hold, so that every
/// per-tenant p99 has at least ten samples beyond it.
pub const MIN_TENANT_SAMPLES: u64 = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScaleRead,
    MixedFragWb,
    YcsbA,
    RackFailover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScaleRead,
        Workload::MixedFragWb,
        Workload::YcsbA,
        Workload::RackFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleRead => "scale-read",
            Workload::MixedFragWb => "mixed-frag-wb",
            Workload::YcsbA => "ycsb-a",
            Workload::RackFailover => "rack-failover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instrumentation a run is made with. Only `Off` runs feed end-to-end
/// metrics; the others exist for the traced (per-layer) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    Off,
    /// Record every command submission (the replay's input stream).
    Record,
    /// Structured telemetry on.
    Telemetry,
    /// Divergence-sanitizer journal on.
    Sanitize,
}

/// One tenant's measured-window result.
pub struct Tenant {
    pub group: String,
    pub ops: u64,
    pub bytes: u64,
    pub read: LatencySummary,
    pub write: LatencySummary,
}

/// One device command as the replay sees it.
#[derive(Clone, Copy, Debug)]
pub struct Cmd {
    pub at_ns: u64,
    pub write: bool,
    pub lba: u64,
    pub len: u32,
    pub tenant: u32,
}

/// The reduction of one simulated run.
pub struct Outcome {
    pub tenants: Vec<Tenant>,
    /// Measured window, simulated seconds.
    pub window_s: f64,
    /// Operations completed over the whole run (host-cost denominator).
    pub ops_total: u64,
    /// Device commands the switch pipelines received over the whole run.
    pub cmds_total: u64,
    /// Reads and writes SSD 0 served over the whole run.
    pub backend0: (u64, u64),
    /// Ops acknowledged and ops settled (issued minus in flight at the end).
    pub acked: u64,
    pub settled: u64,
    pub digest: u64,
    /// Engine events popped (`None` where the engine does not count them).
    pub events: Option<u64>,
    /// Exact per-layer counts read off the run's statistics.
    pub counters: Vec<(&'static str, &'static str, f64)>,
    /// Failed correctness checks (empty when every check passed).
    pub failures: Vec<String>,
    /// Commands submitted to SSD 0 (filled only under [`Instr::Record`]).
    pub stream: Vec<Cmd>,
    /// Telemetry event counts per component (filled only under
    /// [`Instr::Telemetry`]).
    pub telemetry: Vec<(&'static str, u64)>,
}

/// Everything the traced replay needs to rebuild one SSD of the run.
pub struct DeviceSpec {
    pub ssd: SsdConfig,
    pub precondition: Precondition,
    pub fabric: FabricConfig,
    pub cache: Option<CacheConfig>,
}

// ---------------------------------------------------------------- configs

const CAP_512M: u64 = 512 * 1024 * 1024;
const BLOCKS_512M: u64 = CAP_512M / 4096;

fn scale_read(seed: u64) -> (TestbedConfig, Vec<WorkerSpec>) {
    const SSDS: u32 = 4;
    const READERS: u32 = 512;
    // One 4 KiB random writer per SSD keeps the write metrics defined; at
    // 1 in 129 tenants it moves under 1 % of the bytes and triggers no GC.
    let per_region = BLOCKS_512M / u64::from(READERS / SSDS + 1);
    let mut workers: Vec<WorkerSpec> = (0..READERS)
        .map(|i| {
            let slot = u64::from(i / SSDS);
            let fio = FioSpec::paper_default(1.0, 4096, slot * per_region, per_region);
            WorkerSpec::new("4k-read", fio).on_ssd(i % SSDS)
        })
        .collect();
    for s in 0..SSDS {
        let start = u64::from(READERS / SSDS) * per_region;
        let fio = FioSpec::paper_default(0.0, 4096, start, per_region);
        workers.push(WorkerSpec::new("4k-write", fio).on_ssd(s));
    }
    let (duration, warmup) = span(600, 350);
    let cfg = TestbedConfig {
        num_ssds: SSDS,
        cores: SSDS,
        duration,
        warmup,
        seed,
        ..TestbedConfig::default()
    };
    (cfg, workers)
}

fn mixed_frag_wb(seed: u64) -> (TestbedConfig, Vec<WorkerSpec>) {
    const SSDS: u32 = 2;
    let zipf = |f: FioSpec| FioSpec {
        read_pattern: AccessPattern::Zipfian,
        write_pattern: AccessPattern::Zipfian,
        ..f
    };
    // Label, count, stream shape, burst on/off ms; regions are set below.
    type Group = (&'static str, u32, FioSpec, Option<(u64, u64)>);
    let groups: [Group; 4] = [
        (
            "4k-read-zipf",
            4,
            zipf(FioSpec::paper_default(1.0, 4096, 0, 1)),
            None,
        ),
        (
            "4k-write-zipf",
            4,
            zipf(FioSpec::paper_default(0.0, 4096, 0, 1)),
            None,
        ),
        (
            "128k-write-qd8",
            2,
            FioSpec {
                queue_depth: 8,
                ..FioSpec::paper_default(0.0, 128 * 1024, 0, 1)
            },
            None,
        ),
        (
            "4k-read-burst25x75",
            4,
            FioSpec::paper_default(1.0, 4096, 0, 1),
            Some((25, 75)),
        ),
    ];
    let total: u32 = groups.iter().map(|g| g.1).sum();
    let per_region = BLOCKS_512M / u64::from(total);
    let mut workers = Vec::new();
    let mut idx = 0u64;
    for (label, count, shape, burst) in groups {
        for k in 0..count {
            let mut fio = FioSpec {
                region_start: idx * per_region,
                region_blocks: per_region,
                ..shape
            };
            if let Some((on_ms, off_ms)) = burst {
                // Phases staggered evenly across the group, as jbofsim does.
                let period_ns = (on_ms + off_ms) * 1_000_000;
                fio = fio.with_burst(
                    SimDuration::from_millis(on_ms),
                    SimDuration::from_millis(off_ms),
                    SimDuration::from_nanos(u64::from(k) * period_ns / u64::from(count)),
                );
            }
            workers.push(WorkerSpec::new(label, fio).on_ssd((idx % u64::from(SSDS)) as u32));
            idx += 1;
        }
    }
    let (duration, warmup) = span(2000, 1500);
    let cfg = TestbedConfig {
        num_ssds: SSDS,
        cores: SSDS,
        precondition: Precondition::Fragmented,
        cache: Some(CacheConfig {
            capacity_bytes: 16 * 1024 * 1024,
            write_policy: WritePolicy::Back,
            ..CacheConfig::default()
        }),
        broker: Some(BrokerConfig {
            epoch: SimDuration::from_millis(17),
            ..BrokerConfig::default()
        }),
        duration,
        warmup,
        seed,
        ..TestbedConfig::default()
    };
    (cfg, workers)
}

pub fn ycsb_a(seed: u64) -> KvTestbedConfig {
    let (duration, warmup) = span(500, 2500);
    KvTestbedConfig {
        num_nodes: 1,
        ssds_per_node: 4,
        instances: 6,
        records_per_instance: 25_000,
        mix: YcsbMix::A,
        replicate: true,
        flow_control: true,
        load_balance: true,
        cache: None,
        duration,
        warmup,
        seed,
        ..KvTestbedConfig::default()
    }
}

pub fn rack_failover(seed: u64) -> RackConfig {
    let (duration, warmup) = span(30, 970);
    // jbofsim's canonical `--rack-fault node-death` (node 1 dies a third of
    // the way through the unscaled run) under the CLI's rack retry ladder.
    let death = SimTime::ZERO + SimDuration::from_millis(100);
    RackConfig {
        nodes: 3,
        ssds_per_node: 2,
        clients: 4,
        queue_depth: 4,
        read_ratio: 0.7,
        replicate: true,
        duration,
        warmup,
        seed,
        faults: Some(FaultConfig {
            plan: FaultPlan::default().with_node_death(1, death),
            retry: RetryConfig {
                base_timeout: SimDuration::from_millis(1),
                max_timeout: SimDuration::from_millis(8),
                max_retries: 5,
                suspect_after: 2,
            },
        }),
        ..RackConfig::default()
    }
}

// ---------------------------------------------------------------- set-up

fn build_devices(cfg: &SsdConfig, n: u32, pre: Precondition, rng: &mut SimRng) -> Vec<FlashSsd> {
    (0..n)
        .map(|_| {
            let mut ssd = FlashSsd::new(cfg.clone(), rng.next_u64());
            match pre {
                Precondition::Clean => ssd.precondition_clean(),
                Precondition::Fragmented => ssd.precondition_fragmented(),
                Precondition::None => {}
            }
            ssd
        })
        .collect()
}

/// The workload's set-up, timed by the caller: build the configuration,
/// build and precondition every device, and preload the KV stores. The
/// engines repeat this work inside their `run`, so the caller subtracts
/// it from the run's wall time.
pub fn setup(w: Workload, seed: u64) {
    let mut rng = SimRng::new(seed);
    match w {
        Workload::ScaleRead | Workload::MixedFragWb => {
            let (cfg, workers) = testbed(w, seed);
            let devs = build_devices(&cfg.ssd, cfg.num_ssds, cfg.precondition, &mut rng);
            black_box((&workers, &devs));
        }
        Workload::YcsbA => {
            let cfg = ycsb_a(seed);
            let devs = build_devices(&cfg.ssd, cfg.backends(), cfg.precondition, &mut rng);
            let (bs, kvs) = preload(&cfg, &mut rng);
            black_box((&devs, &bs, &kvs));
        }
        Workload::RackFailover => {
            let cfg = rack_failover(seed);
            let devs = build_devices(&cfg.ssd, cfg.backends(), cfg.precondition, &mut rng);
            black_box(&devs);
        }
    }
}

/// A blobstore over the KV workload's backends with every instance
/// preloaded, as the KV engine builds it.
pub fn preload(cfg: &KvTestbedConfig, rng: &mut SimRng) -> (Blobstore, Vec<(LsmKv, RateLimiter)>) {
    let backends = cfg.backends() as usize;
    let caps: Vec<u64> = (0..backends)
        .map(|_| cfg.ssd.logical_capacity / cfg.ssd.logical_page_bytes)
        .collect();
    let mut bs = Blobstore::new(
        HierarchicalAllocator::new(HbaConfig::default(), &caps),
        cfg.replicate,
    )
    .expect("the KV workload has enough backends to replicate");
    let kvs = (0..cfg.instances)
        .map(|_| {
            let mut kv = LsmKv::new(cfg.lsm, rng.next_u64());
            let lim = RateLimiter::new(backends, cfg.gimbal_params.initial_credit_ios, false);
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim: &lim,
                load_balance: cfg.load_balance,
            };
            kv.load(cfg.records_per_instance, &mut ctx);
            (kv, lim)
        })
        .collect();
    (bs, kvs)
}

pub fn testbed(w: Workload, seed: u64) -> (TestbedConfig, Vec<WorkerSpec>) {
    match w {
        Workload::ScaleRead => scale_read(seed),
        Workload::MixedFragWb => mixed_frag_wb(seed),
        _ => unreachable!("{} is not a testbed workload", w.name()),
    }
}

/// The device configuration behind SSD 0 of the workload.
pub fn device_spec(w: Workload, seed: u64) -> DeviceSpec {
    match w {
        Workload::ScaleRead | Workload::MixedFragWb => {
            let (cfg, _) = testbed(w, seed);
            DeviceSpec {
                ssd: cfg.ssd,
                precondition: cfg.precondition,
                fabric: cfg.fabric,
                cache: cfg.cache,
            }
        }
        Workload::YcsbA => {
            let cfg = ycsb_a(seed);
            DeviceSpec {
                ssd: cfg.ssd,
                precondition: cfg.precondition,
                fabric: cfg.fabric,
                cache: None,
            }
        }
        Workload::RackFailover => {
            let cfg = rack_failover(seed);
            DeviceSpec {
                ssd: cfg.ssd,
                precondition: cfg.precondition,
                fabric: cfg.fabric,
                cache: None,
            }
        }
    }
}

// ---------------------------------------------------------------- runs

/// Run the workload once under `instr` and reduce the result.
pub fn run(w: Workload, seed: u64, instr: Instr) -> Outcome {
    match w {
        Workload::ScaleRead | Workload::MixedFragWb => {
            let (mut cfg, workers) = testbed(w, seed);
            match instr {
                Instr::Off => {}
                Instr::Record => cfg.record_submissions = true,
                Instr::Telemetry => cfg.trace = Some(TraceConfig::default()),
                Instr::Sanitize => cfg.sanitize = true,
            }
            let ssd_of: Vec<u32> = workers.iter().map(|w| w.ssd).collect();
            let res = Testbed::new(cfg, workers).run();
            reduce_testbed(w, &res, &ssd_of)
        }
        Workload::YcsbA => {
            // The KV engine has no telemetry or sanitizer: every variant is
            // the plain run.
            let cfg = ycsb_a(seed);
            let res = KvTestbed::new(cfg.clone()).run();
            reduce_kv(&res, &cfg)
        }
        Workload::RackFailover => {
            let mut cfg = rack_failover(seed);
            match instr {
                Instr::Off | Instr::Record => {}
                Instr::Telemetry => cfg.trace = Some(TraceConfig::default()),
                Instr::Sanitize => cfg.sanitize = true,
            }
            let res = RackTestbed::new(cfg).run();
            reduce_rack(&res)
        }
    }
}

fn sum<T, F: Fn(&T) -> u64>(xs: &[T], f: F) -> u64 {
    xs.iter().map(f).sum()
}

/// `(mean, p99)` of device service latency over SSDs, µs, count-weighted.
fn device_service(res: &RunResult, op: usize) -> (f64, f64) {
    let n: u64 = res.device_latency.iter().map(|d| d[op].count).sum();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = res
        .device_latency
        .iter()
        .map(|d| d[op].mean_ns * d[op].count as f64)
        .sum::<f64>()
        / n as f64;
    let p99 = res
        .device_latency
        .iter()
        .map(|d| d[op].p99_ns as f64 * d[op].count as f64)
        .sum::<f64>()
        / n as f64;
    (mean / 1e3, p99 / 1e3)
}

fn ssd_counters(stats: &[gimbal_repro::ssd::SsdStats]) -> Vec<(&'static str, &'static str, f64)> {
    let host = sum(stats, |s| s.ftl.host_slot_writes);
    let gc = sum(stats, |s| s.ftl.gc_slot_writes);
    vec![
        (
            "ssd.write_amp",
            "ratio",
            if host == 0 {
                1.0
            } else {
                (host + gc) as f64 / host as f64
            },
        ),
        (
            "ssd.gc_collections",
            "count",
            sum(stats, |s| s.ftl.collections) as f64,
        ),
        (
            "ssd.buffer_stalls",
            "count",
            sum(stats, |s| s.buffer_stalls) as f64,
        ),
    ]
}

fn catch<F: FnOnce()>(what: &str, failures: &mut Vec<String>, f: F) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        failures.push(format!("{what} panicked"));
    }
}

fn reduce_testbed(w: Workload, res: &RunResult, ssd_of: &[u32]) -> Outcome {
    let mut failures = Vec::new();
    if !res.faults.conservation_holds() {
        failures.push(format!("conservation audit failed: {:?}", res.faults));
    }
    if w == Workload::MixedFragWb {
        catch("write-back oracle check_run", &mut failures, || {
            let reports = check_run(res);
            assert_eq!(reports.len(), res.write_back.len());
        });
        if res.write_back.is_empty() {
            failures.push("mixed-frag-wb ran without a write-back cache".into());
        }
        match &res.broker {
            Some(b) if b.conservation_holds() && b.floor_violations == 0 => {}
            other => failures.push(format!("broker audit failed: {other:?}")),
        }
    }
    let tenants: Vec<Tenant> = res
        .workers
        .iter()
        .map(|w| Tenant {
            group: w.label.clone(),
            ops: w.ops,
            bytes: w.bytes,
            read: w.read_latency,
            write: w.write_latency,
        })
        .collect();
    let f = &res.faults;
    let ops_total = f.completed_ok + f.completed_err + f.timed_out;
    let (dev_read_mean, dev_read_p99) = device_service(res, 0);
    let (_, dev_write_p99) = device_service(res, 1);
    let reads: u64 = sum(&res.workers, |w| w.read_latency.count);
    let client_read_mean = if reads == 0 {
        0.0
    } else {
        res.workers
            .iter()
            .map(|w| w.read_latency.mean_ns * w.read_latency.count as f64)
            .sum::<f64>()
            / reads as f64
            / 1e3
    };
    let unloaded = RdmaDelays::new(FabricConfig::default())
        .unloaded_read_overhead(4096)
        .as_nanos() as f64
        / 1e3;
    let mut counters = ssd_counters(&res.ssd_stats);
    counters.extend([
        ("ssd.read_service_p99_us", "us", dev_read_p99),
        ("ssd.write_service_p99_us", "us", dev_write_p99),
        (
            "switch.read_wait_mean_us",
            "us",
            client_read_mean - dev_read_mean - unloaded,
        ),
    ]);
    let hits = sum(&res.cache, |c| c.hits);
    let lookups = sum(&res.cache, |c| c.lookups());
    counters.extend([
        (
            "cache.hit_ratio",
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        ),
        (
            "cache.evictions",
            "count",
            sum(&res.cache, |c| c.evictions) as f64,
        ),
        (
            "cache.wb_acked",
            "count",
            sum(&res.write_back, |c| c.acked) as f64,
        ),
        (
            "cache.wb_flushed_lines",
            "count",
            sum(&res.write_back, |c| c.flushed_lines) as f64,
        ),
        (
            "cache.dirty_at_end",
            "count",
            sum(&res.write_back, |c| c.dirty_lines) as f64,
        ),
    ]);
    let b = res.broker.unwrap_or_default();
    counters.extend([
        ("broker.granted", "bytes", b.granted as f64),
        ("broker.denials", "count", b.denials as f64),
        ("broker.outstanding", "bytes", b.outstanding as f64),
        ("broker.borrow_events", "count", b.borrow_events as f64),
    ]);
    let stream = res
        .submissions
        .iter()
        .filter(|s| ssd_of[s.tenant as usize] == 0)
        .map(|s| Cmd {
            at_ns: s.at_ns,
            write: s.opcode == 1,
            lba: s.lba,
            len: s.len,
            tenant: s.tenant,
        })
        .collect();
    Outcome {
        tenants,
        window_s: res.workers[0].window.as_secs_f64(),
        ops_total,
        cmds_total: f.submitted,
        backend0: (res.ssd_stats[0].reads, res.ssd_stats[0].writes),
        acked: f.completed_ok,
        settled: f.submitted - f.in_flight_at_end,
        digest: res.stats_digest(),
        events: Some(res.events_processed),
        counters,
        failures,
        stream,
        telemetry: telemetry_counts(res.trace.as_ref()),
    }
}

fn telemetry_counts(
    t: Option<&gimbal_repro::telemetry::RecordedTrace>,
) -> Vec<(&'static str, u64)> {
    let Some(t) = t else { return Vec::new() };
    [
        Component::Congestion,
        Component::Rate,
        Component::WriteCost,
        Component::Scheduler,
        Component::Credit,
    ]
    .into_iter()
    .map(|c| (c.name(), t.metrics.counter(c.name())))
    .collect()
}

fn fold_summary(d: &mut Digest, s: &LatencySummary) {
    d.update_u64(s.count)
        .update_f64(s.mean_ns)
        .update_u64(s.p50_ns)
        .update_u64(s.p99_ns)
        .update_u64(s.p999_ns)
        .update_u64(s.max_ns);
}

/// The KV result has no digest of its own; fold every statistic it
/// reports, in a fixed order.
fn kv_digest(res: &KvRunResult) -> u64 {
    let mut d = Digest::new();
    for i in &res.instances {
        d.update_u64(i.ops);
        fold_summary(&mut d, &i.read_latency);
        fold_summary(&mut d, &i.write_latency);
        let l = &i.lsm;
        for v in [
            l.mem_hits,
            l.probe_reads,
            l.probe_misses,
            l.wal_writes,
            l.flushes,
            l.compactions,
            l.write_stalls,
            l.failed_read_retries,
            l.degraded_writes,
            l.background_write_bytes,
            l.background_read_bytes,
        ] {
            d.update_u64(v);
        }
    }
    for s in &res.ssd_stats {
        for v in [
            s.reads,
            s.writes,
            s.read_bytes,
            s.write_bytes,
            s.buffer_read_hits,
            s.nand_read_chunks,
            s.buffer_stalls,
            s.failed_cmds,
            s.ftl.host_slot_writes,
            s.ftl.gc_slot_writes,
            s.ftl.erases,
            s.ftl.collections,
        ] {
            d.update_u64(v);
        }
    }
    d.value()
}

fn reduce_kv(res: &KvRunResult, cfg: &KvTestbedConfig) -> Outcome {
    let mut failures = Vec::new();
    catch("write-back oracle check_kv_run", &mut failures, || {
        let reports = check_kv_run(res);
        assert_eq!(reports.len(), res.write_back.len());
    });
    let cmds = sum(&res.ssd_stats, |s| s.reads + s.writes);
    let failed = sum(&res.ssd_stats, |s| s.failed_cmds);
    if failed != 0 {
        failures.push(format!(
            "{failed} device commands failed on a fault-free run"
        ));
    }
    let tenants: Vec<Tenant> = res
        .instances
        .iter()
        .map(|i| Tenant {
            group: "kv".into(),
            ops: i.ops,
            bytes: i.ops,
            read: i.read_latency,
            write: i.write_latency,
        })
        .collect();
    let ops: u64 = sum(&res.instances, |i| i.ops);
    let lsm = |f: fn(&gimbal_repro::lsm_kv::LsmStats) -> u64| -> u64 {
        res.instances.iter().map(|i| f(&i.lsm)).sum()
    };
    // Background bytes accrue over the whole run, user writes only in the
    // measured window: scale the former to the window.
    let user_write_bytes =
        sum(&res.instances, |i| i.write_latency.count).max(1) as f64 * cfg.lsm.value_bytes as f64;
    let run_share = res.window.as_secs_f64() / cfg.duration.as_secs_f64();
    let mut counters = ssd_counters(&res.ssd_stats);
    counters.extend([
        ("lsm.compactions", "count", lsm(|l| l.compactions) as f64),
        ("lsm.flushes", "count", lsm(|l| l.flushes) as f64),
        ("lsm.write_stalls", "count", lsm(|l| l.write_stalls) as f64),
        (
            "lsm.bg_write_bytes_per_user_byte",
            "ratio",
            lsm(|l| l.background_write_bytes) as f64 * run_share / user_write_bytes,
        ),
        (
            "lsm.probe_reads_per_read",
            "ratio",
            lsm(|l| l.probe_reads) as f64
                / sum(&res.instances, |i| i.read_latency.count).max(1) as f64,
        ),
    ]);
    Outcome {
        tenants,
        window_s: res.window.as_secs_f64(),
        // The KV engine reports ops of the measured window only; host cost
        // is per measured-window op for this workload.
        ops_total: ops,
        cmds_total: cmds,
        backend0: (res.ssd_stats[0].reads, res.ssd_stats[0].writes),
        acked: cmds - failed,
        settled: cmds,
        digest: kv_digest(res),
        events: None,
        counters,
        failures,
        stream: Vec::new(),
        telemetry: Vec::new(),
    }
}

fn reduce_rack(res: &RackResult) -> Outcome {
    let mut failures = Vec::new();
    if !res.conservation_audit_holds() {
        failures.push(format!(
            "rack conservation audit failed: {:?} / {:?}",
            res.physical, res.rack
        ));
    }
    let r = &res.rack;
    if r.reroutes == 0 || res.ssd_stats[2].reads + res.ssd_stats[3].reads == 0 {
        failures.push("node-1 death did not exercise failover".into());
    }
    let tenants: Vec<Tenant> = res
        .clients
        .iter()
        .map(|c| Tenant {
            group: "client".into(),
            ops: c.ops,
            bytes: c.ops,
            read: c.read_latency,
            write: c.write_latency,
        })
        .collect();
    let p = &res.physical;
    let mut counters = ssd_counters(&res.ssd_stats);
    counters.extend([
        ("rack.timeouts", "count", p.timed_out as f64),
        ("rack.retries", "count", p.retries as f64),
        ("rack.reroutes", "count", r.reroutes as f64),
        ("rack.suspicions", "count", r.nodes_suspected as f64),
        ("rack.degraded_acks", "count", r.acked_degraded as f64),
        (
            "rack.tor_drops",
            "count",
            (r.tor_cmd_drops + r.tor_cpl_drops) as f64,
        ),
    ]);
    Outcome {
        tenants,
        window_s: res.window.as_secs_f64(),
        ops_total: r.acked_ok + r.acked_degraded + r.failed_typed,
        cmds_total: p.submitted,
        backend0: (res.ssd_stats[0].reads, res.ssd_stats[0].writes),
        acked: r.acked_ok + r.acked_degraded,
        settled: r.issued - r.in_flight_at_end,
        digest: res.stats_digest(),
        events: None,
        counters,
        failures,
        stream: Vec::new(),
        telemetry: telemetry_counts(res.trace.as_ref()),
    }
}
