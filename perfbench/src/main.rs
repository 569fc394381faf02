//! gimbal-perfbench: the repository benchmark.
//!
//! ```text
//! gimbal-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--window-x K]
//! ```
//!
//! `--trace 0` repeats set-up and the simulated run until `S` wall seconds
//! have passed and prints every end-to-end metric; `--trace 1` makes the
//! traced run and prints every per-layer metric. `--window-x K` lengthens
//! the measured window K-fold (the steady-state check). The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod clock;
mod layers;
mod replay;
mod workloads;

use clock::HostClock;
use gimbal_repro::sim::stats::LatencySummary;
use gimbal_repro::testbed::jain_index;
use std::process::exit;
use std::time::Instant;
use workloads::{Instr, Outcome, Workload, MIN_TENANT_SAMPLES};

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: [(&str, &str); 47] = [
    ("trace.host_ns_per_op", "ns"),
    ("sim.queue_ns_per_op", "ns"),
    ("switch.pipeline_self_ns_per_op", "ns"),
    ("gimbal.policy_ns_per_op", "ns"),
    ("ssd.device_ns_per_op", "ns"),
    ("cache.ns_per_op", "ns"),
    ("fabric.ns_per_op", "ns"),
    ("workload.gen_ns_per_op", "ns"),
    ("lsm.ns_per_op", "ns"),
    ("engine.self_ns_per_op", "ns"),
    ("sim.events_per_op", "count"),
    ("telemetry.on_ns_per_op", "ns"),
    ("journal.on_ns_per_op", "ns"),
    ("trace.replay_overhead_ns_per_op", "ns"),
    ("trace.record_overhead_ns_per_op", "ns"),
    ("trace.replay_cmds", "count"),
    ("telemetry.events.congestion", "count"),
    ("telemetry.events.rate", "count"),
    ("telemetry.events.write_cost", "count"),
    ("telemetry.events.scheduler", "count"),
    ("telemetry.events.credit", "count"),
    ("ssd.write_amp", "ratio"),
    ("ssd.gc_collections", "count"),
    ("ssd.buffer_stalls", "count"),
    ("ssd.read_service_p99_us", "us"),
    ("ssd.write_service_p99_us", "us"),
    ("switch.read_wait_mean_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.wb_acked", "count"),
    ("cache.wb_flushed_lines", "count"),
    ("cache.dirty_at_end", "count"),
    ("broker.granted", "bytes"),
    ("broker.denials", "count"),
    ("broker.outstanding", "bytes"),
    ("broker.borrow_events", "count"),
    ("lsm.compactions", "count"),
    ("lsm.flushes", "count"),
    ("lsm.write_stalls", "count"),
    ("lsm.bg_write_bytes_per_user_byte", "ratio"),
    ("lsm.probe_reads_per_read", "ratio"),
    ("rack.timeouts", "count"),
    ("rack.retries", "count"),
    ("rack.reroutes", "count"),
    ("rack.suspicions", "count"),
    ("rack.degraded_acks", "count"),
    ("rack.tor_drops", "count"),
];

/// Set-up repetitions: at least `SETUP_MIN`, more while they fit in a
/// fifth of the run, at most `SETUP_MAX`.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 21;
/// Simulated runs per untraced measurement, at least.
const RUNS_MIN: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    window_x: u32,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: gimbal-perfbench --workload {} --seed N --seconds S --trace 0|1 [--window-x K]",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: Workload::ScaleRead,
        seed: 0,
        seconds: 0.0,
        trace: false,
        window_x: 1,
    };
    let mut seen = [false; 3];
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => {
                a.workload = Workload::parse(val)
                    .unwrap_or_else(|| usage(&format!("unknown workload {val}")));
                seen[0] = true;
            }
            "--seed" => {
                a.seed = val.parse().unwrap_or_else(|_| usage("bad --seed"));
                seen[1] = true;
            }
            "--seconds" => {
                a.seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                seen[2] = true;
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--window-x" => {
                a.window_x = val.parse().unwrap_or_else(|_| usage("bad --window-x"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if seen.contains(&false) {
        usage("--workload, --seed and --seconds are required");
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 || a.window_x == 0 {
        usage("--seconds and --window-x must be positive");
    }
    a
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median wall time of repeated set-ups, ns: raw, and normalised by the
/// calibration loops run between them.
fn time_setup(w: Workload, seed: u64, budget_s: f64, max: usize) -> (f64, f64) {
    let mut clock = HostClock::new();
    let t0 = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < max && (xs.len() < SETUP_MIN || t0.elapsed().as_secs_f64() < budget_s) {
        xs.push(clock.measure(|| workloads::setup(w, seed)).1);
    }
    let raw = median(xs);
    (raw, raw * clock.factor())
}

/// Tenant-mean of a per-tenant latency statistic over tenants that issued
/// that op, µs; `None` when no tenant did.
fn tenant_mean(o: &Outcome, read: bool, pick: fn(&LatencySummary) -> f64) -> Option<f64> {
    let xs: Vec<f64> = o
        .tenants
        .iter()
        .map(|t| if read { &t.read } else { &t.write })
        .filter(|s| s.count > 0)
        .map(|s| pick(s) / 1e3)
        .collect();
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The simulated end-to-end metrics of one run, plus the tenant-sample
/// check.
fn simulated(o: &Outcome, failures: &mut Vec<String>) -> Vec<(&'static str, &'static str, f64)> {
    for (k, t) in o.tenants.iter().enumerate() {
        for (op, s) in [("read", &t.read), ("write", &t.write)] {
            if s.count > 0 && s.count < MIN_TENANT_SAMPLES {
                failures.push(format!(
                    "tenant {k} ({}) has {} {op} samples, fewer than {MIN_TENANT_SAMPLES}",
                    t.group, s.count
                ));
            }
        }
        if t.read.count + t.write.count == 0 {
            failures.push(format!("tenant {k} ({}) completed nothing", t.group));
        }
    }
    let ops: u64 = o.tenants.iter().map(|t| t.ops).sum();
    let mut groups: Vec<&str> = o.tenants.iter().map(|t| t.group.as_str()).collect();
    groups.dedup();
    let jain = groups
        .iter()
        .map(|g| {
            let bw: Vec<f64> = o
                .tenants
                .iter()
                .filter(|t| t.group == *g)
                .map(|t| t.bytes as f64)
                .collect();
            jain_index(&bw)
        })
        .fold(1.0, f64::min);
    let worst_p99 = o
        .tenants
        .iter()
        .flat_map(|t| [&t.read, &t.write])
        .filter(|s| s.count > 0)
        .map(|s| s.p99_ns as f64 / 1e3)
        .fold(0.0, f64::max);
    let mut lat = |name: &'static str, read: bool, pick: fn(&LatencySummary) -> f64| {
        let v = tenant_mean(o, read, pick).unwrap_or_else(|| {
            failures.push(format!("{name}: no tenant issued that op"));
            0.0
        });
        (name, "us", v)
    };
    vec![
        ("sim_kops", "kops", ops as f64 / o.window_s / 1e3),
        lat("read_mean_us", true, |s| s.mean_ns),
        lat("read_p999_us", true, |s| s.p999_ns as f64),
        lat("write_mean_us", false, |s| s.mean_ns),
        lat("write_p999_us", false, |s| s.p999_ns as f64),
        ("worst_tenant_p99_us", "us", worst_p99),
        ("jain", "ratio", jain),
        (
            "ok_ratio",
            "ratio",
            o.acked as f64 / o.settled.max(1) as f64,
        ),
    ]
}

fn json_metrics(ms: &[(String, &str, f64)], failures: &mut Vec<String>) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() {
                *v
            } else {
                failures.push(format!("{n} is not finite"));
                0.0
            };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let a = parse_args();
    let w = a.workload;
    workloads::set_window_x(a.window_x);
    let started = Instant::now();
    let mut failures = Vec::new();
    println!(
        "workload {} seed {} seconds {} trace {} window-x {}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.window_x
    );

    let (metrics, attempted, failed): (Vec<(String, &str, f64)>, u64, u64) = if a.trace {
        let (setup_ns, _) = time_setup(w, a.seed, 0.0, SETUP_MIN);
        let (got, attempted, failed) =
            layers::traced(&mut HostClock::new(), w, a.seed, setup_ns, &mut failures);
        let mut ms = Vec::new();
        for (name, unit) in PER_LAYER {
            let v = got.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
            ms.push((name.to_string(), unit, v));
        }
        for m in &got {
            if !PER_LAYER.iter().any(|p| p.0 == m.0) {
                failures.push(format!("traced metric {} is not declared", m.0));
            }
        }
        (ms, attempted, failed)
    } else {
        let (setup_ns, setup_norm) = time_setup(w, a.seed, a.seconds / 5.0, SETUP_MAX);
        let mut clock = HostClock::new();
        let mut hosts = Vec::new();
        let mut first: Option<Outcome> = None;
        while hosts.len() < RUNS_MIN || started.elapsed().as_secs_f64() < a.seconds {
            let (o, ns) = clock.measure(|| workloads::run(w, a.seed, Instr::Off));
            hosts.push(ns - setup_ns);
            match &first {
                None => first = Some(o),
                Some(f) if f.digest != o.digest => {
                    failures.push(format!(
                        "double run diverged: stats digest {:#018x} then {:#018x}",
                        f.digest, o.digest
                    ));
                }
                Some(_) => {}
            }
        }
        let o = first.expect("at least one run");
        failures.extend(o.failures.iter().cloned());
        let k = clock.factor();
        println!("stats_digest {:#018x}", o.digest);
        println!(
            "runs {} wall_ms {:?} setup_ms {:.3} calibration_factor {k:.4}",
            hosts.len(),
            hosts.iter().map(|x| (x / 1e6).round()).collect::<Vec<_>>(),
            setup_ns / 1e6
        );
        let mut ms: Vec<(String, &str, f64)> = vec![
            (
                "host_ns_per_op".into(),
                "ns",
                median(hosts) * k / o.ops_total.max(1) as f64,
            ),
            ("setup_s".into(), "s", setup_norm / 1e9),
            (
                "peak_rss_mb".into(),
                "MiB",
                peak_rss_mb().unwrap_or_else(|| {
                    failures.push("cannot read peak RSS".into());
                    0.0
                }),
            ),
        ];
        ms.extend(
            simulated(&o, &mut failures)
                .into_iter()
                .map(|(n, u, v)| (n.to_string(), u, v)),
        );
        (ms, o.settled, o.settled - o.acked)
    };

    let metrics = json_metrics(&metrics, &mut failures);
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        attempted.max(1),
        failed,
        metrics
    );
}
