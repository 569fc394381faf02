//! The traced run: per-layer host time from the replay, per-layer counts
//! from the run's own statistics, and the tracing overhead.
//!
//! Host-time parts are reported per end-to-end op, like `host_ns_per_op`:
//! a layer's replay self time per replayed command, times the run's device
//! commands per op. `engine.self_ns_per_op` is what remains of the traced
//! run's `host_ns_per_op`; it must not be negative.

use crate::clock::HostClock;
use crate::replay::{cache_replay, replay, Layer, Probe};
use crate::workloads::{self, Cmd, Instr, Outcome, Workload};
use gimbal_repro::lsm_kv::{IoCtx, TaggedIo};
use gimbal_repro::sim::{SimDuration, SimRng, SimTime};
use gimbal_repro::workload::{FioSpec, FioStream, YcsbWorkload};

/// One per-layer metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// Re-generate the stream's commands with the workers' own generators,
/// timing only the generator calls.
fn fio_gen(w: Workload, seed: u64, stream: &[Cmd], probe: &Probe) {
    let (_, workers) = workloads::testbed(w, seed);
    let mut rng = SimRng::new(seed);
    let mut gens: Vec<FioStream> = workers
        .iter()
        .enumerate()
        .map(|(i, wk)| FioStream::new(wk.fio, rng.fork(i as u64)))
        .collect();
    for c in stream {
        let g = &mut gens[c.tenant as usize];
        let now = SimTime::from_nanos(c.at_ns);
        std::hint::black_box(probe.time(Layer::Gen, || g.next_io(now)));
    }
}

/// The rack clients' physical stream on backend 0, synthesized: the run's
/// read/write counts on that backend, evenly spaced over the run, at 4 KiB
/// random addresses drawn by a FioStream (whose calls are the generator
/// layer).
fn rack_stream(o: &Outcome, seed: u64, probe: &Probe) -> (Vec<Cmd>, u64) {
    let cfg = workloads::rack_failover(seed);
    let (reads, writes) = o.backend0;
    let n = reads + writes;
    let mut fio = FioSpec::paper_default(
        reads as f64 / n.max(1) as f64,
        cfg.io_bytes,
        0,
        cfg.file_blocks * u64::from(cfg.clients),
    );
    fio.queue_depth = cfg.queue_depth;
    let mut gen = FioStream::new(fio, SimRng::new(seed));
    let step = cfg.duration.as_nanos() / n.max(1);
    let stream = (0..n)
        .map(|i| {
            let now = SimTime::from_nanos(i * step);
            let io = probe.time(Layer::Gen, || gen.next_io(now));
            Cmd {
                at_ns: now.as_nanos(),
                write: io.op.is_write(),
                lba: io.lba,
                len: io.len as u32,
                tenant: (i % u64::from(cfg.clients)) as u32,
            }
        })
        .collect();
    (stream, n)
}

/// Drive the KV workload's stores with instant IO: every IO an LSM call
/// returns completes at once. The instances' ops are interleaved at the
/// run's measured op rate; backend-0 IOs become the replay stream. Returns
/// the stream and the ops issued.
fn lsm_stream(o: &Outcome, seed: u64, probe: &Probe) -> (Vec<Cmd>, u64) {
    let cfg = workloads::ycsb_a(seed);
    let mut rng = SimRng::new(seed);
    let (mut bs, mut kvs) = workloads::preload(&cfg, &mut rng);
    let mut gens: Vec<YcsbWorkload> = (0..kvs.len())
        .map(|i| YcsbWorkload::new(cfg.mix, cfg.records_per_instance, rng.fork(i as u64)))
        .collect();
    let ops = o.ops_total;
    let step_ns = (cfg.duration.as_nanos() / ops.max(1)).max(1);
    let pump_every = SimDuration::from_micros(200).as_nanos();
    let mut stream = Vec::new();
    let mut pending: Vec<(usize, TaggedIo)> = Vec::new();
    let mut last_pump = 0;
    for k in 0..ops {
        let now = SimTime::from_nanos(k * step_ns);
        let i = (k % kvs.len() as u64) as usize;
        let op = probe.time(Layer::Gen, || gens[i].next_op());
        {
            let (kv, lim) = &mut kvs[i];
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim,
                load_balance: cfg.load_balance,
            };
            let (_, out) = probe.time(Layer::Lsm, || kv.begin_op(op, now, &mut ctx));
            pending.extend(out.ios.into_iter().map(|io| (i, io)));
        }
        if now.as_nanos() - last_pump >= pump_every {
            last_pump = now.as_nanos();
            for (j, (kv, lim)) in kvs.iter_mut().enumerate() {
                let mut ctx = IoCtx {
                    bs: &mut bs,
                    lim,
                    load_balance: cfg.load_balance,
                };
                let out = probe.time(Layer::Lsm, || kv.pump(now, &mut ctx));
                pending.extend(out.ios.into_iter().map(|io| (j, io)));
            }
        }
        while let Some((j, io)) = pending.pop() {
            if io.plan.backend.index() == 0 {
                stream.push(Cmd {
                    at_ns: now.as_nanos(),
                    write: io.plan.op.is_write(),
                    lba: io.plan.lba,
                    len: (io.plan.blocks * 4096) as u32,
                    tenant: j as u32,
                });
            }
            let (kv, lim) = &mut kvs[j];
            let mut ctx = IoCtx {
                bs: &mut bs,
                lim,
                load_balance: cfg.load_balance,
            };
            let out = probe.time(Layer::Lsm, || kv.io_done(io.tag, now, &mut ctx));
            pending.extend(out.ios.into_iter().map(|io| (j, io)));
        }
    }
    (stream, ops)
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

/// The traced run. `setup_ns` is the median raw set-up time, subtracted
/// from every run's wall time as in the untraced run.
pub fn traced(
    clock: &mut HostClock,
    w: Workload,
    seed: u64,
    setup_ns: f64,
    failures: &mut Vec<String>,
) -> (Vec<Metric>, u64, u64) {
    let mut timed_run = |instr| clock.measure(|| workloads::run(w, seed, instr));
    // Plain runs bracket the instrumented ones so drift shows in both.
    let (base, off_a) = timed_run(Instr::Off);
    let (rec, rec_ns) = timed_run(Instr::Record);
    let (tel, tel_ns) = timed_run(Instr::Telemetry);
    let (_, san_ns) = timed_run(Instr::Sanitize);
    let (again, off_b) = timed_run(Instr::Off);
    if again.digest != base.digest || rec.digest != base.digest {
        failures.push("traced-run digests differ between the plain and recorded runs".into());
    }
    failures.extend(base.failures.iter().cloned());
    let ops = base.ops_total as f64;
    let off_ns = median(vec![off_a, off_b]);
    let host = (off_ns - setup_ns) / ops;
    let has_engine_instr = w != Workload::YcsbA;

    // The replay stream, and the generator/LSM layers that produce it.
    let probe = Probe::on();
    let (stream, generated) = match w {
        Workload::ScaleRead | Workload::MixedFragWb => {
            fio_gen(w, seed, &rec.stream, &probe);
            (rec.stream, None)
        }
        Workload::YcsbA => {
            let (s, n) = lsm_stream(&base, seed, &probe);
            (s, Some(n))
        }
        Workload::RackFailover => {
            let (s, n) = rack_stream(&base, seed, &probe);
            (s, Some(n))
        }
    };
    let spec = workloads::device_spec(w, seed);
    let bare = replay(&spec, &stream, seed, &Probe::off());
    let timed = replay(&spec, &stream, seed, &probe);
    cache_replay(&spec, &stream, &probe);
    if timed.completed != timed.cmds || bare.completed != bare.cmds {
        failures.push(format!(
            "replay lost commands: {}/{} and {}/{} completed",
            bare.completed, bare.cmds, timed.completed, timed.cmds
        ));
    }
    let spans = probe.spans().expect("probe is on");
    let cmds = timed.cmds.max(1) as f64;
    let cmds_per_op = base.cmds_total as f64 / ops;
    let per_cmd = |l: Layer| spans.self_ns(l) / cmds * cmds_per_op;
    // Queue time per replay event, scaled by the engine's events per op
    // where the engine counts them.
    let queue = match base.events {
        Some(ev) => spans.self_ns(Layer::Queue) / timed.events.max(1) as f64 * ev as f64 / ops,
        None => per_cmd(Layer::Queue),
    };
    // Generated ops (KV ops, rack logical IOs) are one per end-to-end op;
    // fio commands are one per device command.
    let per_gen = |l: Layer| match generated {
        Some(n) => spans.self_ns(l) / n.max(1) as f64,
        None => per_cmd(l),
    };
    let parts = [
        ("sim.queue_ns_per_op", queue),
        ("switch.pipeline_self_ns_per_op", per_cmd(Layer::Pipeline)),
        ("gimbal.policy_ns_per_op", per_cmd(Layer::Policy)),
        ("ssd.device_ns_per_op", per_cmd(Layer::Device)),
        ("cache.ns_per_op", per_cmd(Layer::Cache)),
        ("fabric.ns_per_op", per_cmd(Layer::Fabric)),
        ("workload.gen_ns_per_op", per_gen(Layer::Gen)),
        ("lsm.ns_per_op", per_gen(Layer::Lsm)),
    ];
    let engine_self = host - parts.iter().map(|p| p.1).sum::<f64>();
    if engine_self < 0.0 {
        failures.push(format!(
            "per-layer parts exceed host_ns_per_op ({host:.0} ns): engine self time {engine_self:.0} ns"
        ));
    }
    let mut m: Vec<Metric> = vec![("trace.host_ns_per_op".into(), "ns", host)];
    m.extend(parts.iter().map(|(n, v)| (n.to_string(), "ns", *v)));
    m.push(("engine.self_ns_per_op".into(), "ns", engine_self));
    m.push((
        "sim.events_per_op".into(),
        "count",
        base.events.map_or(0.0, |e| e as f64 / ops),
    ));
    let instr_delta = |ns: f64| {
        if has_engine_instr {
            (ns - off_ns) / ops
        } else {
            0.0
        }
    };
    m.push(("telemetry.on_ns_per_op".into(), "ns", instr_delta(tel_ns)));
    m.push(("journal.on_ns_per_op".into(), "ns", instr_delta(san_ns)));
    m.push((
        "trace.replay_overhead_ns_per_op".into(),
        "ns",
        (timed.wall_ns as f64 - bare.wall_ns as f64) / cmds * cmds_per_op,
    ));
    m.push((
        "trace.record_overhead_ns_per_op".into(),
        "ns",
        if w == Workload::ScaleRead || w == Workload::MixedFragWb {
            (rec_ns - off_ns) / ops
        } else {
            0.0
        },
    ));
    m.push(("trace.replay_cmds".into(), "count", timed.cmds as f64));
    let tel_counts = |c: &str| {
        tel.telemetry
            .iter()
            .find(|(n, _)| *n == c)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    for c in ["congestion", "rate", "write_cost", "scheduler", "credit"] {
        m.push((format!("telemetry.events.{c}"), "count", tel_counts(c)));
    }
    m.extend(
        base.counters
            .iter()
            .map(|(n, u, v)| (n.to_string(), *u, *v)),
    );
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    let csv = dir.join(format!("spans-{}-{seed}.csv", w.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| spans.write_csv(&csv)) {
        failures.push(format!("writing {}: {e}", csv.display()));
    } else {
        println!("spans: {}", csv.display());
    }
    // Every host time above is raw wall time: normalise them together.
    drop(spans);
    let k = clock.factor();
    for (_, unit, v) in &mut m {
        if *unit == "ns" {
            *v *= k;
        }
    }
    (m, base.settled, base.settled - base.acked)
}
