//! The traced replay: one SSD's public stack driven from outside with a
//! wall-clock span around every call into a layer.
//!
//! A recorded (or synthesized) command stream is replayed open-loop through
//! `Pipeline<D>` over a timing [`StorageDevice`] adapter wrapping
//! `FlashSsd`, with a timing adapter around the scheme's [`SwitchPolicy`].
//! The replay's own event queue and fabric calls are spanned too. Spans nest:
//! a layer's self time is its span time minus the time of the spans opened
//! inside it, so the pipeline's self time excludes the device and policy
//! work it calls into. Spans live in memory and are written out at the end.

use crate::workloads::{Cmd, DeviceSpec};
use gimbal_repro::cache::SsdCache;
use gimbal_repro::fabric::{
    CmdId, FabricConfig, IoType, NvmeCmd, Port, Priority, RdmaDelays, SsdId, TenantId,
};
use gimbal_repro::gimbal::Params;
use gimbal_repro::sim::{EventQueue, SimDuration, SimTime};
use gimbal_repro::ssd::{FlashSsd, SsdCompletion, StorageDevice};
use gimbal_repro::switch::{
    CompletionInfo, Pipeline, PipelineConfig, PolicyPoll, Request, SwitchPolicy,
};
use gimbal_repro::telemetry::TraceHandle;
use gimbal_repro::testbed::{Precondition, Scheme};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// The layers the replay times, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Queue,
    Pipeline,
    Policy,
    Device,
    Cache,
    Fabric,
    Gen,
    Lsm,
}

pub const LAYERS: usize = 8;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Queue => "sim.queue",
            Layer::Pipeline => "switch.pipeline",
            Layer::Policy => "gimbal.policy",
            Layer::Device => "ssd.device",
            Layer::Cache => "cache",
            Layer::Fabric => "fabric",
            Layer::Gen => "workload.gen",
            Layer::Lsm => "lsm",
        }
    }
}

/// Spans kept for the written-out record; totals are exact regardless.
const KEPT_SPANS: usize = 1 << 18;

/// Empty spans timed to measure the recorder's own cost.
const CALIBRATION_SPANS: u64 = 200_000;

/// The span clock: the time-stamp counter where there is one (a read costs
/// a fraction of `Instant::now` on virtual machines), converted to ns
/// against `Instant` over the recorder's lifetime.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; it only reads the counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

struct SpanRec {
    layer: Layer,
    parent: Option<Layer>,
    start: u64,
    dur: u64,
}

/// In-memory span recorder. Durations are in ticks until reported.
pub struct Spans {
    epoch: (Instant, u64),
    /// Open spans: layer and the ticks already claimed by their children.
    stack: Vec<(Layer, u64)>,
    self_ticks: [u64; LAYERS],
    calls: [u64; LAYERS],
    /// Spans closed directly inside a span of each layer.
    child_calls: [u64; LAYERS],
    /// Recorder cost per span: the part inside the span's own interval,
    /// and the whole (what an enclosing span sees), in ticks.
    cost_inside: f64,
    cost_total: f64,
    kept: Vec<SpanRec>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: (Instant::now(), ticks()),
            stack: Vec::with_capacity(8),
            self_ticks: [0; LAYERS],
            calls: [0; LAYERS],
            child_calls: [0; LAYERS],
            cost_inside: 0.0,
            cost_total: 0.0,
            kept: Vec::with_capacity(KEPT_SPANS),
        }
    }

    fn ns_per_tick(&self) -> f64 {
        let ns = self.epoch.0.elapsed().as_nanos() as f64;
        let t = ticks().saturating_sub(self.epoch.1) as f64;
        if t > 0.0 {
            ns / t
        } else {
            1.0
        }
    }

    /// Self time of `l`, ns, less the recorder's own cost: each of the
    /// layer's spans carries `cost_inside`, and each span closed inside it
    /// carries the rest of a span's cost into its self time.
    pub fn self_ns(&self, l: Layer) -> f64 {
        let i = l as usize;
        let cost = self.calls[i] as f64 * self.cost_inside
            + self.child_calls[i] as f64 * (self.cost_total - self.cost_inside);
        (self.self_ticks[i] as f64 - cost).max(0.0) * self.ns_per_tick()
    }

    /// Write the kept spans as CSV (`layer,parent,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let k = self.ns_per_tick();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "layer,parent,start_ns,dur_ns")?;
        for s in &self.kept {
            writeln!(
                f,
                "{},{},{:.0},{:.0}",
                s.layer.name(),
                s.parent.map_or("-", Layer::name),
                s.start as f64 * k,
                s.dur as f64 * k
            )?;
        }
        f.flush()
    }
}

/// A span recorder handle; `None` times nothing.
#[derive(Clone, Default)]
pub struct Probe(Option<Rc<RefCell<Spans>>>);

impl Probe {
    /// A recorder whose own per-span cost has been measured on empty
    /// spans, so it can be taken out of every layer's self time.
    pub fn on() -> Self {
        let p = Probe(Some(Rc::new(RefCell::new(Spans::new()))));
        let t0 = ticks();
        for _ in 0..CALIBRATION_SPANS {
            p.time(Layer::Queue, || ());
        }
        let total = ticks().saturating_sub(t0) as f64 / CALIBRATION_SPANS as f64;
        {
            let mut s = p.0.as_ref().expect("on").borrow_mut();
            s.cost_inside = s.self_ticks[Layer::Queue as usize] as f64 / CALIBRATION_SPANS as f64;
            s.cost_total = total;
            s.self_ticks = [0; LAYERS];
            s.calls = [0; LAYERS];
            s.kept.clear();
        }
        p
    }

    pub fn off() -> Self {
        Probe(None)
    }

    pub fn spans(&self) -> Option<std::cell::Ref<'_, Spans>> {
        self.0.as_ref().map(|s| s.borrow())
    }

    /// Run `f` inside a span of `layer`.
    #[inline]
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let Some(s) = &self.0 else { return f() };
        s.borrow_mut().stack.push((layer, 0));
        let t0 = ticks();
        let r = f();
        let dur = ticks().saturating_sub(t0);
        let mut s = s.borrow_mut();
        let (_, child) = s.stack.pop().expect("span stack balanced");
        s.self_ticks[layer as usize] += dur.saturating_sub(child);
        s.calls[layer as usize] += 1;
        let parent = s.stack.last_mut().map(|(p, c)| {
            *c += dur;
            *p
        });
        if let Some(p) = parent {
            s.child_calls[p as usize] += 1;
        }
        if s.kept.len() < KEPT_SPANS {
            let start = t0.saturating_sub(s.epoch.1);
            s.kept.push(SpanRec {
                layer,
                parent,
                start,
                dur,
            });
        }
        r
    }
}

/// Timing adapter over a device.
struct TimedDevice<D> {
    inner: D,
    probe: Probe,
}

impl<D: StorageDevice> StorageDevice for TimedDevice<D> {
    fn submit(&mut self, tag: u64, op: IoType, lba: u64, len: u64, now: SimTime) {
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Device, || inner.submit(tag, op, lba, len, now))
    }
    fn poll(&mut self, now: SimTime) -> Vec<SsdCompletion> {
        let inner = &mut self.inner;
        self.probe.time(Layer::Device, || inner.poll(now))
    }
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<SsdCompletion>) {
        let inner = &mut self.inner;
        self.probe.time(Layer::Device, || inner.poll_into(now, out))
    }
    fn next_event_at(&self) -> Option<SimTime> {
        self.probe
            .time(Layer::Device, || self.inner.next_event_at())
    }
    fn inflight(&self) -> usize {
        self.probe.time(Layer::Device, || self.inner.inflight())
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

/// Timing adapter over a switch policy.
struct TimedPolicy {
    inner: Box<dyn SwitchPolicy>,
    probe: Probe,
}

impl SwitchPolicy for TimedPolicy {
    fn on_arrival(&mut self, req: Request, now: SimTime) {
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Policy, || inner.on_arrival(req, now))
    }
    fn next_submission(&mut self, now: SimTime, device_inflight: usize) -> PolicyPoll {
        let inner = &mut self.inner;
        self.probe.time(Layer::Policy, || {
            inner.next_submission(now, device_inflight)
        })
    }
    fn on_completion(&mut self, info: &CompletionInfo, now: SimTime) {
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Policy, || inner.on_completion(info, now))
    }
    fn credit_for(&mut self, tenant: TenantId) -> Option<u32> {
        let inner = &mut self.inner;
        self.probe.time(Layer::Policy, || inner.credit_for(tenant))
    }
    fn queued(&self) -> usize {
        self.probe.time(Layer::Policy, || self.inner.queued())
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn attach_trace(&mut self, trace: TraceHandle, ssd: SsdId) {
        self.inner.attach_trace(trace, ssd)
    }
}

/// What one replay did.
pub struct ReplayRun {
    pub wall_ns: u64,
    pub cmds: u64,
    pub completed: u64,
    pub events: u64,
}

fn device(spec: &DeviceSpec, seed: u64) -> FlashSsd {
    let mut ssd = FlashSsd::new(spec.ssd.clone(), seed);
    match spec.precondition {
        Precondition::Clean => ssd.precondition_clean(),
        Precondition::Fragmented => ssd.precondition_fragmented(),
        Precondition::None => {}
    }
    ssd
}

fn nvme(i: usize, c: &Cmd, now: SimTime) -> NvmeCmd {
    NvmeCmd {
        id: CmdId(i as u64),
        tenant: TenantId(c.tenant),
        ssd: SsdId(0),
        opcode: if c.write { IoType::Write } else { IoType::Read },
        lba: c.lba,
        len: c.len,
        priority: Priority::NORMAL,
        issued_at: now,
        wal: None,
    }
}

/// Replay `stream` through SSD 0's Gimbal pipeline. With `probe` on, the
/// device and policy sit behind timing adapters and every call is spanned;
/// with it off the stack is the bare one, which gives the adapters' cost.
pub fn replay(spec: &DeviceSpec, stream: &[Cmd], seed: u64, probe: &Probe) -> ReplayRun {
    let dev = device(spec, seed);
    let policy = Scheme::Gimbal.make_policy(SsdId(0), Params::default());
    let cfg = PipelineConfig {
        cpu_cost: Scheme::Gimbal.cpu_cost(false),
        ..PipelineConfig::default()
    };
    if probe.0.is_some() {
        let dev = TimedDevice {
            inner: dev,
            probe: probe.clone(),
        };
        let policy = Box::new(TimedPolicy {
            inner: policy,
            probe: probe.clone(),
        });
        drive(
            Pipeline::new(SsdId(0), dev, policy, cfg),
            spec.fabric,
            stream,
            probe,
        )
    } else {
        drive(
            Pipeline::new(SsdId(0), dev, policy, cfg),
            spec.fabric,
            stream,
            probe,
        )
    }
}

enum Rev {
    Send(usize),
    Arrive(NvmeCmd),
    Wake,
    Done,
}

fn drive<D: StorageDevice>(
    mut pipe: Pipeline<D>,
    fabric: FabricConfig,
    stream: &[Cmd],
    probe: &Probe,
) -> ReplayRun {
    let delays = RdmaDelays::new(fabric);
    let tenants = stream
        .iter()
        .map(|c| c.tenant as usize + 1)
        .max()
        .unwrap_or(0);
    let mut tx: Vec<Port> = (0..tenants)
        .map(|_| Port::new(fabric.port_bandwidth))
        .collect();
    let mut target = Port::new(fabric.port_bandwidth);
    let mut q: EventQueue<Rev> = EventQueue::new();
    let mut wake_at = SimTime::MAX;
    let (mut completed, mut events) = (0u64, 0u64);
    let t0 = Instant::now();
    if let Some(c) = stream.first() {
        q.push(SimTime::from_nanos(c.at_ns), Rev::Send(0));
    }
    while let Some((now, ev)) = probe.time(Layer::Queue, || q.pop()) {
        events += 1;
        let pump = match ev {
            Rev::Send(i) => {
                let c = &stream[i];
                let cmd = nvme(i, c, now);
                let port = &mut tx[c.tenant as usize];
                let arrive = probe.time(Layer::Fabric, || {
                    let a = delays.command_arrival(port, now, &cmd);
                    if c.write {
                        delays.write_payload_fetched(port, a, &cmd)
                    } else {
                        a
                    }
                });
                probe.time(Layer::Queue, || q.push(arrive, Rev::Arrive(cmd)));
                if let Some(next) = stream.get(i + 1) {
                    let at = SimTime::from_nanos(next.at_ns.max(c.at_ns));
                    probe.time(Layer::Queue, || q.push(at, Rev::Send(i + 1)));
                }
                false
            }
            Rev::Arrive(cmd) => {
                probe.time(Layer::Pipeline, || pipe.on_command(cmd, now));
                true
            }
            Rev::Wake => {
                let due = wake_at == now;
                if due {
                    wake_at = SimTime::MAX;
                }
                due
            }
            Rev::Done => {
                completed += 1;
                false
            }
        };
        if !pump {
            continue;
        }
        let outs = probe.time(Layer::Pipeline, || {
            pipe.poll(now);
            pipe.take_outputs()
        });
        for out in outs {
            let at = probe.time(Layer::Fabric, || {
                delays.completion_arrival(&mut target, out.at, &out.cmd)
            });
            probe.time(Layer::Queue, || q.push(at, Rev::Done));
        }
        if let Some(t) = probe.time(Layer::Pipeline, || pipe.next_event_at()) {
            let t = t.max(now + SimDuration::from_nanos(1));
            if t < wake_at {
                wake_at = t;
                probe.time(Layer::Queue, || q.push(t, Rev::Wake));
            }
        }
    }
    ReplayRun {
        wall_ns: t0.elapsed().as_nanos() as u64,
        cmds: stream.len() as u64,
        completed,
        events,
    }
}

/// Feed the stream through a standalone cache with the run's configuration:
/// reads look up and fill on miss, writes ack from DRAM or stage and pass
/// through, due flushes complete at once. Returns the commands fed.
pub fn cache_replay(spec: &DeviceSpec, stream: &[Cmd], probe: &Probe) -> u64 {
    let Some(cc) = &spec.cache else { return 0 };
    let mut cache = SsdCache::new(SsdId(0), cc.clone());
    // A mid-range device latency for the admission classifier.
    let service = SimDuration::from_micros(200);
    for (i, c) in stream.iter().enumerate() {
        let now = SimTime::from_nanos(c.at_ns);
        let cmd = nvme(i, c, now);
        probe.time(Layer::Cache, || {
            if c.write {
                if !cache.write_back_ack(&cmd, now) {
                    cache.stage_write(&cmd, now);
                    cache.on_write_completion(&cmd, false, now);
                }
            } else if !cache.try_read_hit(&cmd, now) {
                cache.on_read_completion(&cmd, service, false, now);
            }
            for f in cache.take_flushes(now) {
                cache.on_flush_completion(f.id, false, now);
            }
        });
    }
    stream.len() as u64
}
