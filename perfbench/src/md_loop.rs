//! The benchmark's workloads, `cnt-md` and `si64-dist`: back-to-back NVE
//! sessions of `session_steps` steps, each from a seeded start, every
//! `Session::step` timed.

use crate::layers;
use crate::procstat::{loadavg, peak_rss_mb, reset_peak_rss, HostReference, ProcDelta, ProcSample};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{block_rate, median, percentile, quartiles, spread, RATE_BLOCK_MS};
use crate::Args;
use std::time::{Duration, Instant};
use tbmd::md::derive_seed;
use tbmd::{
    Engine, EngineKind, ForceProvider, Protocol, SessionBuilder, SessionStatus, SimulationConfig,
    SimulationSummary, SystemSpec,
};

/// Energy agreement demanded of two engines on the same frame (eV), and of
/// forces (eV/Å).
const ENGINE_TOL: f64 = 1e-8;
/// Bound on a session's peak conserved-energy drift (eV).
const DRIFT_BOUND_EV: f64 = 0.1;

pub struct MdWorkload {
    pub system: SystemSpec,
    /// Run on `EngineKind::Distributed` with one rank per core instead of
    /// the default dense engine.
    pub distributed: bool,
    pub temperature_k: f64,
    pub dt_fs: f64,
    pub session_steps: usize,
    /// Steps of the traced run's capture session.
    pub capture_steps: usize,
}

/// (10,0) zig-zag nanotube, 2 cells: 80 C, 320 orbitals, XWCH model.
pub const CNT_MD: MdWorkload = MdWorkload {
    system: SystemSpec::Nanotube {
        n: 10,
        m: 0,
        cells: 2,
    },
    distributed: false,
    temperature_k: 2000.0,
    dt_fs: 0.5,
    session_steps: 60,
    capture_steps: 16,
};

/// Si-64 diamond cell on one virtual rank per core.
pub const SI64_DIST: MdWorkload = MdWorkload {
    system: SystemSpec::SiliconDiamond { reps: 2 },
    distributed: true,
    temperature_k: 1000.0,
    dt_fs: 1.0,
    session_steps: 90,
    capture_steps: 24,
};

impl MdWorkload {
    fn engine(&self) -> EngineKind {
        if self.distributed {
            EngineKind::Distributed {
                ranks: layers::nproc(),
            }
        } else {
            EngineKind::Serial
        }
    }

    /// Session `i`'s configuration: its seed (velocities and the starting
    /// displacement) is derived from the run seed.
    pub fn config(&self, run_seed: u64, i: u64) -> SimulationConfig {
        SimulationConfig {
            system: self.system,
            engine: self.engine(),
            protocol: Protocol::Nve {
                temperature_k: self.temperature_k,
                steps: self.session_steps,
                dt_fs: self.dt_fs,
            },
            electronic_kt: 0.1,
            perturb: 0.02,
            seed: derive_seed(run_seed, i),
            record_stride: self.session_steps / 2,
        }
    }
}

/// Checks on one finished session: drift, the layer replay against
/// `compute_with` on its last frame, the session's own energy for that
/// frame against the serial calculator, and (distributed) a fresh engine
/// evaluation against serial.
fn check_session(
    w: &MdWorkload,
    cfg: &SimulationConfig,
    summary: &SimulationSummary,
    rep: &mut Report,
) -> Result<(), String> {
    rep.check(
        "conserved-energy drift within bound",
        summary.conserved_drift <= DRIFT_BOUND_EV,
        format!(
            "{:.3e} eV over {} steps, bound {} eV",
            summary.conserved_drift, summary.steps, DRIFT_BOUND_EV
        ),
    );
    let frame = summary
        .trajectory
        .as_ref()
        .and_then(|t| t.frames().last())
        .ok_or("session recorded no frame")?;
    let model = cfg.system.model();
    let scheme = layers::occupation(cfg);
    let (serial, same) = layers::replay_matches(&model, scheme, &frame.structure)?;
    rep.check(
        "layer replay matches TbCalculator::compute_with bitwise",
        same,
        format!("frame at t={} fs", frame.time_fs),
    );
    let de = (frame.potential_energy - serial.energy).abs();
    rep.check(
        "session energy matches serial calculator",
        de <= ENGINE_TOL,
        format!("|dE| = {de:.2e} eV, tolerance {ENGINE_TOL:e}"),
    );
    if w.distributed {
        let engine = Engine::build(cfg.engine, &model, cfg.electronic_kt);
        let e = engine
            .evaluate(&frame.structure)
            .map_err(|e| format!("distributed evaluate: {e}"))?;
        let de = (e.energy - serial.energy).abs();
        let df = e
            .forces
            .iter()
            .zip(&serial.forces)
            .map(|(a, b)| {
                (a.x - b.x)
                    .abs()
                    .max((a.y - b.y).abs())
                    .max((a.z - b.z).abs())
            })
            .fold(0.0, f64::max);
        rep.check(
            "distributed evaluation matches serial",
            de <= ENGINE_TOL && df <= ENGINE_TOL,
            format!("|dE| = {de:.2e} eV, max |dF| = {df:.2e} eV/A, tolerance {ENGINE_TOL:e}"),
        );
    }
    Ok(())
}

pub fn run(w: &MdWorkload, args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let mut rep = Report::default();
    let load0 = loadavg().map_err(|e| e.to_string())?;
    let proc0 = ProcSample::now().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut host = HostReference::new(Duration::from_secs(1));
    let (mut setup_s, mut steady) = (Vec::new(), Vec::new());
    let mut longest_session = 0.0f64;
    // Peak resident memory of each session alone: the peak is reset as
    // the session starts and read when it ends, before its checks and
    // before the session is dropped.
    let mut peak_mb = Vec::new();
    let mut checking = ProcDelta::default();
    let mut i = 0u64;
    // Two sessions at least, so that every per-session figure has quartiles.
    while i < 2 || start.elapsed().as_secs_f64() + longest_session <= args.seconds {
        let cfg = w.config(args.seed, i);
        reset_peak_rss().map_err(|e| format!("reset peak RSS: {e}"))?;
        let t0 = Instant::now();
        let sp = tr.begin("core.build", i);
        let built = SessionBuilder::new(cfg).build();
        tr.end(sp);
        let mut session = built.map_err(|e| format!("session build: {e}"))?;
        let mut k = 0;
        loop {
            let sp = tr.begin("core.step", i);
            let ts = Instant::now();
            let r = session.step();
            let dt_ms = ts.elapsed().as_secs_f64() * 1e3;
            tr.end(sp);
            rep.op(r.is_ok());
            let status = r.map_err(|e| format!("session {i} step {k}: {e}"))?;
            if k == 0 {
                setup_s.push(t0.elapsed().as_secs_f64());
            } else {
                steady.push(dt_ms);
            }
            host.tick();
            k += 1;
            if status == SessionStatus::Done {
                break;
            }
        }
        longest_session = longest_session.max(t0.elapsed().as_secs_f64());
        let summary = session
            .take_summary()
            .ok_or("finished session has no summary")?;
        peak_mb.push(peak_rss_mb().map_err(|e| e.to_string())? - host.resident_mb());
        drop(session);
        let before = ProcSample::now().map_err(|e| e.to_string())?;
        check_session(w, &cfg, &summary, &mut rep)?;
        let after = ProcSample::now().map_err(|e| e.to_string())?;
        checking = checking.plus(&after.since(&before));
        i += 1;
    }
    // Process counters over the sessions alone, the checks taken out.
    let proc = ProcSample::now()
        .map_err(|e| e.to_string())?
        .since(&proc0)
        .minus(&checking);
    let load1 = loadavg().map_err(|e| e.to_string())?;
    let n_steps = (steady.len() + setup_s.len()) as f64;

    rep.note(format!(
        "host: {} cores, loadavg {:?} -> {:?}; process cpu user {:.0} ms sys {:.0} ms, \
         driver run-queue wait {:.1} ms over {:.0} ms wall",
        layers::nproc(),
        load0,
        load1,
        proc.user_ms,
        proc.sys_ms,
        proc.runq_wait_ms,
        proc.wall_ms
    ));
    rep.note(host.describe());
    let [q1, q2, q3] = quartiles(&steady);
    rep.note(format!(
        "steps: {} sessions of {} steps, {} steady steps, quartiles {q1:.3}/{q2:.3}/{q3:.3} ms, spread {:.4}",
        i,
        w.session_steps,
        steady.len(),
        spread(&steady)
    ));
    rep.metric(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {} session builds + first step", setup_s.len()),
    );
    let work: Vec<(f64, f64)> = steady.iter().map(|&ms| (1.0, ms)).collect();
    let (rate, blocks) = block_rate(&work, RATE_BLOCK_MS);
    rep.metric(
        "steps_per_s",
        rate,
        "1/s",
        format!(
            "median over {blocks} blocks of {RATE_BLOCK_MS} ms of steady steps, {} steps",
            steady.len()
        ),
    );
    rep.percentile("step_ms_p50", percentile(&steady, 50.0), "ms");
    rep.percentile("step_ms_p95", percentile(&steady, 95.0), "ms");
    // The largest, not the median: which sessions peak higher depends on
    // how the rank threads' allocations happen to overlap, and the
    // largest over a run varies less from run to run than the median.
    let [r1, r2, r3] = quartiles(&peak_mb);
    rep.metric(
        "peak_rss_mb",
        peak_mb.iter().copied().fold(0.0, f64::max),
        "MB",
        format!(
            "largest over {i} sessions (quartiles {r1:.3}/{r2:.3}/{r3:.3}) of VmHWM during the \
             session, checks excluded, less the {} MB host reference buffer",
            host.resident_mb()
        ),
    );

    if args.trace {
        rep.metric(
            "proc.cpu_ms_per_step",
            (proc.user_ms + proc.sys_ms) / n_steps,
            "ms",
            format!("{n_steps} steps"),
        );
        rep.metric(
            "proc.sys_ms_per_step",
            proc.sys_ms / n_steps,
            "ms",
            format!("{n_steps} steps"),
        );
        rep.metric(
            "proc.host_ref_us",
            median(&host.core_us),
            "us",
            format!("median of {} core reference samples", host.core_us.len()),
        );
        rep.metric(
            "proc.host_mem_gbps",
            median(&host.memory_gbps),
            "GB/s",
            format!(
                "median of {} memory reference samples",
                host.memory_gbps.len()
            ),
        );
        rep.metric(
            "proc.runq_wait_frac",
            proc.runq_wait_frac(),
            "frac",
            format!("driver thread over {:.0} ms", proc.wall_ms),
        );
        rep.metric(
            "core.step_ms",
            median(&tr.durations_ms("core.step")),
            "ms",
            "median Session::step".into(),
        );
        rep.metric(
            "core.build_ms",
            median(&tr.durations_ms("core.build")),
            "ms",
            "median SessionBuilder::build".into(),
        );
        layers::run(
            tr,
            &w.config(args.seed, u64::MAX),
            w.capture_steps,
            &mut rep,
        )?;
        layers::self_time_metrics(tr, &mut rep)?;
    }
    Ok(rep)
}
