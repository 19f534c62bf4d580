//! The traced run's layer probes: each layer's public functions called on
//! the workload's own configuration and frames, one span per call.
//!
//! Frames come from a capture session: the workload's configuration run
//! for a few steps with `record_stride = 1` and a recorder attached, so
//! every frame is a configuration at which the session evaluated forces.
//! Each frame is then evaluated three ways, each with a workspace that has
//! seen the same frames in the same order:
//!
//! * the workload's engine through `ForceProvider::evaluate_with`, the
//!   part of `Session::step` that is not integrator, recorder or
//!   checkpoint (`core.step_overhead_ms` is the difference);
//! * `TbCalculator::compute_with`, the serial engine's whole evaluation;
//! * the same evaluation rebuilt from the model and linalg layers' public
//!   functions, one span per layer. It must match `compute_with` bitwise,
//!   and its spans must sum to the `compute_with` time within the residual
//!   the run reports. The same replay, timed with its spans recorded and
//!   without, gives the tracing overhead.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use rayon::prelude::*;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tbmd::linalg::budget::budget_total;
use tbmd::linalg::{
    eigh_into, reduced_eigenvalues_into, reduced_eigenvectors_into, tridiagonalize_blocked_into,
    Matrix,
};
use tbmd::md::Frame;
use tbmd::model::{
    build_hamiltonian_into, density_matrix_into, electronic_forces, occupations, occupied_count,
    repulsive_energy_forces, NeighborOutcome, OrbitalIndex, KB_EV, TWO_STAGE_MIN_DIM,
};
use tbmd::{
    configure_budget, run_manifest, try_lease, CheckpointStore, ComputeLease, Engine, EngineKind,
    ForceProvider, OccupationScheme, Protocol, RecorderConfig, RunRecorder, Session,
    SessionBuilder, SimulationConfig, Snapshot, StatsSnapshot, TbCalculator, TbModel, Vec3,
    Workspace,
};
use tbmd_serve::{JobSpec, Multiplexer};

/// Frames on which the QL solve, which the two-stage step does not take,
/// is also timed, so each workload reports both solver paths.
const OTHER_PATH_FRAMES: usize = 3;
/// Empty width-2 fan-outs timed for `rayon.fanout_us`.
const FANOUTS: usize = 200;
/// Checkpoint writes timed for `ckpt.write_us`.
const CKPT_WRITES: usize = 64;
/// Passes over the capture frames, each frame replayed once with spans
/// recorded and once without, for `trace.overhead_frac`.
const OVERHEAD_PASSES: usize = 2;
/// Shape of the small multiplexer probe: neither workload has a scheduler
/// of its own.
const SERVE_PROBE_JOBS: usize = 4;
const SERVE_PROBE_STEPS: usize = 4;

/// A `Write` sink that only counts the bytes it is given.
#[derive(Clone, Default)]
pub struct CountingSink(pub Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A width-1 compute lease, whatever the process budget: the scope that
/// makes every fan-out site of a step run on the calling thread.
pub fn width_one_lease() -> Result<ComputeLease, String> {
    let total = budget_total();
    if total == 0 {
        configure_budget(1);
    }
    let lease = try_lease(1);
    if total == 0 {
        configure_budget(0);
    }
    lease.ok_or_else(|| "no thread left in the compute budget for a width-1 lease".to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn occupation(cfg: &SimulationConfig) -> OccupationScheme {
    if cfg.electronic_kt > 0.0 {
        OccupationScheme::Fermi {
            kt: cfg.electronic_kt,
        }
    } else {
        OccupationScheme::ZeroTemperature
    }
}

/// Energy and forces of one evaluation, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    pub energy: f64,
    pub forces: Vec<Vec3>,
}

impl Evaluation {
    pub fn bitwise_eq(&self, other: &Evaluation) -> bool {
        self.energy.to_bits() == other.energy.to_bits()
            && self.forces.len() == other.forces.len()
            && self.forces.iter().zip(&other.forces).all(|(a, b)| {
                a.x.to_bits() == b.x.to_bits()
                    && a.y.to_bits() == b.y.to_bits()
                    && a.z.to_bits() == b.z.to_bits()
            })
    }
}

/// Rebuild `TbCalculator::compute_with` from the layers' public functions,
/// one span per layer under an `eval.replay` span. Returns the evaluation
/// and whether the neighbour update rebuilt its list.
pub fn replay_layers(
    tr: &mut Tracer,
    model: &dyn TbModel,
    scheme: OccupationScheme,
    s: &tbmd::Structure,
    ws: &mut Workspace,
    req: u64,
) -> Result<(Evaluation, bool), String> {
    let root = tr.begin("eval.replay", req);

    let sp = tr.begin("structure.nl_update", req);
    let outcome = ws.neighbors.update(s, model.cutoff());
    tr.end(sp);

    let sp = tr.begin("model.hamiltonian", req);
    let index = OrbitalIndex::new(s);
    build_hamiltonian_into(s, ws.neighbors.list(), model, &index, &mut ws.h);
    tr.end(sp);

    let two_stage = ws.h.rows() >= TWO_STAGE_MIN_DIM;
    if two_stage {
        let sp = tr.begin("linalg.tridiag", req);
        tridiagonalize_blocked_into(&mut ws.h, &mut ws.eigh);
        tr.end(sp);
        let sp = tr.begin("linalg.spectrum", req);
        let r = reduced_eigenvalues_into(&mut ws.eigh, &mut ws.values);
        tr.end(sp);
        r.map_err(|e| format!("spectrum: {e:?}"))?;
    } else {
        let sp = tr.begin("linalg.ql_eigh", req);
        let r = eigh_into(&mut ws.h, &mut ws.values, &mut ws.eigh);
        tr.end(sp);
        r.map_err(|e| format!("QL: {e:?}"))?;
    }

    let sp = tr.begin("model.occupations", req);
    let occ = occupations(&ws.values, s.n_electrons(), scheme);
    let band = occ.band_energy(&ws.values);
    tr.end(sp);

    let (vectors, f_window) = if two_stage {
        let sp = tr.begin("linalg.eigvec", req);
        let k = occupied_count(&occ.f);
        reduced_eigenvectors_into(&ws.h, &ws.values[..k], &mut ws.c, &mut ws.eigh);
        tr.end(sp);
        (&ws.c, &occ.f[..k])
    } else {
        (&ws.h, &occ.f[..])
    };

    let sp = tr.begin("model.density", req);
    density_matrix_into(vectors, f_window, &mut ws.w, &mut ws.rho);
    tr.end(sp);

    let sp = tr.begin("model.forces", req);
    let nl = ws.neighbors.list();
    let mut forces = electronic_forces(s, nl, model, &index, &ws.rho);
    let (rep, rep_forces) = repulsive_energy_forces(s, nl, model, true);
    for (f, rf) in forces
        .iter_mut()
        .zip(rep_forces.expect("forces were requested"))
    {
        *f += rf;
    }
    tr.end(sp);

    let entropy_term = match scheme {
        OccupationScheme::Fermi { kt } if kt > 0.0 => -(kt / KB_EV) * occ.entropy,
        _ => 0.0,
    };
    tr.end(root);
    let rebuilt = !matches!(outcome, NeighborOutcome::Refreshed);
    Ok((
        Evaluation {
            energy: band + rep + entropy_term,
            forces,
        },
        rebuilt,
    ))
}

/// `TbCalculator::compute_with` on a fresh workspace against the layer
/// replay on another fresh workspace: the bitwise check every run makes on
/// its sampled frames. Returns the calculator's evaluation and whether the
/// replay matched it.
pub fn replay_matches(
    model: &dyn TbModel,
    scheme: OccupationScheme,
    s: &tbmd::Structure,
) -> Result<(Evaluation, bool), String> {
    let calc = TbCalculator::with_occupation(model, scheme);
    let r = calc
        .compute_with(s, &mut Workspace::new())
        .map_err(|e| e.to_string())?;
    let reference = Evaluation {
        energy: r.energy,
        forces: r.forces,
    };
    let mut off = Tracer::new(false);
    let (replayed, _) = replay_layers(&mut off, model, scheme, s, &mut Workspace::new(), 0)?;
    let same = replayed.bitwise_eq(&reference);
    Ok((reference, same))
}

/// What the capture session left behind.
struct Capture {
    frames: Vec<Frame>,
    recorded_bytes: u64,
    final_structure: tbmd::Structure,
    final_velocities: Vec<Vec3>,
}

/// A capture session: the workload's configuration `cfg` for
/// `capture_steps` steps, every frame recorded, a recorder into a counting
/// sink. Two of them built from the same arguments run bitwise the same
/// trajectory.
fn capture_session(
    cfg: &SimulationConfig,
    capture_steps: usize,
) -> Result<(Session<'static>, CountingSink), String> {
    let mut cfg = *cfg;
    cfg.record_stride = 1;
    cfg.protocol = match cfg.protocol {
        Protocol::Nve {
            temperature_k,
            dt_fs,
            ..
        } => Protocol::Nve {
            temperature_k,
            steps: capture_steps,
            dt_fs,
        },
        other => return Err(format!("capture needs an NVE protocol, got {other:?}")),
    };
    let bytes = CountingSink::default();
    let recorder = RunRecorder::to_writer(bytes.clone(), &run_manifest(&cfg))
        .map_err(|e| format!("recorder: {e}"))?;
    let session = SessionBuilder::new(cfg)
        .record_owned(
            recorder,
            RecorderConfig {
                health_stride: 0,
                checkpoint: None,
            },
        )
        .build()
        .map_err(|e| format!("capture build: {e}"))?;
    Ok((session, bytes))
}

fn capture(tr: &mut Tracer, cfg: &SimulationConfig, steps: usize) -> Result<Capture, String> {
    let sp = tr.begin("capture.build", 0);
    let built = capture_session(cfg, steps);
    tr.end(sp);
    let (mut session, bytes) = built?;
    for i in 0..steps {
        let sp = tr.begin("capture.step", i as u64);
        let r = session.step();
        tr.end(sp);
        r.map_err(|e| format!("capture step {i}: {e}"))?;
    }
    let summary = session
        .take_summary()
        .ok_or("capture session ended without a summary")?;
    if let Some(rec) = session.take_recorder() {
        rec.finish().map_err(|e| format!("recorder: {e}"))?;
    }
    Ok(Capture {
        frames: summary
            .trajectory
            .map(|t| t.frames().to_vec())
            .unwrap_or_default(),
        recorded_bytes: bytes.0.load(Ordering::Relaxed),
        final_structure: summary.final_structure,
        final_velocities: summary.final_velocities,
    })
}

/// `Session::step` minus the workload engine's `evaluate_with` on the
/// frame that step evaluated, taken in adjacent pairs so a change in host
/// speed between them cannot open a gap. A second capture session repeats
/// the first one's trajectory step by step. Returns per-pair differences
/// (ms), the first step, which also runs the initial evaluation, left out.
fn paired_step_overhead(
    cfg: &SimulationConfig,
    capture_steps: usize,
    frames: &[Frame],
    engine: &Engine<'_>,
) -> Result<Vec<f64>, String> {
    let (mut session, _) = capture_session(cfg, capture_steps)?;
    let mut ws = Workspace::new();
    let mut diffs = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        let step = |session: &mut Session<'static>| {
            let t = Instant::now();
            session
                .step()
                .map(|_| ms(t.elapsed()))
                .map_err(|e| format!("paired step {i}: {e}"))
        };
        let mut eval = || {
            let t = Instant::now();
            engine
                .evaluate_with(&f.structure, &mut ws)
                .map(|_| ms(t.elapsed()))
                .map_err(|e| format!("engine replay: {e}"))
        };
        // Alternate which side runs first, as the replay below does.
        let (s, e) = if i % 2 == 0 {
            let s = step(&mut session)?;
            (s, eval()?)
        } else {
            let e = eval()?;
            (step(&mut session)?, e)
        };
        if i > 0 {
            diffs.push(s - e);
        }
    }
    Ok(diffs)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run every probe on the workload's configuration `cfg` (its step count
/// replaced by `capture_steps`) and add the per-layer metrics they
/// measure to `rep`.
pub fn run(
    tr: &mut Tracer,
    cfg: &SimulationConfig,
    capture_steps: usize,
    rep: &mut Report,
) -> Result<(), String> {
    let model = cfg.system.model();
    let scheme = occupation(cfg);
    let kt = cfg.electronic_kt;

    // Capture session: frames and recorder bytes.
    let cap = capture(tr, cfg, capture_steps)?;
    if cap.frames.len() < 2 {
        return Err("capture session recorded fewer than two frames".into());
    }
    rep.metric(
        "trace.record_bytes_per_step",
        cap.recorded_bytes as f64 / capture_steps as f64,
        "bytes",
        format!("{capture_steps} steps into a counting sink"),
    );
    let engine = Engine::build(cfg.engine, &model, kt);
    let diffs = paired_step_overhead(cfg, capture_steps, &cap.frames, &engine)?;
    rep.metric(
        "core.step_overhead_ms",
        median(&diffs),
        "ms",
        format!(
            "median of {} adjacent Session::step - evaluate_with pairs",
            diffs.len()
        ),
    );

    // Serial calculator against its layer-by-layer replay.
    let calc = TbCalculator::with_occupation(&model, scheme);
    let (mut ws_ref, mut ws_rep, mut ws_other) =
        (Workspace::new(), Workspace::new(), Workspace::new());
    let mut syrk_scratch = Matrix::zeros(0, 0);
    let (mut rebuilds, mut matched) = (0usize, 0usize);
    let (mut occupied_frac, mut syrk_gflops) = (vec![], vec![]);
    let mut last_forces = Vec::new();
    for (i, f) in cap.frames.iter().enumerate() {
        let s = &f.structure;
        let req = i as u64;
        let reference = |tr: &mut Tracer, ws: &mut Workspace| {
            let sp = tr.begin("model.compute_with", req);
            let r = calc.compute_with(s, ws);
            tr.end(sp);
            r.map_err(|e| format!("compute_with: {e}"))
        };
        // Alternate the order so neither side always runs on warm caches.
        let (r, replayed) = if i % 2 == 0 {
            let r = reference(tr, &mut ws_ref)?;
            (r, replay_layers(tr, &model, scheme, s, &mut ws_rep, req)?)
        } else {
            let x = replay_layers(tr, &model, scheme, s, &mut ws_rep, req)?;
            (reference(tr, &mut ws_ref)?, x)
        };
        let (ev, rebuilt) = replayed;
        rebuilds += rebuilt as usize;
        let reference = Evaluation {
            energy: r.energy,
            forces: r.forces,
        };
        matched += ev.bitwise_eq(&reference) as usize;
        last_forces = reference.forces;

        let n = ws_rep.h.rows();
        let two_stage = n >= TWO_STAGE_MIN_DIM;
        let k = occupied_count(&r.occupations.f);
        occupied_frac.push(k as f64 / n as f64);

        // SYRK rate on this frame's own occupied factor W (n × k).
        let sp = tr.begin("linalg.syrk", req);
        let t = Instant::now();
        ws_rep.w.syrk_reuse(&mut syrk_scratch, true);
        let dt = t.elapsed().as_secs_f64();
        tr.end(sp);
        let kw = ws_rep.w.cols() as f64;
        syrk_gflops.push((n * (n + 1)) as f64 * kw / dt * 1e-9);

        // The QL solve the two-stage step does not take, on a rebuilt H.
        if two_stage && i < OTHER_PATH_FRAMES {
            let root = tr.begin("linalg.other_path", req);
            ws_other.neighbors.update(s, model.cutoff());
            let index = OrbitalIndex::new(s);
            build_hamiltonian_into(
                s,
                ws_other.neighbors.list(),
                &model,
                &index,
                &mut ws_other.h,
            );
            let sp = tr.begin("linalg.ql_eigh", req);
            let out = eigh_into(&mut ws_other.h, &mut ws_other.values, &mut ws_other.eigh);
            tr.end(sp);
            tr.end(root);
            out.map_err(|e| format!("QL probe: {e:?}"))?;
        }
    }
    let frames = cap.frames.len();
    rep.check(
        "layer replay matches TbCalculator::compute_with bitwise",
        matched == frames,
        format!("{matched}/{frames} capture frames"),
    );
    rep.metric(
        "structure.nl_rebuild_frac",
        rebuilds as f64 / frames as f64,
        "frac",
        format!("{rebuilds} rebuilds in {frames} NeighborWorkspace::update calls"),
    );
    rep.metric(
        "linalg.occupied_frac",
        median(&occupied_frac),
        "frac",
        "occupied eigenvectors k over dimension n".into(),
    );
    let n = ws_rep.h.rows() as f64;
    let tridiag_ms = median(&tr.durations_ms("linalg.tridiag"));
    rep.metric(
        "linalg.tridiag_gflops",
        4.0 / 3.0 * n.powi(3) / tridiag_ms * 1e-6,
        "GF/s",
        format!("computed 4n^3/3 flops at n={n} over the median blocked tridiagonalization"),
    );
    rep.metric(
        "linalg.syrk_gflops",
        median(&syrk_gflops),
        "GF/s",
        format!("computed n(n+1)k flops per SYRK of the occupied factor, {frames} frames"),
    );
    let eval_sum: f64 = tr.durations_ms("model.compute_with").iter().sum();
    let replay_sum: f64 = tr.durations_ms("eval.replay").iter().sum();
    let replay_self: f64 = tr.self_ms("eval.replay").iter().sum();
    let layers_sum = replay_sum - replay_self;
    rep.metric(
        "model.eval_residual_frac",
        (eval_sum - layers_sum) / eval_sum,
        "frac",
        format!(
            "compute_with {eval_sum:.3} ms vs layer spans {layers_sum:.3} ms over {frames} frames"
        ),
    );

    // Distributed against single-thread serial evaluation, same frames.
    let dist = Engine::build(EngineKind::Distributed { ranks: nproc() }, &model, kt);
    let serial = Engine::build(EngineKind::Serial, &model, kt);
    let one = width_one_lease()?;
    let (mut ws_d, mut ws_s) = (Workspace::new(), Workspace::new());
    for (i, f) in cap.frames.iter().enumerate() {
        let req = i as u64;
        let mut run_dist = |tr: &mut Tracer| {
            let sp = tr.begin("parallel.dist_eval", req);
            let r = dist.evaluate_with(&f.structure, &mut ws_d);
            tr.end(sp);
            r.map(drop).map_err(|e| format!("distributed: {e}"))
        };
        let mut run_serial = |tr: &mut Tracer| {
            let sp = tr.begin("parallel.serial_eval", req);
            let r = one.scoped(|| serial.evaluate_with(&f.structure, &mut ws_s));
            tr.end(sp);
            r.map(drop).map_err(|e| format!("serial: {e}"))
        };
        if i % 2 == 0 {
            run_dist(tr)?;
            run_serial(tr)?;
        } else {
            run_serial(tr)?;
            run_dist(tr)?;
        }
    }
    drop(one);
    let d = median(&tr.durations_ms("parallel.dist_eval"));
    let s = median(&tr.durations_ms("parallel.serial_eval"));
    rep.metric(
        "parallel.speedup",
        s / d,
        "x",
        format!(
            "base: width-1 serial {s:.4} ms over {} ranks {d:.4} ms",
            nproc()
        ),
    );

    // One empty width-2 fan-out of the vendored rayon.
    for i in 0..FANOUTS {
        let sp = tr.begin("rayon.fanout", i as u64);
        (0..2usize).into_par_iter().for_each(|j| {
            std::hint::black_box(j);
        });
        tr.end(sp);
    }

    // Checkpoint writes of the capture session's final state.
    let flat = |v: &[Vec3]| v.iter().flat_map(|p| [p.x, p.y, p.z]).collect::<Vec<f64>>();
    let mut snap = Snapshot {
        step: 0,
        time_fs: 0.0,
        seed: cfg.seed,
        config_fingerprint: 0,
        rng_state: 0,
        potential_energy: 0.0,
        conserved_ref: 0.0,
        drift: 0.0,
        recorded_steps: 0,
        positions: flat(cap.final_structure.positions()),
        velocities: flat(&cap.final_velocities),
        forces: flat(&last_forces),
        temp_stats: StatsSnapshot {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: 0.0,
            max: 0.0,
        },
        thermostat: None,
        ramp: None,
    };
    let store = CheckpointStore::in_memory(2);
    let mut bytes = 0;
    for i in 0..CKPT_WRITES {
        snap.step = i as u64;
        let sp = tr.begin("ckpt.write", i as u64);
        let r = store.write(&snap);
        tr.end(sp);
        bytes = r.map_err(|e| format!("checkpoint write: {e}"))?.bytes;
    }
    rep.metric(
        "ckpt.snapshot_bytes",
        bytes as f64,
        "bytes",
        format!("{} atoms", cap.final_structure.n_atoms()),
    );

    tracing_overhead(&model, scheme, &cap.frames, rep)?;
    serve_probe(tr, cfg, rep)
}

/// The benchmark's own tracing overhead on its densest span path: the
/// layer replay of every capture frame, timed whole with its spans
/// recorded into a scratch tracer and with the tracer off, in alternating
/// order. Each side keeps its own workspace, so both see the same frames
/// in the same order.
fn tracing_overhead(
    model: &dyn TbModel,
    scheme: OccupationScheme,
    frames: &[Frame],
    rep: &mut Report,
) -> Result<(), String> {
    let mut scratch = Tracer::new(true);
    let (mut ws_on, mut ws_off) = (Workspace::new(), Workspace::new());
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pass in 0..OVERHEAD_PASSES {
        for (i, f) in frames.iter().enumerate() {
            let req = i as u64;
            let mut timed = |traced: bool| {
                scratch.set_enabled(traced);
                let ws = if traced { &mut ws_on } else { &mut ws_off };
                let t = Instant::now();
                replay_layers(&mut scratch, model, scheme, &f.structure, ws, req)
                    .map(|_| ms(t.elapsed()))
            };
            if (pass + i) % 2 == 0 {
                on.push(timed(true)?);
                off.push(timed(false)?);
            } else {
                off.push(timed(false)?);
                on.push(timed(true)?);
            }
        }
    }
    let spans_per_replay = scratch.spans().len() / on.len();
    let (on, off) = (median(&on), median(&off));
    rep.metric(
        "trace.overhead_frac",
        on / off - 1.0,
        "frac",
        format!(
            "median layer replay {on:.4} ms with its {spans_per_replay} spans recorded vs \
             {off:.4} ms without, {} frames x {OVERHEAD_PASSES} passes",
            frames.len()
        ),
    );
    rep.metric(
        "trace.overhead_base_ms",
        off,
        "ms",
        "median untraced layer replay".into(),
    );
    Ok(())
}

/// A few short jobs of the workload's configuration through one
/// multiplexer under a 2-thread budget, for the serve layer's figures.
fn serve_probe(tr: &mut Tracer, base: &SimulationConfig, rep: &mut Report) -> Result<(), String> {
    let before = budget_total();
    configure_budget(2);
    let mut mux = Multiplexer::new();
    for j in 0..SERVE_PROBE_JOBS {
        let mut cfg = *base;
        cfg.seed = tbmd::md::derive_seed(base.seed, j as u64);
        if let Protocol::Nve { steps, .. } = &mut cfg.protocol {
            *steps = SERVE_PROBE_STEPS;
        }
        let mut spec = JobSpec::new(format!("probe-{j}"), cfg);
        spec.quantum = 2;
        spec.checkpoint_interval = 2;
        mux.submit(spec, CountingSink::default());
    }
    let mut ticks = 0;
    loop {
        let sp = tr.begin("serve.tick", ticks);
        let more = mux.tick();
        tr.end(sp);
        ticks += 1;
        if !more {
            break;
        }
    }
    configure_budget(before);
    let reports = mux.take_reports();
    let ok = reports.iter().filter(|r| r.outcome.is_ok()).count();
    rep.check(
        "serve probe jobs all ok",
        ok == SERVE_PROBE_JOBS,
        format!("{ok}/{SERVE_PROBE_JOBS}"),
    );
    let waits: Vec<f64> = reports.iter().map(|r| ms(r.queue_wait)).collect();
    rep.percentile("serve.queue_wait_ms_p50", percentile(&waits, 50.0), "ms");
    rep.percentile("serve.queue_wait_ms_p95", percentile(&waits, 95.0), "ms");
    Ok(())
}

/// Per-layer metrics that are medians of span self times.
pub const SELF_TIME_METRICS: [(&str, &str, &str, f64); 15] = [
    ("structure.nl_update_ms", "structure.nl_update", "ms", 1.0),
    ("model.hamiltonian_ms", "model.hamiltonian", "ms", 1.0),
    ("model.occupations_ms", "model.occupations", "ms", 1.0),
    ("model.density_ms", "model.density", "ms", 1.0),
    ("model.forces_ms", "model.forces", "ms", 1.0),
    ("model.eval_ms", "model.compute_with", "ms", 1.0),
    ("linalg.tridiag_ms", "linalg.tridiag", "ms", 1.0),
    ("linalg.spectrum_ms", "linalg.spectrum", "ms", 1.0),
    ("linalg.eigvec_ms", "linalg.eigvec", "ms", 1.0),
    ("linalg.ql_eigh_ms", "linalg.ql_eigh", "ms", 1.0),
    ("parallel.dist_eval_ms", "parallel.dist_eval", "ms", 1.0),
    ("parallel.serial_eval_ms", "parallel.serial_eval", "ms", 1.0),
    ("rayon.fanout_us", "rayon.fanout", "us", 1e3),
    ("ckpt.write_us", "ckpt.write", "us", 1e3),
    ("serve.tick_ms", "serve.tick", "ms", 1.0),
];

/// Add the span-derived metrics of [`SELF_TIME_METRICS`].
pub fn self_time_metrics(tr: &Tracer, rep: &mut Report) -> Result<(), String> {
    for (metric, span, unit, scale) in SELF_TIME_METRICS {
        let v = tr.self_ms(span);
        if v.is_empty() {
            return Err(format!("no {span} spans for {metric}"));
        }
        rep.metric(
            metric,
            median(&v) * scale,
            unit,
            format!("median self time of {} {span} spans", v.len()),
        );
    }
    Ok(())
}
