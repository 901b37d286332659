//! `hpcstruct-tf`: the paper's own case (Figure 2). One op is a cold
//! `Session::open_path` + `structure()` on a TensorFlow-class binary,
//! with a fresh session per op, one op at a time. Dropping the session
//! (about 60 MiB of artifacts) is part of the op.

use crate::layers::{open_session, recomputes, Counters, SessionTotals};
use crate::stats::{derive_seed, median, ms_since};
use crate::trace::{step, Span, Tracer, Waterfall};
use crate::truth::cfg_mismatch;
use crate::{guarded, session_config, Args, Outcome, ANALYSIS_THREADS};
use pba_driver::Session;
use pba_gen::{generate, GroundTruth, Profile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

fn open(path: &Path) -> Option<Session> {
    Session::open_path(path, session_config(ANALYSIS_THREADS)).ok()
}

/// The gate, run on the session the op built: CFG against truth, one
/// structure function per true function, no artifact computed twice.
fn gate(s: &Session, truth: &GroundTruth) -> bool {
    guarded(|| {
        let cfg = s.cfg().ok()?;
        let hs = s.structure().ok()?;
        Some(
            cfg_mismatch(cfg, truth).is_none()
                && hs.structure.functions.len() == truth.functions.len()
                && recomputes(&s.stats()) == 0,
        )
    })
    .unwrap_or(false)
}

fn setup(args: &Args) -> (PathBuf, GroundTruth) {
    let g = generate(&Profile::TensorFlow.config(derive_seed(args.seed, 1)));
    let path = args.work.join("tensorflow-class.elf");
    std::fs::write(&path, &g.elf).expect("write the generated binary");
    (path, g.truth)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t = Instant::now();
        input = Some(setup(args));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (path, truth) = input.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.samples.insert("setup_s", SETUP_REPS);
    // Warm-up, timed by neither metric: page the file in and start the
    // analysis pool.
    open(&path).expect("open the generated binary").structure().expect("warm-up structure");

    let window = if args.trace { args.window / 2 } else { args.window };
    let bare = measure(&path, &truth, window, false, &mut out);
    out.set_latency(&bare.lat, bare.measured_s);
    if !args.trace {
        return out;
    }
    let counters = Counters::read();
    let traced = measure(&path, &truth, window, true, &mut out);
    counters.report(traced.lat.len(), &mut out);
    traced.totals.report(&mut out);
    let w = Waterfall::fold(&traced.spans);
    out.set_waterfall(&w, median(&bare.lat), median(&traced.lat));
    crate::write_trace(args, &traced.spans);
    out
}

struct Window {
    lat: Vec<f64>,
    measured_s: f64,
    totals: SessionTotals,
    spans: Vec<Span>,
}

/// Closed loop of ops for `window`. A traced op calls the accessors one
/// by one under spans; an untraced op is `open_path` + `structure()`.
/// Either way the gate runs before the session is dropped, and only the
/// gate is left out of the op's time.
fn measure(
    path: &Path,
    truth: &GroundTruth,
    window: Duration,
    traced: bool,
    out: &mut Outcome,
) -> Window {
    let mut tracer = Tracer::new(Instant::now(), 0);
    let (mut lat, mut totals, mut untimed) = (Vec::new(), SessionTotals::default(), 0.0);
    let start = Instant::now();
    while lat.is_empty() || start.elapsed() < window {
        let mut op = traced.then(|| tracer.begin(lat.len() as u64));
        let t = Instant::now();
        let s = guarded(|| {
            let s = open_session(&mut op, || open(path))?;
            step(&mut op, "hpcstruct.structure", || s.structure().ok())?;
            Some(s)
        });
        let dt = ms_since(t);
        let t = Instant::now();
        let mut check = || {
            let ok = s.as_ref().is_some_and(|s| gate(s, truth));
            if let (true, Some(s)) = (traced, &s) {
                totals.add(s);
            }
            ok
        };
        let ok = match &mut op {
            Some(op) => op.untimed(check),
            None => check(),
        };
        untimed += t.elapsed().as_secs_f64();
        out.count(ok);
        // Tearing the session down is part of the op.
        let t = Instant::now();
        step(&mut op, "driver.drop", || drop(s));
        let dt = dt + ms_since(t);
        lat.push(op.map_or(dt, |op| op.end()));
    }
    let measured_s = start.elapsed().as_secs_f64() - untimed;
    Window { lat, measured_s, totals, spans: tracer.spans }
}
