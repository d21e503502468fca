//! The `serve-socket` workload: an in-process `NetServer` (2 workers) on
//! loopback, driven by two closed-loop `Client` connections (MTTKRPs over
//! four 16³-derived shapes and all three modes at R = 8, with one
//! streaming Factorize every 100 MTTKRPs per connection), then by one
//! pipelined open-loop connection at a fixed rate.

use crate::stats::{median, percentile, summary, tail_percentile, us, OpenLoop};
use crate::trace::Recorder;
use crate::{relative_error, Checks, Layers, Measured, Run};
use mttkrp_core::Problem;
use mttkrp_dist::wire::{self, Frame};
use mttkrp_exec::{
    plan_and_execute, Backend, MachineSpec, NativeBackend, PlanCache, Planner, DEFAULT_CACHE_WORDS,
};
use mttkrp_obs::{MetricSnapshot, MetricValue};
use mttkrp_serve::net::protocol::{self, FactorizeSpec};
use mttkrp_serve::{Client, FactorizeRequest, MttkrpRequest, NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, KruskalTensor, Matrix, Shape};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const BASE: usize = 16;
const RANK: usize = 8;
const SHAPES: usize = 4;
const MODES: usize = 3;
const COMBOS: usize = SHAPES * MODES;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// One streaming Factorize per connection every this many MTTKRPs.
const FACTORIZE_EVERY: u64 = 100;
const FACTORIZE_DIMS: [usize; 3] = [12, 10, 8];
const FACTORIZE_RANK: usize = 3;
const FACTORIZE_SWEEPS: usize = 8;
/// Open-loop rate in requests per second: about half the closed-loop rate
/// measured on the default seed, fixed once and never re-derived.
const OPEN_RATE: f64 = 700.0;
const SETUPS: usize = 25;
/// In-process calls and layer replays per traced run.
const REPLAY_CALLS: usize = 480;

fn machine() -> MachineSpec {
    MachineSpec::shared(2, DEFAULT_CACHE_WORDS)
}

type Operands = (Arc<DenseTensor>, Arc<Vec<Matrix>>);

/// Request `i` of a stream asks for shape `i % 4` and mode `(i / 4) % 3`.
fn combo(i: u64) -> (usize, usize) {
    let c = (i % COMBOS as u64) as usize;
    (c % SHAPES, c / SHAPES)
}

struct Setup {
    server: NetServer,
    clients: Vec<Client>,
    inputs: Vec<Operands>,
    /// `plan_and_execute` output per (shape, mode).
    expected: Vec<Vec<Matrix>>,
    factorize_x: Arc<DenseTensor>,
    spec: FactorizeSpec,
    /// The in-process Factorize result on the same engine.
    factorize_model: KruskalTensor,
}

fn inputs(seed: u64) -> Vec<Operands> {
    (0..SHAPES)
        .map(|s| {
            let dims = [BASE + 2 * s, BASE, BASE];
            let x = DenseTensor::random(Shape::new(&dims), seed.wrapping_add(s as u64));
            let factors = dims
                .iter()
                .enumerate()
                .map(|(k, &d)| {
                    Matrix::random(d, RANK, seed.wrapping_add(1000 + 10 * s as u64 + k as u64))
                })
                .collect();
            (Arc::new(x), Arc::new(factors))
        })
        .collect()
}

fn bitwise_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn model_bits_equal(a: &KruskalTensor, b: &KruskalTensor) -> bool {
    a.weights.len() == b.weights.len()
        && a.weights
            .iter()
            .zip(&b.weights)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.factors.len() == b.factors.len()
        && a.factors
            .iter()
            .zip(&b.factors)
            .all(|(x, y)| bitwise_equal(x, y))
}

/// Data generation, server start, in-process warm-up (every plan key
/// resident, every expected output computed on the same engine), connect,
/// and one socket round trip per (shape, mode) on each connection.
fn setup(seed: u64, checks: &mut Checks) -> Setup {
    let inputs = inputs(seed);
    let factorize_x = Arc::new(DenseTensor::random(
        Shape::new(&FACTORIZE_DIMS),
        seed.wrapping_add(77),
    ));
    let spec = FactorizeSpec {
        rank: FACTORIZE_RANK,
        max_sweeps: FACTORIZE_SWEEPS,
        tol: 0.0,
        seed: seed.wrapping_add(1000),
        ridge: 1e-9,
    };
    let server = NetServer::start(NetConfig {
        server: ServerConfig {
            machine: machine(),
            workers: WORKERS,
            cache_capacity: 64,
            max_batch: 32,
            backend: mttkrp_als::BackendChoice::Auto,
        },
        max_in_flight: 64,
        retry_after_ms: 5,
        ..NetConfig::default()
    })
    .expect("bind a loopback port");
    let expected: Vec<Vec<Matrix>> = inputs
        .iter()
        .map(|(x, f)| {
            let refs: Vec<&Matrix> = f.iter().collect();
            (0..MODES)
                .map(|mode| {
                    let _ = server
                        .server()
                        .call(MttkrpRequest::new(x.clone(), f.clone(), mode));
                    plan_and_execute(&machine(), x, &refs, mode).1.output
                })
                .collect()
        })
        .collect();
    let factorize_model = server
        .server()
        .call_factorize(FactorizeRequest::new(
            factorize_x.clone(),
            spec.into_config(&machine()),
        ))
        .run
        .model;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the loopback server"))
        .collect();
    for client in &mut clients {
        for i in 0..COMBOS as u64 {
            let (s, mode) = combo(i);
            let (x, f) = &inputs[s];
            let ok = matches!(client.mttkrp(x, f, mode), Ok(r) if bitwise_equal(&r.output, &expected[s][mode]));
            checks.op(ok, || {
                format!("warm-up socket MTTKRP shape {s} mode {mode} failed or differs")
            });
        }
    }
    Setup {
        server,
        clients,
        inputs,
        expected,
        factorize_x,
        spec,
        factorize_model,
    }
}

#[derive(Default)]
struct ClientLoad {
    latency_us: Vec<f64>,
    factorize_s: Vec<f64>,
    sweep_gap_s: Vec<f64>,
    mttkrps: u64,
    checks: Checks,
}

/// Lockstep rounds for the closed loop: in each round every connection
/// sends `FACTORIZE_EVERY` MTTKRPs back to back, then one streaming
/// Factorize, and all connections start each round together. Without the
/// lockstep the phase between the connections' Factorizes drifts from run
/// to run, and the closed-loop figures come out bimodal.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
    deadline: Instant,
}

impl Rounds {
    /// Waits for every connection; `true` once the window has closed.
    fn window_closed(&self) -> bool {
        if self.barrier.wait().is_leader() {
            self.stop
                .store(Instant::now() >= self.deadline, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.stop.load(Ordering::SeqCst)
    }
}

/// One closed-loop connection, round after round until the window closes.
/// A failed call is counted and the loop goes on, so a connection never
/// leaves its peers waiting at the round barrier.
fn client_loop(
    c: usize,
    client: &mut Client,
    s: &Setup,
    rounds: &Rounds,
    trace: Option<(&Recorder, u64)>,
) -> ClientLoad {
    let mut load = ClientLoad::default();
    let mut i = 0u64;
    while !rounds.window_closed() {
        for _ in 0..FACTORIZE_EVERY {
            let (shape, mode) = combo(i + 6 * c as u64);
            let (x, f) = &s.inputs[shape];
            let t0 = Instant::now();
            let reply = client.mttkrp(x, f, mode);
            let t1 = Instant::now();
            if let Some((rec, parent)) = trace {
                rec.record("serve.client.mttkrp", Some(parent), t0, t1);
            }
            i += 1;
            match reply {
                Ok(remote) => {
                    load.latency_us.push(us(t1 - t0));
                    load.mttkrps += 1;
                    load.checks.op(bitwise_equal(&remote.output, &s.expected[shape][mode]), || {
                        format!("client {c}: shape {shape} mode {mode} differs from plan_and_execute")
                    });
                }
                Err(e) => load
                    .checks
                    .op(false, || format!("client {c}: MTTKRP failed: {e}")),
            }
        }
        let mut arrivals = Vec::with_capacity(FACTORIZE_SWEEPS);
        let t0 = Instant::now();
        let reply = client.factorize_streaming(&s.factorize_x, &s.spec, |_| {
            arrivals.push(Instant::now());
            mttkrp_serve::StreamControl::Continue
        });
        let t1 = Instant::now();
        if let Some((rec, parent)) = trace {
            rec.record("serve.client.factorize_streaming", Some(parent), t0, t1);
        }
        match reply {
            Ok(remote) => {
                load.factorize_s.push((t1 - t0).as_secs_f64());
                // Steady sweep cadence as the client sees it: the mean gap
                // between consecutive sweep frames, so sweep 1 (which also
                // carries the request and queueing) is excluded.
                if let (Some(first), Some(last)) = (arrivals.first(), arrivals.last()) {
                    let gaps = arrivals.len().saturating_sub(1).max(1) as f64;
                    load.sweep_gap_s.push((*last - *first).as_secs_f64() / gaps);
                }
                let recomputed = remote.model.fit_to(&s.factorize_x);
                let ok = remote.sweeps == FACTORIZE_SWEEPS
                    && arrivals.len() == FACTORIZE_SWEEPS
                    && !remote.cancelled
                    && model_bits_equal(&remote.model, &s.factorize_model)
                    && (recomputed - remote.fit).abs() <= 1e-9;
                load.checks.op(ok, || {
                    format!(
                        "client {c}: Factorize differs (sweeps {}, fit {} vs recomputed {recomputed})",
                        remote.sweeps, remote.fit
                    )
                });
            }
            Err(e) => load
                .checks
                .op(false, || format!("client {c}: Factorize failed: {e}")),
        }
    }
    load
}

struct Closed {
    latency_us: Vec<f64>,
    factorize_s: Vec<f64>,
    sweep_gap_s: Vec<f64>,
    mttkrps: u64,
    wall: Duration,
}

fn closed_loop(
    s: &mut Setup,
    window: Duration,
    trace: Option<(&Recorder, u64)>,
    checks: &mut Checks,
) -> Closed {
    let start = Instant::now();
    let rounds = Rounds {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        deadline: start + window,
    };
    let rounds = &rounds;
    let mut clients = std::mem::take(&mut s.clients);
    let shared: &Setup = s;
    let loads: Vec<ClientLoad> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || client_loop(c, client, shared, rounds, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    s.clients = clients;
    let mut closed = Closed {
        latency_us: Vec::new(),
        factorize_s: Vec::new(),
        sweep_gap_s: Vec::new(),
        mttkrps: 0,
        wall,
    };
    for load in loads {
        closed.latency_us.extend(load.latency_us);
        closed.factorize_s.extend(load.factorize_s);
        closed.sweep_gap_s.extend(load.sweep_gap_s);
        closed.mttkrps += load.mttkrps;
        checks.merge(load.checks);
    }
    closed
}

struct Open {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Opens a raw protocol connection (handshake included).
fn connect_raw(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    wire::write_frame(&mut stream, &protocol::encode_hello())?;
    let hello = wire::read_frame(&mut stream).map_err(|e| std::io::Error::other(e.to_string()))?;
    match protocol::decode_hello(&hello) {
        Ok(protocol::PROTOCOL_VERSION) => Ok(stream),
        other => Err(std::io::Error::other(format!(
            "handshake failed: {other:?}"
        ))),
    }
}

/// Pipelined MTTKRPs over one connection at a fixed rate: a sender thread
/// encodes and writes each tagged request when it is due, and the reader
/// collects the replies, timing each from its request's due time.
fn open_loop(s: &Setup, window: Duration, checks: &mut Checks) -> Open {
    let count = (window.as_secs_f64() * OPEN_RATE).floor() as u64;
    let mut stream = match connect_raw(s.server.addr()) {
        Ok(stream) => stream,
        Err(e) => {
            checks.op(false, || format!("open-loop connect failed: {e}"));
            return Open {
                latency_us: Vec::new(),
                late_us: Vec::new(),
            };
        }
    };
    let mut writer = stream.try_clone().expect("clone the open-loop socket");
    let schedule = OpenLoop::new(Instant::now() + Duration::from_millis(2), OPEN_RATE);
    let inputs = &s.inputs;
    let mut latency_us = Vec::with_capacity(count as usize);
    let (late_us, sent) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(count as usize);
            for i in 0..count {
                std::thread::sleep(schedule.due(i).saturating_duration_since(Instant::now()));
                late.push(us(schedule.lateness(i, Instant::now())));
                let (shape, mode) = combo(i);
                let (x, f) = &inputs[shape];
                let frame = protocol::encode_mttkrp_request(i as u32 + 1, x, f, mode);
                if wire::write_frame(&mut writer, &frame).is_err() {
                    return (late, i);
                }
            }
            (late, count)
        });
        for _ in 0..count {
            let frame = match wire::read_frame(&mut stream) {
                Ok(frame) => frame,
                Err(e) => {
                    checks.op(false, || format!("open-loop read failed: {e}"));
                    break;
                }
            };
            let Some(i) = (frame.from as u64).checked_sub(1).filter(|&i| i < count) else {
                checks.op(false, || {
                    format!("open-loop reply tagged {} matches no request", frame.from)
                });
                continue;
            };
            let decoded = protocol::decode_mttkrp_response(&frame);
            let done = Instant::now();
            let (shape, mode) = combo(i);
            match (frame.comm_id, decoded) {
                (wire::CTRL_MTTKRP_RESP, Ok(remote)) => {
                    latency_us.push(us(schedule.latency(i, done)));
                    checks.op(
                        bitwise_equal(&remote.output, &s.expected[shape][mode]),
                        || format!("open-loop request {i} differs from plan_and_execute"),
                    );
                }
                (wire::CTRL_RETRY_AFTER, _) => {
                    checks.op(false, || format!("open-loop request {i} was shed"))
                }
                (kind, _) => checks.op(false, || {
                    format!("open-loop request {i} answered with frame kind {kind}")
                }),
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    checks.op(sent == count, || {
        format!("open-loop sender stopped after {sent} of {count}")
    });
    let _ = wire::write_frame(&mut stream, &Frame::fin(0));
    Open {
        latency_us,
        late_us,
    }
}

fn histogram_p50(snapshot: &[MetricSnapshot], name: &str) -> f64 {
    snapshot
        .iter()
        .find_map(|m| match (&m.name, &m.value) {
            (n, MetricValue::Histogram(h)) if n == name => Some(h.quantile(0.5) as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn counter(snapshot: &[MetricSnapshot], name: &str) -> f64 {
    snapshot
        .iter()
        .find_map(|m| match (&m.name, &m.value) {
            (n, MetricValue::Counter(v)) if n == name => Some(*v as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// Replays the layer calls under one served MTTKRP on the workload's own
/// inputs: the native kernel on a 16³ call, a plan-cache hit, the wire
/// codec both ways, and an in-process `Server::call`.
fn replay(s: &Setup, rec: &Recorder, parent: u64, checks: &mut Checks) -> Layers {
    let native = NativeBackend::new(2, DEFAULT_CACHE_WORDS);
    let planner = Planner::new(machine());
    let cache = PlanCache::new(64);
    let (mut kernel, mut plan, mut encode, mut decode, mut call) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut bytes = 0usize;
    for i in 0..REPLAY_CALLS as u64 {
        let (shape, mode) = combo(i);
        let (x, f) = &s.inputs[shape];
        let refs: Vec<&Matrix> = f.iter().collect();
        let problem = Problem::from_shape(x.shape(), RANK);
        let _ = planner.plan_cached(&problem, mode, &cache);
        let t = Instant::now();
        let planned = rec.time("exec.planner.plan_cached", Some(parent), || {
            planner.plan_cached(&problem, mode, &cache)
        });
        plan.push(us(t.elapsed()));
        if shape == 0 {
            let t = Instant::now();
            rec.time("exec.native.execute", Some(parent), || {
                native.execute(&planned, x, &refs)
            });
            kernel.push(us(t.elapsed()));
        }
        let t = Instant::now();
        let encoded = rec.time("serve.protocol.encode", Some(parent), || {
            wire::encode(&protocol::encode_mttkrp_request(i as u32 + 1, x, f, mode))
        });
        encode.push(us(t.elapsed()));
        bytes += encoded.len();
        let t = Instant::now();
        let request = rec.time("serve.protocol.decode", Some(parent), || {
            wire::decode(&encoded)
                .map_err(|e| e.to_string())
                .and_then(|frame| {
                    protocol::decode_mttkrp_request(&frame).map_err(|e| e.to_string())
                })
        });
        decode.push(us(t.elapsed()));
        let Ok(request) = request else {
            checks.op(false, || format!("replayed request {i} failed to decode"));
            continue;
        };
        let t = Instant::now();
        let response = rec.time("serve.server.call", Some(parent), || {
            s.server.server().call(request)
        });
        call.push(us(t.elapsed()));
        checks.op(
            bitwise_equal(&response.report.output, &s.expected[shape][mode]),
            || format!("in-process Server::call shape {shape} mode {mode} differs"),
        );
    }
    vec![
        ("exec.native.small_call_us", median(&kernel)),
        ("exec.planner.plan_cached_us", median(&plan)),
        ("serve.protocol.encode_us", median(&encode)),
        ("serve.protocol.decode_us", median(&decode)),
        (
            "serve.protocol.bytes_per_request",
            bytes as f64 / REPLAY_CALLS as f64,
        ),
        ("serve.server.call_p50_us", median(&call)),
    ]
}

pub fn run(run: &Run, rec: &Recorder) -> Measured {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut s = None;
    for _ in 0..SETUPS {
        if let Some(old) = s.take() {
            let Setup {
                server, clients, ..
            } = old;
            drop(clients);
            server.shutdown();
        }
        let t = Instant::now();
        s = Some(setup(run.seed, &mut checks));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");
    for (shape, (x, f)) in s.inputs.iter().enumerate() {
        let refs: Vec<&Matrix> = f.iter().collect();
        for mode in 0..MODES {
            let err = relative_error(&s.expected[shape][mode], &mttkrp_reference(x, &refs, mode));
            checks.op(err <= 1e-10, || {
                format!("shape {shape} mode {mode}: {err:e} off the reference")
            });
        }
    }

    let closed = closed_loop(&mut s, run.window(0.5), None, &mut checks);
    let open = open_loop(&s, run.window(0.5), &mut checks);
    let closed_p50 = median(&closed.latency_us);
    let mut notes = vec![
        format!(
            "closed loop: {} MTTKRPs over {CLIENTS} connections in {:.3} s, {} Factorizes",
            closed.mttkrps,
            closed.wall.as_secs_f64(),
            closed.factorize_s.len()
        ),
        format!(
            "closed latency_us: {} (highest percentile with >= 10 beyond: {:?})",
            summary(&closed.latency_us),
            tail_percentile(closed.latency_us.len())
        ),
        format!(
            "open loop at {OPEN_RATE} /s on one pipelined connection, latency_us from due time: {} \
             (highest percentile with >= 10 beyond: {:?})",
            summary(&open.latency_us),
            tail_percentile(open.latency_us.len())
        ),
        format!("sweep cadence_s: {}", summary(&closed.sweep_gap_s)),
        format!("factorize_s: {}", summary(&closed.factorize_s)),
    ];
    let e2e = vec![
        ("setup_s", median(&setups)),
        ("sweep_s", median(&closed.sweep_gap_s)),
        ("mttkrp_p50_us", closed_p50),
        ("remote_factorize_s", median(&closed.factorize_s)),
    ];

    let mut layers: Layers = Vec::new();
    if run.trace {
        let root = rec.open("bench.traced_closed_loop", None);
        let traced = closed_loop(&mut s, run.window(0.35), Some((rec, root)), &mut checks);
        rec.close(root);
        let root = rec.open("bench.replay", None);
        layers = replay(&s, rec, root, &mut checks);
        rec.close(root);
        let call_p50 = layers
            .iter()
            .find(|(n, _)| *n == "serve.server.call_p50_us")
            .map_or(0.0, |&(_, v)| v);
        let scrape = s.clients[0].stats();
        checks.op(scrape.is_ok(), || "STATS scrape failed".to_string());
        let scrape = scrape.unwrap_or_default();
        let stats = s.server.stats();
        let attempts = counter(&scrape, "serve.net.request_attempts");
        layers.extend([
            (
                "exec.plan_cache.hit_ratio",
                stats.cache.hit_rate().unwrap_or(0.0),
            ),
            ("serve.net.overhead_p50_us", closed_p50 - call_p50),
            ("serve.batch_mean", stats.mean_batch_size()),
            (
                "serve.queue_wait_p50_us",
                histogram_p50(&scrape, "serve.request_queued_us"),
            ),
            (
                "serve.net.shed_ratio",
                counter(&scrape, "serve.net.shed") / attempts.max(1.0),
            ),
            (
                "bench.generator_late_p99_us",
                percentile(&open.late_us, 99.0),
            ),
            (
                "bench.mttkrp_rps",
                closed.mttkrps as f64 / closed.wall.as_secs_f64(),
            ),
            ("bench.mttkrp_p99_us", percentile(&closed.latency_us, 99.0)),
            ("bench.open_p50_us", median(&open.latency_us)),
            ("bench.open_p99_us", percentile(&open.latency_us, 99.0)),
            (
                "obs.trace_overhead",
                median(&traced.latency_us) / closed_p50,
            ),
        ]);
        notes.push(format!(
            "replay: {REPLAY_CALLS} in-process calls, {} spans recorded",
            rec.len()
        ));
    }
    let Setup {
        server, clients, ..
    } = s;
    drop(clients);
    let stats = server.shutdown();
    notes.push(format!(
        "server: {} MTTKRPs served in {} batches, {} Factorizes",
        stats.requests_served, stats.batches, stats.factorizations_served
    ));
    Measured {
        checks,
        e2e,
        layers,
        notes,
    }
}
