//! The load generator: at most `CONNS` connections and `CONNS` threads,
//! depth from pipelining frames on them.
//!
//! * [`closed_loop`]: each thread owns one blocking connection and keeps a
//!   fixed window of requests in flight, sending the next request as each
//!   response arrives.
//! * [`open_loop`]: one thread writes a seeded Poisson schedule across
//!   both connections regardless of responses; the other reads both
//!   connections through epoll. Latency runs from each request's due
//!   time, so a stall in the generator or the server shows as latency.
//!
//! Every response is checked bitwise against the local reference outputs
//! and attributed to exactly one revision.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use minimio::{Events, Interest, Poll, Token};
use mlcnn_net::FrameDecoder;
use mlcnn_serve::Frame;

use crate::server::connect;
use crate::stats::{poisson_offsets, Rng};
use crate::workload::Target;

/// Connections (and load threads) the generator uses.
pub const CONNS: usize = 2;

const READ_CHUNK: usize = 64 << 10;

/// Per-phase request accounting on the client side:
/// `sent = ok + wire_errors + parity + misattributed + order + lost`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// `Error` frames: rejected, shed or failed on the server.
    pub wire_errors: u64,
    /// Responses that match no reference output.
    pub parity: u64,
    /// Responses from a revision that was not active while in flight.
    pub misattributed: u64,
    /// Responses whose correlation id was not the oldest in flight.
    pub order: u64,
    /// Requests never answered.
    pub lost: u64,
}

impl Tally {
    pub fn errors(&self) -> u64 {
        self.wire_errors + self.parity + self.misattributed + self.order + self.lost
    }

    pub fn answered(&self) -> u64 {
        self.ok + self.wire_errors + self.parity + self.misattributed + self.order
    }

    pub fn reconciles(&self) -> bool {
        self.sent == self.answered() + self.lost
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.wire_errors += o.wire_errors;
        self.parity += o.parity;
        self.misattributed += o.misattributed;
        self.order += o.order;
        self.lost += o.lost;
    }
}

/// One recorded span: a call into a layer made from the benchmark, or
/// (`name == "request"`) a whole request, which is the parent of every
/// span with the same `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span buffer; disabled buffers record nothing.
pub struct Spans {
    epoch: Instant,
    pub spans: Option<Vec<Span>>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            spans: enabled.then(|| Vec::with_capacity(1 << 16)),
        }
    }

    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if let Some(v) = &mut self.spans {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            v.push(Span {
                name,
                req,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Time `f` as a span when enabled.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.record(name, req, t, Instant::now());
        r
    }
}

fn req_key(conn: usize, id: u64) -> u64 {
    ((conn as u64) << 48) | id
}

/// A response as received, for post-phase attribution checks.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    pub sent: Instant,
    pub recv: Instant,
    pub slot: usize,
}

/// Outcome of checking one response frame against the request it answers.
enum Verdict {
    Ok(usize),
    WireError,
    Parity,
    Order,
}

fn judge(target: &Target, frame: &Frame, id: u64, input: usize) -> Verdict {
    match frame {
        Frame::InferOk { id: rid, output } if *rid == id => match target.attribute(input, output) {
            Some(slot) => Verdict::Ok(slot),
            None => Verdict::Parity,
        },
        Frame::Error { id: rid, .. } if *rid == id => Verdict::WireError,
        _ => Verdict::Order,
    }
}

fn count(tally: &mut Tally, v: &Verdict) {
    match v {
        Verdict::Ok(_) => tally.ok += 1,
        Verdict::WireError => tally.wire_errors += 1,
        Verdict::Parity => tally.parity += 1,
        Verdict::Order => tally.order += 1,
    }
}

/// One closed-loop connection's tally, completion times and spans.
type ConnOut = Result<(Tally, Vec<f64>, Spans), String>;

pub struct ClosedResult {
    pub tally: Tally,
    /// Correct responses per second in each of `slices` equal slices.
    pub slice_rps: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Saturating closed loop: `window` requests in flight over [`CONNS`]
/// connections for `duration`. Every correct response must come from
/// reference slot `active`.
pub fn closed_loop(
    target: &Target,
    addr: SocketAddr,
    window: usize,
    duration: Duration,
    slices: usize,
    seed: u64,
    active: usize,
    spans_on: bool,
) -> Result<ClosedResult, String> {
    let start = Instant::now();
    let end = start + duration;
    let per_conn = (window / CONNS).max(1);
    let results: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                s.spawn(move || {
                    closed_conn(
                        target, addr, conn, per_conn, start, end, seed, active, spans_on,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("closed-loop thread panicked".into()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    let mut done: Vec<f64> = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (t, d, sp) = r?;
        tally.add(&t);
        done.extend(d);
        spans.extend(sp.spans.unwrap_or_default());
    }
    let width = duration.as_secs_f64() / slices as f64;
    let mut per_slice = vec![0u64; slices];
    for t in done {
        let i = (t / width) as usize;
        if i < slices {
            per_slice[i] += 1;
        }
    }
    Ok(ClosedResult {
        tally,
        slice_rps: per_slice.iter().map(|&n| n as f64 / width).collect(),
        spans,
    })
}

fn closed_conn(
    target: &Target,
    addr: SocketAddr,
    conn: usize,
    per_conn: usize,
    start: Instant,
    end: Instant,
    seed: u64,
    active: usize,
    spans_on: bool,
) -> ConnOut {
    let mut stream = connect(addr)?;
    let mut spans = Spans::new(start, spans_on);
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
    let mut tally = Tally::default();
    let mut done = Vec::new();
    let mut decoder = FrameDecoder::new();
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(per_conn);
    let mut wbuf = Vec::new();
    let mut next_id = 1u64;
    let mut send = |wbuf: &mut Vec<u8>, inflight: &mut VecDeque<_>, tally: &mut Tally| {
        let input = rng.below(target.inputs.len());
        target.request(input, next_id, wbuf);
        inflight.push_back((next_id, input, Instant::now()));
        next_id += 1;
        tally.sent += 1;
    };
    for _ in 0..per_conn {
        send(&mut wbuf, &mut inflight, &mut tally);
    }
    let mut buf = vec![0u8; READ_CHUNK];
    while !inflight.is_empty() {
        if !wbuf.is_empty() {
            let t = Instant::now();
            stream.write_all(&wbuf).map_err(|e| format!("write: {e}"))?;
            let key = inflight.back().map_or(0, |b| req_key(conn, b.0));
            spans.record("net.write", key, t, Instant::now());
            wbuf.clear();
        }
        let t = Instant::now();
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break, // closed or timed out: the rest is lost
            Ok(n) => n,
        };
        spans.record("net.read", req_key(conn, inflight[0].0), t, Instant::now());
        decoder.extend(&buf[..n]);
        loop {
            let key = inflight.front().map_or(0, |f| req_key(conn, f.0));
            let frame = match spans.time("net.decode", key, || decoder.next()) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => return Err(format!("undecodable response: {e}")),
            };
            let Some((id, input, sent)) = inflight.pop_front() else {
                tally.order += 1;
                continue;
            };
            let verdict = spans.time("check.parity", key, || judge(target, &frame, id, input));
            let now = Instant::now();
            spans.record("request", key, sent, now);
            match verdict {
                Verdict::Ok(slot) if slot != active => tally.misattributed += 1,
                Verdict::Ok(_) => {
                    tally.ok += 1;
                    done.push(now.duration_since(start).as_secs_f64());
                }
                v => count(&mut tally, &v),
            }
            if now < end {
                send(&mut wbuf, &mut inflight, &mut tally);
            }
        }
    }
    tally.lost += inflight.len() as u64;
    Ok((tally, done, spans))
}

/// A publish or rollback sent during an open loop.
#[derive(Debug, Clone, Copy)]
pub struct AdminEvent {
    pub send: Instant,
    pub ok: Option<Instant>,
    pub active: u64,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Infer {
        id: u64,
        input: usize,
        due: Instant,
        sent: Instant,
    },
    Admin {
        id: u64,
        event: usize,
    },
}

pub struct OpenResult {
    /// When the schedule started.
    pub start: Instant,
    pub tally: Tally,
    /// Due time → response, µs, per correct response (indexed like
    /// `received`).
    pub latency_us: Vec<f64>,
    /// Send time − due time, µs, per request.
    pub lateness_us: Vec<f64>,
    /// Mean gap between a connection's consecutive arrivals, µs.
    pub conn_gap_us: f64,
    /// Requests unanswered when the schedule finished.
    pub backlog: usize,
    pub admin: Vec<AdminEvent>,
    pub admin_failures: u64,
    pub received: Vec<Received>,
    pub spans: Vec<Span>,
}

/// Open loop: a seeded Poisson schedule at `rate` for `duration` across
/// [`CONNS`] connections; with `swap = Some(period)` a publish (cycling
/// through the other revisions) or a rollback is written every period.
pub fn open_loop(
    target: &Target,
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    seed: u64,
    swap: Option<Duration>,
    spans_on: bool,
) -> Result<OpenResult, String> {
    let mut rng = Rng::new(seed ^ 0x0BE7_A55E);
    let offsets = poisson_offsets(&mut rng, rate, duration);
    let inputs: Vec<usize> = offsets
        .iter()
        .map(|_| rng.below(target.inputs.len()))
        .collect();
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = connect(addr)?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let queues: Vec<Mutex<VecDeque<Pending>>> =
        (0..CONNS).map(|_| Mutex::new(VecDeque::new())).collect();
    let events: Mutex<Vec<AdminEvent>> = Mutex::new(Vec::new());
    let writer_done = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let grace = Duration::from_secs(5);

    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = open_writer(
                target, &streams, &queues, &events, &offsets, &inputs, start, swap, spans_on,
            );
            writer_done.store(true, std::sync::atomic::Ordering::SeqCst);
            out
        });
        let reader = s.spawn(|| {
            open_reader(
                target,
                &streams,
                &queues,
                &events,
                &writer_done,
                start,
                start + duration + grace,
                spans_on,
            )
        });
        (
            writer
                .join()
                .unwrap_or_else(|_| Err("open-loop writer panicked".into())),
            reader
                .join()
                .unwrap_or_else(|_| Err("open-loop reader panicked".into())),
        )
    });
    let (sent, lateness_us, backlog, wspans) = w?;
    let (mut tally, latency_us, received, admin_failures, rspans) = r?;
    tally.sent = sent;
    let lost: usize = queues
        .iter()
        .map(|q| {
            q.lock()
                .expect("queue lock")
                .iter()
                .filter(|p| matches!(p, Pending::Infer { .. }))
                .count()
        })
        .sum();
    tally.lost = lost as u64;
    let mut spans = wspans.spans.unwrap_or_default();
    spans.extend(rspans.spans.unwrap_or_default());
    Ok(OpenResult {
        start,
        tally,
        latency_us,
        lateness_us,
        conn_gap_us: 1e6 * CONNS as f64 / rate,
        backlog,
        admin: events.into_inner().expect("events lock"),
        admin_failures,
        received,
        spans,
    })
}

/// Sleep until shortly before `due`, then spin until it passes. A plain
/// sleep overshoots by the kernel's timer slack (tens of µs), most of an
/// inter-arrival gap at mlp-tiny's rate; yielding instead of spinning
/// hands the core to a busy server thread for a whole time slice
/// (milliseconds) when both cores are loaded.
fn wait_until(due: Instant) {
    const SLACK: Duration = Duration::from_micros(60);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 2 * SLACK {
            std::thread::sleep(left - SLACK);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Write all of `bytes` to a nonblocking socket.
fn write_fully(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    let mut pos = 0;
    while pos < bytes.len() {
        match stream.write(&bytes[pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

type WriterOut = Result<(u64, Vec<f64>, usize, Spans), String>;

fn open_writer(
    target: &Target,
    streams: &[TcpStream],
    queues: &[Mutex<VecDeque<Pending>>],
    events: &Mutex<Vec<AdminEvent>>,
    offsets: &[Duration],
    inputs: &[usize],
    start: Instant,
    swap: Option<Duration>,
    spans_on: bool,
) -> WriterOut {
    let mut spans = Spans::new(start, spans_on);
    let mut lateness = Vec::with_capacity(offsets.len());
    let mut next_id = [1u64; CONNS];
    let mut frame = Vec::new();
    let mut next_swap = swap;
    let mut swaps = 0u64;
    let model = target.wire_model.clone();
    for (j, (&off, &input)) in offsets.iter().zip(inputs).enumerate() {
        if let (Some(period), Some(at)) = (swap, next_swap) {
            if at <= off {
                wait_until(start + at);
                // alternate: publish the next non-newest revision, then roll back
                let id = next_id[0];
                next_id[0] += 1;
                let newest = *target.revisions.last().expect("registry has revisions");
                let admin = if swaps.is_multiple_of(2) {
                    let others = target.revisions.len() - 1;
                    let revision = target.revisions[(swaps / 2) as usize % others];
                    debug_assert_ne!(revision, newest);
                    Frame::PublishRequest {
                        id,
                        model: model.clone(),
                        revision,
                    }
                } else {
                    Frame::RollbackRequest {
                        id,
                        model: model.clone(),
                    }
                };
                swaps += 1;
                next_swap = Some(at + period);
                let bytes = admin.encode().map_err(|e| e.to_string())?;
                let event = {
                    let mut ev = events.lock().expect("events lock");
                    ev.push(AdminEvent {
                        send: Instant::now(),
                        ok: None,
                        active: 0,
                    });
                    ev.len() - 1
                };
                queues[0]
                    .lock()
                    .expect("queue lock")
                    .push_back(Pending::Admin { id, event });
                write_fully(&streams[0], &bytes).map_err(|e| format!("admin write: {e}"))?;
            }
        }
        let due = start + off;
        wait_until(due);
        let sent = Instant::now();
        lateness.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        let conn = j % CONNS;
        let id = next_id[conn];
        next_id[conn] += 1;
        frame.clear();
        target.request(input, id, &mut frame);
        queues[conn]
            .lock()
            .expect("queue lock")
            .push_back(Pending::Infer {
                id,
                input,
                due,
                sent,
            });
        write_fully(&streams[conn], &frame).map_err(|e| format!("write: {e}"))?;
        spans.record("net.write", req_key(conn, id), sent, Instant::now());
    }
    let backlog = queues
        .iter()
        .map(|q| q.lock().expect("queue lock").len())
        .sum();
    Ok((offsets.len() as u64, lateness, backlog, spans))
}

type ReaderOut = Result<(Tally, Vec<f64>, Vec<Received>, u64, Spans), String>;

fn open_reader(
    target: &Target,
    streams: &[TcpStream],
    queues: &[Mutex<VecDeque<Pending>>],
    events: &Mutex<Vec<AdminEvent>>,
    writer_done: &std::sync::atomic::AtomicBool,
    start: Instant,
    deadline: Instant,
    spans_on: bool,
) -> ReaderOut {
    let mut spans = Spans::new(start, spans_on);
    let poll = Poll::new().map_err(|e| e.to_string())?;
    for (i, s) in streams.iter().enumerate() {
        poll.register(s, Token(i), Interest::READABLE)
            .map_err(|e| e.to_string())?;
    }
    let mut decoders: Vec<FrameDecoder> = (0..CONNS).map(|_| FrameDecoder::new()).collect();
    let mut tally = Tally::default();
    let mut latency = Vec::new();
    let mut received = Vec::new();
    let mut admin_failures = 0u64;
    let mut evs = Events::with_capacity(16);
    let mut buf = vec![0u8; READ_CHUNK];
    let idle = |queues: &[Mutex<VecDeque<Pending>>]| {
        queues
            .iter()
            .all(|q| q.lock().expect("queue lock").is_empty())
    };
    loop {
        if writer_done.load(std::sync::atomic::Ordering::SeqCst) && idle(queues) {
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        poll.wait(&mut evs, Some(Duration::from_millis(5)))
            .map_err(|e| e.to_string())?;
        for ev in evs.iter() {
            let Token(c) = ev.token();
            let t = Instant::now();
            let mut stream = &streams[c];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return Err("server closed a load connection".into()),
                    Ok(n) => decoders[c].extend(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            spans.record("net.read", req_key(c, 0), t, Instant::now());
            loop {
                let frame = match spans.time("net.decode", req_key(c, 0), || decoders[c].next()) {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => return Err(format!("undecodable response: {e}")),
                };
                let pending = queues[c].lock().expect("queue lock").pop_front();
                match pending {
                    Some(Pending::Infer {
                        id,
                        input,
                        due,
                        sent,
                    }) => {
                        let key = req_key(c, id);
                        let v =
                            spans.time("check.parity", key, || judge(target, &frame, id, input));
                        let now = Instant::now();
                        spans.record("request", key, due, now);
                        if let Verdict::Ok(slot) = v {
                            latency.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                            received.push(Received {
                                sent,
                                recv: now,
                                slot,
                            });
                        }
                        count(&mut tally, &v);
                    }
                    Some(Pending::Admin { id, event }) => match frame {
                        Frame::AdminOk {
                            id: rid, active, ..
                        } if rid == id => {
                            let mut ev = events.lock().expect("events lock");
                            ev[event].ok = Some(Instant::now());
                            ev[event].active = active;
                        }
                        _ => admin_failures += 1,
                    },
                    None => tally.order += 1,
                }
            }
        }
    }
    Ok((tally, latency, received, admin_failures, spans))
}

/// Check every open-loop response against the revision timeline the
/// admin events define (a revision is live from the moment its publish
/// or rollback is sent until the next swap is acknowledged), and measure
/// each swap's time to the first response from the new revision.
/// Returns (misattributed responses, per-swap ms).
pub fn attribution(
    target: &Target,
    initial: usize,
    events: &[AdminEvent],
    received: &[Received],
) -> Result<(u64, Vec<f64>), String> {
    let far = Instant::now() + Duration::from_secs(3600);
    let mut live: Vec<(usize, Option<Instant>, Instant)> = Vec::new(); // slot, from, until
    let first_until = events.first().map_or(Some(far), |e| e.ok);
    live.push((
        initial,
        None,
        first_until.ok_or("a swap was never acknowledged")?,
    ));
    for (i, e) in events.iter().enumerate() {
        let slot = target
            .slot_of(e.active)
            .ok_or_else(|| format!("swap activated unknown revision {}", e.active))?;
        let until = match events.get(i + 1) {
            Some(next) => next.ok.ok_or("a swap was never acknowledged")?,
            None => far,
        };
        live.push((slot, Some(e.send), until));
    }
    let misattributed = received
        .iter()
        .filter(|r| {
            !live.iter().any(|&(slot, from, until)| {
                slot == r.slot && from.is_none_or(|f| f <= r.recv) && r.sent <= until
            })
        })
        .count() as u64;
    let mut publish_ms = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let slot = target.slot_of(e.active).expect("checked above");
        let window_end = events.get(i + 1).map_or(far, |n| n.send);
        let first = received
            .iter()
            .filter(|r| r.slot == slot && r.recv > e.send && r.recv <= window_end)
            .map(|r| r.recv)
            .min();
        if let Some(t) = first {
            publish_ms.push(t.duration_since(e.send).as_secs_f64() * 1e3);
        }
    }
    Ok((misattributed, publish_ms))
}
