//! Open-loop query generator over one daemon connection.
//!
//! The connection is split with [`TcpStream::try_clone`]: a sender thread
//! writes requests on a fixed schedule, whether or not earlier replies
//! arrived, and a receiver thread reads replies. The schedule is a Poisson
//! process: the gaps between due times are exponential with mean
//! `1 / rate`, drawn from a seeded RNG, as from many independent users. A
//! strictly periodic schedule would lock into step with the server's
//! batch window and split latencies into two clusters whose boundary
//! moves the median from run to run. Latency is timed from each request's
//! *scheduled* send time, so a stall also charges the requests queued
//! behind it. How late the sender itself ran is kept per request, so a
//! run in which the generator could not keep its schedule can be told
//! apart from a slow server.
//!
//! Only the public wire pieces are used: `lash_serve::proto` to encode
//! requests and decode replies, and `lash_encoding::frame` for framing.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lash_datagen::Rng;
use lash_encoding::{frame, DecodeError};
use lash_index::{Query, QueryReply};
use lash_serve::proto::{self, Request};
use lash_serve::{MAGIC, PROTOCOL_VERSION};

/// Every `SAMPLE_EVERY`-th reply is kept for the correctness check.
const SAMPLE_EVERY: u64 = 97;

/// How long the receiver waits for outstanding replies after the sender
/// stops; a reply still missing then counts as unanswered.
const DRAIN: Duration = Duration::from_secs(5);

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Due time, nanoseconds after the generator started.
    pub due_ns: u64,
    /// How late the sender wrote it, in nanoseconds.
    pub late_ns: u64,
    /// Latency from the due time to the reply, when one arrived.
    pub latency_ns: Option<u64>,
    /// The reply was a typed error.
    pub error: bool,
}

/// One sampled reply, kept for the correctness check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Due time of its request, nanoseconds after the start.
    pub due_ns: u64,
    /// Index of its query in the pool.
    pub pool_index: usize,
    /// The reply as served.
    pub reply: QueryReply,
}

/// The outcome of one generator run.
pub struct LoadResult {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// Sampled replies for the correctness check.
    pub samples: Vec<Sample>,
    /// Transport failures (broken connection, undecodable frame).
    pub transport_errors: u64,
    /// Wall time from start to the sender stopping.
    pub elapsed: Duration,
}

impl LoadResult {
    /// Requests sent.
    pub fn offered(&self) -> u64 {
        self.records.len() as u64
    }

    /// Requests answered with a non-error reply.
    pub fn completed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.latency_ns.is_some() && !r.error)
            .count() as u64
    }

    /// Requests that failed: typed errors, unanswered ones, and transport
    /// failures.
    pub fn failed(&self) -> u64 {
        self.offered() - self.completed() + self.transport_errors
    }

    /// Latencies (µs) of answered requests due within `[from, to)` ns.
    pub fn latencies_us(&self, from_ns: u64, to_ns: u64) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.due_ns >= from_ns && r.due_ns < to_ns && !r.error)
            .filter_map(|r| r.latency_ns.map(|l| l as f64 / 1e3))
            .collect()
    }

    /// Sender lateness (µs) of requests due within `[from, to)` ns.
    pub fn late_us(&self, from_ns: u64, to_ns: u64) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.due_ns >= from_ns && r.due_ns < to_ns)
            .map(|r| r.late_ns as f64 / 1e3)
            .collect()
    }
}

/// A running generator; [`Running::stop`] ends it and collects the result.
pub struct Running {
    stop: Arc<AtomicBool>,
    sender: JoinHandle<std::io::Result<Vec<Record>>>,
    receiver: JoinHandle<Receipts>,
    control: TcpStream,
    started: Instant,
    pool_len: usize,
}

struct Receipts {
    /// `(request index, receive time ns, is error)`.
    replies: Vec<(u64, u64, bool)>,
    /// `(request index, reply)`.
    samples: Vec<(u64, QueryReply)>,
    transport_errors: u64,
}

/// Connects, performs the protocol handshake, and starts sending
/// `pool[i % pool.len()]` as request `i`, at `rate` requests per second on
/// average, on the schedule `seed` draws.
pub fn start(
    addr: SocketAddr,
    pool: Arc<Vec<Query>>,
    rate: f64,
    seed: u64,
) -> std::io::Result<Running> {
    assert!(
        rate > 0.0 && !pool.is_empty(),
        "a load needs a rate and queries"
    );
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = PROTOCOL_VERSION;
    stream.write_all(&hello)?;
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack)?;
    if ack[0] != PROTOCOL_VERSION {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("server speaks protocol {}", ack[0]),
        ));
    }
    let reader = stream.try_clone()?;
    let control = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;

    let stop = Arc::new(AtomicBool::new(false));
    // Requests written so far, and whether the sender has written its last.
    let sent = Arc::new(AtomicU64::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mean_gap_ns = 1e9 / rate;

    let sender = {
        let (stop, sent, done, pool) = (
            Arc::clone(&stop),
            Arc::clone(&sent),
            Arc::clone(&sender_done),
            Arc::clone(&pool),
        );
        std::thread::spawn(move || -> std::io::Result<Vec<Record>> {
            // Whatever happens, tell the receiver no more requests follow.
            struct Done(Arc<AtomicBool>);
            impl Drop for Done {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _done = Done(done);
            let mut records: Vec<Record> = Vec::new();
            let mut wire = Vec::new();
            let mut payload = Vec::new();
            let mut rng = Rng::new(seed);
            let mut next = 0u64;
            let mut due = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = started.elapsed().as_nanos() as u64;
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                    continue;
                }
                // Write every request that has come due in one call.
                wire.clear();
                let first = records.len();
                while due <= now {
                    let query = pool[(next % pool.len() as u64) as usize].clone();
                    proto::encode_request(&Request::new(next, query), &mut payload);
                    frame::encode_frame(&payload, &mut wire);
                    records.push(Record {
                        due_ns: due,
                        late_ns: 0,
                        latency_ns: None,
                        error: false,
                    });
                    next += 1;
                    due += (-(1.0 - rng.f64()).ln() * mean_gap_ns) as u64;
                }
                stream.write_all(&wire)?;
                let written = started.elapsed().as_nanos() as u64;
                for r in &mut records[first..] {
                    r.late_ns = written.saturating_sub(r.due_ns);
                }
                sent.store(next, Ordering::Release);
            }
            Ok(records)
        })
    };

    let receiver = {
        let (done, sent) = (Arc::clone(&sender_done), Arc::clone(&sent));
        std::thread::spawn(move || receive(reader, &done, &sent, started))
    };

    Ok(Running {
        stop,
        sender,
        receiver,
        control,
        started,
        pool_len: pool.len(),
    })
}

fn receive(
    mut reader: TcpStream,
    sender_done: &AtomicBool,
    sent: &AtomicU64,
    started: Instant,
) -> Receipts {
    let mut out = Receipts {
        replies: Vec::new(),
        samples: Vec::new(),
        transport_errors: 0,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Decode every complete frame already buffered.
        let mut consumed = 0;
        loop {
            match frame::decode_frame(&buf[consumed..]) {
                Ok((payload, used)) => {
                    let at = started.elapsed().as_nanos() as u64;
                    match proto::decode_response(payload) {
                        Ok(resp) => {
                            let error = matches!(resp.reply, QueryReply::Error(_));
                            if resp.id % SAMPLE_EVERY == 0 && !error {
                                out.samples.push((resp.id, resp.reply));
                            }
                            out.replies.push((resp.id, at, error));
                        }
                        Err(_) => out.transport_errors += 1,
                    }
                    consumed += used;
                }
                Err(DecodeError::UnexpectedEof) => break,
                Err(_) => {
                    out.transport_errors += 1;
                    return out;
                }
            }
        }
        buf.drain(..consumed);

        // `sent` is final once the sender is done, so only then does a
        // full count mean every reply is in.
        if sender_done.load(Ordering::Acquire) {
            if out.replies.len() as u64 >= sent.load(Ordering::Acquire) {
                return out;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                return out;
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                if (out.replies.len() as u64) < sent.load(Ordering::Acquire) {
                    out.transport_errors += 1;
                }
                return out;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                out.transport_errors += 1;
                return out;
            }
        }
    }
}

impl Running {
    /// Nanoseconds since the generator started — the clock of
    /// [`Record::due_ns`].
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Stops sending, waits for outstanding replies (at most [`DRAIN`]),
    /// closes the connection and joins both threads.
    pub fn stop(self) -> LoadResult {
        self.stop.store(true, Ordering::Release);
        let sent = self.sender.join().expect("load sender panicked");
        let elapsed = self.started.elapsed();
        let receipts = self.receiver.join().expect("load receiver panicked");
        let _ = self.control.shutdown(Shutdown::Both);
        let mut transport_errors = receipts.transport_errors;
        let mut records = match sent {
            Ok(records) => records,
            Err(_) => {
                transport_errors += 1;
                Vec::new()
            }
        };
        for (id, at, error) in receipts.replies {
            match records.get_mut(id as usize) {
                Some(r) if r.latency_ns.is_none() => {
                    r.latency_ns = Some(at.saturating_sub(r.due_ns));
                    r.error = error;
                }
                _ => transport_errors += 1,
            }
        }
        let samples = receipts
            .samples
            .into_iter()
            .filter_map(|(id, reply)| {
                records.get(id as usize).map(|r| Sample {
                    due_ns: r.due_ns,
                    pool_index: (id % self.pool_len as u64) as usize,
                    reply,
                })
            })
            .collect();
        LoadResult {
            records,
            samples,
            transport_errors,
            elapsed,
        }
    }
}
