//! The untraced run: a closed-loop load generator driving a `psserve`
//! child process over loopback TCP, one connection per client.
//!
//! One *round* spawns a fresh server, answers every client's registrations
//! (the set-up phase), then replays the timed scripts on both connections
//! at once — each connection sends its next frame only after the reply to
//! the previous one arrived — and shuts the server down.  The generator
//! uses two threads: the calling thread drives connection 0, one scoped
//! thread drives connection 1.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use crate::script::ClientScript;

/// What one round measured.
pub struct Round {
    /// Spawn to the last registration answered, in seconds.
    pub setup_s: f64,
    /// Wall time of the timed phase, in seconds.
    pub timed_s: f64,
    /// Send-to-reply latency of every timed (query) frame, in
    /// milliseconds.
    pub query_ms: Vec<f64>,
    /// Frames sent (registrations included).
    pub sent: u64,
    /// Frames that got no reply (the connection closed first).
    pub lost: u64,
    /// Responses received in the timed phase.
    pub responses: u64,
    /// The server's peak resident set (`VmHWM`) at the end of the timed
    /// phase, in MiB.
    pub peak_rss_mb: f64,
    /// Per client: every reply line, registrations first.
    pub replies: Vec<Vec<String>>,
}

/// The `psserve` child; killed and reaped if a round ends early.
struct Server {
    child: Child,
    _stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(psserve: &Path) -> io::Result<Server> {
        let mut child = Command::new(psserve)
            .args(["--listen", "127.0.0.1:0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("psserve: listening on ")
                .and_then(|a| a.parse().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "psserve did not report its address: {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stderr: stderr,
            addr,
        })
    }

    /// `VmHWM` of the server process, in MiB.
    fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
    }

    /// Waits for the process to exit on its own, then reaps it.
    fn wait_exit(mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("psserve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("psserve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one frame and waits for its reply; `None` if the connection
    /// closed first.
    fn call(&mut self, frame: &[u8]) -> Option<String> {
        self.writer.write_all(frame).ok()?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Some(reply)
            }
        }
    }
}

/// What one connection saw in the timed phase.
#[derive(Default)]
struct ClientRun {
    query_ms: Vec<f64>,
    replies: Vec<String>,
    lost: u64,
    end: Option<Instant>,
}

fn drive(conn: &mut Conn, frames: &[Vec<u8>]) -> ClientRun {
    let mut run = ClientRun {
        query_ms: Vec::with_capacity(frames.len()),
        replies: Vec::with_capacity(frames.len()),
        ..ClientRun::default()
    };
    for (i, bytes) in frames.iter().enumerate() {
        let sent = Instant::now();
        let Some(reply) = conn.call(bytes) else {
            run.lost = (frames.len() - i) as u64;
            break;
        };
        run.query_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        run.replies.push(reply);
    }
    run.end = Some(Instant::now());
    run
}

/// A server that answered every client's registrations.
struct Started {
    server: Server,
    conns: Vec<Conn>,
    replies: Vec<Vec<String>>,
    setup_s: f64,
    sent: u64,
}

/// Spawns `psserve`, connects every client and sends its registrations:
/// the set-up phase, timed from the spawn to the last reply.
fn start(psserve: &Path, scripts: &[ClientScript]) -> io::Result<Started> {
    let spawned = Instant::now();
    let server = Server::spawn(psserve)?;
    let mut conns = scripts
        .iter()
        .map(|_| Conn::open(server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut replies: Vec<Vec<String>> = vec![Vec::new(); scripts.len()];
    let mut sent = 0u64;
    for (k, script) in scripts.iter().enumerate() {
        for line in &script.setup {
            sent += 1;
            let reply = conns[k]
                .call(format!("{line}\n").as_bytes())
                .ok_or_else(|| io::Error::other("psserve closed a connection during set-up"))?;
            replies[k].push(reply);
        }
    }
    Ok(Started {
        setup_s: spawned.elapsed().as_secs_f64(),
        server,
        conns,
        replies,
        sent,
    })
}

/// Shuts the server down over connection 0 and reaps the process.
fn stop(server: Server, mut conns: Vec<Conn>) -> io::Result<()> {
    let ack = conns[0].call(b"{\"op\":\"shutdown\"}\n");
    drop(conns);
    if ack.is_none() {
        return Err(io::Error::other("psserve did not acknowledge shutdown"));
    }
    server.wait_exit()
}

/// Set-up alone: spawn, register, shut down.  Returns the set-up time.
pub fn setup_probe(psserve: &Path, scripts: &[ClientScript]) -> io::Result<f64> {
    let started = start(psserve, scripts)?;
    stop(started.server, started.conns)?;
    Ok(started.setup_s)
}

/// Runs one round against a fresh `psserve`.
pub fn round(psserve: &Path, scripts: &[ClientScript]) -> io::Result<Round> {
    // Frames are encoded before the clock starts.
    let frames: Vec<Vec<Vec<u8>>> = scripts
        .iter()
        .map(|s| {
            s.timed
                .iter()
                .map(|line| format!("{line}\n").into_bytes())
                .collect()
        })
        .collect();
    let Started {
        server,
        mut conns,
        replies,
        setup_s,
        sent,
    } = start(psserve, scripts)?;

    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let (first, rest) = conns.split_at_mut(1);
        let (frames0, frames_rest) = frames.split_at(1);
        let others: Vec<_> = rest
            .iter_mut()
            .zip(frames_rest)
            .map(|(conn, f)| scope.spawn(move || drive(conn, f)))
            .collect();
        let mut runs = vec![drive(&mut first[0], &frames0[0])];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        runs
    });
    let end = runs
        .iter()
        .filter_map(|r| r.end)
        .max()
        .unwrap_or_else(Instant::now);
    let timed_s = end.duration_since(start).as_secs_f64();
    let peak_rss_mb = server.peak_rss_mb()?;

    let mut round = Round {
        setup_s,
        timed_s,
        query_ms: Vec::new(),
        sent: sent + frames.iter().map(|f| f.len() as u64).sum::<u64>(),
        lost: 0,
        responses: 0,
        peak_rss_mb,
        replies,
    };
    for (k, run) in runs.into_iter().enumerate() {
        round.query_ms.extend(run.query_ms);
        round.lost += run.lost;
        round.responses += run.replies.len() as u64;
        round.replies[k].extend(run.replies);
    }

    stop(server, conns)?;
    Ok(round)
}
