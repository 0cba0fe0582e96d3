//! The `drift_wire` target: an in-process `hgpcn_serve::App` behind a
//! loopback HTTP server, driven over JSON-RPC on two keep-alive
//! connections — one for `submit_cloud`/`poll_result` writes, one for the
//! interleaved `stream_stats` and `GET /metrics` reads.
//!
//! `minihttp::http::request` sends `connection: close`, which would time
//! a server thread spawn per call, so this module carries its own
//! keep-alive client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgpcn_geometry::PointCloud;
use hgpcn_pcn::PointNet;
use hgpcn_runtime::RuntimeReport;
use hgpcn_serve::App;
use minihttp::http::{Limits, Request, Server, ServerHandle};
use minihttp::json::{self, Json};

use crate::drive::{sensor_ts, Poll, Samples, Target};
use crate::workload::{Fingerprint, Spec};

/// Every 4th completion is followed by a read: a `GET /metrics` scrape
/// after every 16th, a `stream_stats` call after the others.
const STATS_EVERY: usize = 4;
const SCRAPE_EVERY: usize = 16;

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request and reads the whole response; returns the body
    /// and the bytes moved both ways.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(Vec<u8>, u64)> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.writer.write_all(&msg)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut head = 0u64;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        head += line.len() as u64;
        if line.split_whitespace().nth(1) != Some("200") {
            return Err(bad(&format!("HTTP status line {:?}", line.trim_end())));
        }
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response head"));
            }
            head += line.len() as u64;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut out = vec![0u8; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut out)?;
        let bytes = msg.len() as u64 + head + out.len() as u64;
        Ok((out, bytes))
    }

    fn rpc(&mut self, body: &[u8]) -> Result<(Json, u64), String> {
        let (out, bytes) = self
            .request("POST", "/rpc", body)
            .map_err(|e| format!("rpc: {e}"))?;
        let text = std::str::from_utf8(&out).map_err(|e| e.to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if let Some(err) = doc.path("error") {
            return Err(format!("rpc error: {err}"));
        }
        Ok((doc, bytes))
    }
}

fn envelope(method: &str, params: Json) -> Vec<u8> {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", Json::from(1usize)),
        ("method", Json::str(method)),
        ("params", params),
    ])
    .to_string()
    .into_bytes()
}

/// `submit_cloud` bodies for every `(stream, frame)`, built once per run.
/// Coordinates are the f32 values widened to f64 and printed in full, so
/// the server parses back bit-identical clouds.
pub fn submit_bodies(clouds: &[Vec<PointCloud>]) -> Vec<Vec<Vec<u8>>> {
    clouds
        .iter()
        .enumerate()
        .map(|(s, frames)| {
            frames
                .iter()
                .enumerate()
                .map(|(i, cloud)| {
                    let points = cloud
                        .points()
                        .iter()
                        .map(|p| {
                            Json::Arr(vec![
                                Json::Num(p.x.into()),
                                Json::Num(p.y.into()),
                                Json::Num(p.z.into()),
                            ])
                        })
                        .collect();
                    envelope(
                        "submit_cloud",
                        Json::obj([
                            ("stream_id", Json::from(s)),
                            ("sensor_ts_s", Json::from(sensor_ts(i))),
                            ("points", Json::Arr(points)),
                        ]),
                    )
                })
                .collect()
        })
        .collect()
}

pub struct Wire<'a> {
    app: Arc<App>,
    started: Instant,
    server: ServerHandle,
    writes: Conn,
    reads: Option<Conn>,
    bodies: &'a [Vec<Vec<u8>>],
    streams: usize,
}

impl<'a> Wire<'a> {
    /// Builds the network, starts the runtime, binds the server, connects
    /// and opens every stream (the timed set-up).
    pub fn boot(spec: &Spec, seed: u64, bodies: &'a [Vec<Vec<u8>>]) -> Result<Wire<'a>, String> {
        let net = PointNet::new(spec.net_config(), seed);
        // The runtime stamps completions relative to its own start, which
        // `App::new` takes first thing.
        let started = Instant::now();
        let app = Arc::new(App::new(spec.runtime_config(seed), net).map_err(|e| e.to_string())?);
        // Routes exactly as `App::serve` does, keeping a handle on the
        // app so the session can sample its queue depth and stats.
        let handler = Arc::clone(&app);
        let server = Server::bind("127.0.0.1:0", Limits::default(), move |req: &Request| {
            handler.handle(req)
        })
        .map_err(|e| format!("bind: {e}"))?;
        let mut writes = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for s in 0..spec.streams {
            let body = envelope(
                "open_stream",
                Json::obj([
                    ("name", Json::str(format!("{}-{s}", spec.name))),
                    ("nominal_fps", Json::from(10.0)),
                ]),
            );
            let (doc, _) = writes.rpc(&body)?;
            if doc.usize_at("result.stream_id") != Some(s) {
                return Err(format!("open_stream returned {doc}"));
            }
        }
        Ok(Wire {
            app,
            started,
            server,
            writes,
            reads: None,
            bodies,
            streams: spec.streams,
        })
    }

    fn read_conn(&mut self) -> Result<&mut Conn, String> {
        if self.reads.is_none() {
            self.reads = Some(Conn::connect(self.server.addr()).map_err(|e| e.to_string())?);
        }
        Ok(self.reads.as_mut().expect("just connected"))
    }
}

impl Target for Wire<'_> {
    fn submit(&mut self, stream: usize, index: usize, samples: &mut Samples) -> Result<(), String> {
        let t = Instant::now();
        let (doc, bytes) = self.writes.rpc(&self.bodies[stream][index])?;
        samples.submit_rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        samples.wire_bytes += bytes;
        match doc.usize_at("result.frame_index") {
            Some(i) if i == index => Ok(()),
            _ => Err(format!("submit_cloud returned {doc}")),
        }
    }

    fn poll(&mut self, stream: usize, index: usize, wait: bool, samples: &mut Samples) -> Poll {
        let body = envelope(
            "poll_result",
            Json::obj([
                ("stream_id", Json::from(stream)),
                ("frame_index", Json::from(index)),
                ("wait", Json::Bool(wait)),
            ]),
        );
        let sent = Instant::now();
        let Ok((doc, bytes)) = self.writes.rpc(&body) else {
            return Poll::Failed;
        };
        // A round trip only when the server had the result before the
        // request left: otherwise a blocking poll also times the frame.
        let ready = doc
            .num("result.timing.wall_done_s")
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
            .map(|d| self.started + d);
        if !wait || ready.is_some_and(|r| r <= sent) {
            samples.poll_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        samples.wire_bytes += bytes;
        match doc.str_at("result.status") {
            Some("pending") => Poll::Pending,
            Some("done") => {
                let field = |name: &str| doc.usize_at(&format!("result.output.{name}"));
                match (field("rows"), field("macs"), field("predicted_class")) {
                    (Some(rows), Some(macs), Some(predicted_class)) => Poll::Done(Fingerprint {
                        rows,
                        macs: macs as u64,
                        predicted_class,
                        logits: None,
                    }),
                    _ => Poll::Failed,
                }
            }
            _ => Poll::Failed,
        }
    }

    /// At most one read per completion, so a read fits in the gap before
    /// the next scheduled send instead of pushing it back.
    fn after_completion(&mut self, completed: usize, samples: &mut Samples) {
        if !completed.is_multiple_of(STATS_EVERY) {
            return;
        }
        let scrape = completed.is_multiple_of(SCRAPE_EVERY);
        let stream = completed / STATS_EVERY % self.streams;
        let t = Instant::now();
        let read = self.read_conn().and_then(|c| {
            if scrape {
                c.request("GET", "/metrics", b"")
                    .map(drop)
                    .map_err(|e| e.to_string())
            } else {
                let params = Json::obj([("stream_id", Json::from(stream))]);
                c.rpc(&envelope("stream_stats", params)).map(drop)
            }
        });
        match read {
            Ok(()) if scrape => samples.scrape_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Ok(()) => {}
            Err(_) => samples.failed_reads += 1,
        }
    }

    fn queue_depth(&self) -> usize {
        self.app.runtime().queue_depth()
    }

    /// Every response of this server reaches a keep-alive client one
    /// delayed ACK (~40 ms) late, so a non-blocking poll costs as much as
    /// a blocking one; the open loop waits on the oldest frame instead.
    fn poll_interval(&self) -> Option<Duration> {
        None
    }

    fn finish(self) -> Result<(RuntimeReport, f64), String> {
        let t = Instant::now();
        let report = self.app.runtime().stats();
        let stats_ms = t.elapsed().as_secs_f64() * 1e3;
        let Wire {
            app,
            server,
            writes,
            reads,
            ..
        } = self;
        // Close both connections so their server threads end, stop the
        // listener, then wait for the last handler clone to go: dropping
        // the app joins the runtime's workers.
        drop((writes, reads));
        server.stop();
        let give_up = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&app) > 1 {
            if Instant::now() > give_up {
                return Err("server connection threads did not exit".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(app);
        Ok((report, stats_ms))
    }
}
