//! Zero-dependency blocking HTTP ops surface.
//!
//! One `std::net::TcpListener` accept loop on a background thread,
//! serving three read-only endpoints:
//!
//! * `/metrics` — the installed recorder's aggregates rendered in
//!   Prometheus text exposition format (counters, gauges, histogram
//!   buckets + quantiles);
//! * `/healthz` — `200 ok` / `503 degraded` from an [`OpsHealth`] cell
//!   the host updates whenever its health changes;
//! * `/traces` — drains the flight recorder (`flight.rs`) as JSONL.
//!
//! No HTTP library, no async runtime: requests are tiny GETs from a
//! scraper, so a short read under one deadline and a `Connection: close`
//! response is the whole protocol. [`validate_exposition`] parses the
//! exposition format back so `check.sh ops` can gate the scrape output
//! offline.

use crate::memory::Aggregates;
use crate::olock;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Health cell
// ---------------------------------------------------------------------

/// Shared health state behind `/healthz`: the serving loop updates it,
/// the ops server reads it. Starts healthy with detail `"startup"`
/// until the first report lands.
pub struct OpsHealth {
    /// `Relaxed`: a stale read serves one slightly old verdict, which a
    /// scraper tolerates by design.
    healthy: AtomicBool,
    detail: Mutex<String>,
}

impl Default for OpsHealth {
    fn default() -> Self {
        OpsHealth { healthy: AtomicBool::new(true), detail: Mutex::new("startup".to_string()) }
    }
}

impl OpsHealth {
    /// A fresh health cell, shareable between the updater and the server.
    pub fn new() -> Arc<OpsHealth> {
        Arc::new(OpsHealth::default())
    }

    /// Publishes the latest health verdict and its human-readable detail.
    pub fn set(&self, healthy: bool, detail: &str) {
        *olock(&self.detail) = detail.to_string();
        self.healthy.store(healthy, Ordering::Relaxed);
    }

    /// The last published verdict.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// The last published detail string.
    pub fn detail(&self) -> String {
        olock(&self.detail).clone()
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A running ops server. Shuts down (flag + wake-up connection + join)
/// on [`shutdown`](OpsServer::shutdown) or drop.
pub struct OpsServer {
    addr: SocketAddr,
    /// Shutdown latch, set once and checked per accept; not hot, so
    /// `SeqCst` states the intent for free.
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port — the
    /// test-friendly default) and starts the accept loop on a
    /// background thread.
    pub fn start(port: u16, health: Arc<OpsHealth>) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("traj-ops".to_string())
            .spawn(move || accept_loop(listener, stop_loop, health))?;
        Ok(OpsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, health: Arc<OpsHealth>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => handle_conn(stream, &health),
            // The ops surface is diagnostics-only: report and keep
            // serving rather than taking the host down.
            #[expect(
                clippy::print_stderr,
                reason = "the recorder may be what is broken; a silent accept failure looks healthy"
            )]
            Err(e) => {
                eprintln!("traj-ops: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// The whole request head must arrive within this long. It is one
/// deadline, not a per-read timeout: the accept thread serves one
/// connection at a time, so a client trickling a byte per read would
/// otherwise hold every endpoint for as long as it liked.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Reads the request head (up to 8 KiB, within [`HEAD_DEADLINE`]) and
/// writes one response. Any IO failure or a missed deadline just drops
/// the connection — a scraper retries, the engine must not care.
fn handle_conn(mut stream: TcpStream, health: &OpsHealth) {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(&mut stream, "405 Method Not Allowed", "text/plain", "only GET is served\n");
        return;
    }
    match path {
        "/metrics" => {
            let agg = crate::snapshot_aggregates().unwrap_or_default();
            let body = render_prometheus(&agg);
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/healthz" => {
            let detail = health.detail();
            if health.healthy() {
                respond(&mut stream, "200 OK", "text/plain", &format!("ok: {detail}\n"));
            } else {
                respond(
                    &mut stream,
                    "503 Service Unavailable",
                    "text/plain",
                    &format!("degraded: {detail}\n"),
                );
            }
        }
        "/traces" => {
            let mut body = String::new();
            if let Some(rec) = crate::flight::recorder() {
                for entry in rec.drain() {
                    body.push_str(&entry.to_json_line());
                    body.push('\n');
                }
            }
            respond(&mut stream, "200 OK", "application/x-ndjson", &body);
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "unknown path\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

/// Maps a dotted metric name to the Prometheus charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value the way the exposition format spells
/// non-finite floats.
fn metric_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders aggregated metrics in Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms
/// as cumulative `_bucket{le=...}` series plus `_sum`/`_count`, with
/// `_p50`/`_p95`/`_p99` quantile gauges alongside for dashboards that
/// don't compute `histogram_quantile`.
pub fn render_prometheus(agg: &Aggregates) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, v) in &agg.counters {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {v}");
    }
    for (name, v) in &agg.gauges {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {}", metric_value(*v));
    }
    for (name, h) in &agg.histograms {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} histogram");
        let mut cum = 0u64;
        for (le, c) in h.nonzero_buckets() {
            cum += c;
            let _ = writeln!(out, "{m}_bucket{{le=\"{}\"}} {cum}", metric_value(le));
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{m}_sum {}", metric_value(h.sum()));
        let _ = writeln!(out, "{m}_count {}", h.count());
        for (suffix, q) in [("p50", h.p50()), ("p95", h.p95()), ("p99", h.p99())] {
            let _ = writeln!(out, "# TYPE {m}_{suffix} gauge");
            let _ = writeln!(out, "{m}_{suffix} {}", metric_value(q));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Offline exposition validation (the `check.sh ops` gate)
// ---------------------------------------------------------------------

fn parse_sample_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse::<f64>().map_err(|_| format!("bad sample value {other:?}")),
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

struct HistState {
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validates Prometheus text exposition output offline: `# TYPE` lines
/// declare a known kind, every sample parses as `name[{labels}] value`
/// with a legal metric name, and each declared histogram has ascending
/// `le` edges with non-decreasing cumulative counts ending at a `+Inf`
/// bucket that equals `_count`, plus a `_sum`. Returns the number of
/// sample lines.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    use std::collections::BTreeMap;
    let mut histograms: BTreeMap<String, HistState> = BTreeMap::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().ok_or(format!("line {n}: TYPE without a name"))?;
                let kind = parts.next().ok_or(format!("line {n}: TYPE without a kind"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: illegal metric name {name:?}"));
                }
                match kind {
                    "counter" | "gauge" | "summary" | "untyped" => {}
                    "histogram" => {
                        histograms.insert(
                            name.to_string(),
                            HistState { buckets: Vec::new(), sum: None, count: None },
                        );
                    }
                    other => return Err(format!("line {n}: unknown TYPE kind {other:?}")),
                }
            }
            continue;
        }
        // Sample: name[{labels}] value
        let (name_part, value_part) = match line.find(|c: char| c.is_whitespace()) {
            Some(split) if !line[..split].contains('{') => {
                (&line[..split], line[split..].trim())
            }
            _ => {
                // Labels may contain spaces inside quotes; split after '}'.
                let close = line.find('}').ok_or(format!("line {n}: unparseable sample"))?;
                (&line[..close + 1], line[close + 1..].trim())
            }
        };
        let value = parse_sample_value(value_part).map_err(|e| format!("line {n}: {e}"))?;
        let (bare, labels) = match name_part.find('{') {
            Some(open) => {
                if !name_part.ends_with('}') {
                    return Err(format!("line {n}: unterminated label set"));
                }
                (&name_part[..open], Some(&name_part[open + 1..name_part.len() - 1]))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(bare) {
            return Err(format!("line {n}: illegal metric name {bare:?}"));
        }
        samples += 1;

        if let Some(hist_name) = bare.strip_suffix("_bucket") {
            if let Some(state) = histograms.get_mut(hist_name) {
                let labels = labels.ok_or(format!("line {n}: _bucket without labels"))?;
                let le_text = labels
                    .split(',')
                    .find_map(|kv| kv.trim().strip_prefix("le="))
                    .ok_or(format!("line {n}: _bucket without an le label"))?
                    .trim_matches('"');
                let le = parse_sample_value(le_text).map_err(|e| format!("line {n}: {e}"))?;
                state.buckets.push((le, value));
                continue;
            }
        }
        if let Some(hist_name) = bare.strip_suffix("_sum") {
            if let Some(state) = histograms.get_mut(hist_name) {
                state.sum = Some(value);
                continue;
            }
        }
        if let Some(hist_name) = bare.strip_suffix("_count") {
            if let Some(state) = histograms.get_mut(hist_name) {
                state.count = Some(value);
                continue;
            }
        }
    }
    for (name, state) in &histograms {
        if state.buckets.is_empty() {
            return Err(format!("histogram {name} has no buckets"));
        }
        for w in state.buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("histogram {name}: le edges not ascending"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("histogram {name}: cumulative counts decreased"));
            }
        }
        let (last_le, last_cum) = state.buckets[state.buckets.len() - 1];
        if last_le != f64::INFINITY {
            return Err(format!("histogram {name}: final bucket is not le=\"+Inf\""));
        }
        let count = state.count.ok_or(format!("histogram {name}: missing _count"))?;
        if state.sum.is_none() {
            return Err(format!("histogram {name}: missing _sum"));
        }
        if last_cum != count {
            return Err(format!(
                "histogram {name}: +Inf bucket {last_cum} disagrees with _count {count}"
            ));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Recorder};

    fn sample_aggregates() -> Aggregates {
        let rec = InMemoryRecorder::default();
        rec.counter("engine.inserts", 42);
        rec.counter("engine.linear_fallbacks", 3);
        rec.gauge("soak.drift_p95", 0.125);
        for i in 1..=200 {
            rec.observe("engine.query.mih", i as f64 * 1e-5);
        }
        rec.aggregates()
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let text = render_prometheus(&sample_aggregates());
        let samples = validate_exposition(&text).expect("valid exposition");
        assert!(samples >= 8, "expected counters+gauge+histogram series, got {samples}:\n{text}");
        assert!(text.contains("# TYPE engine_inserts counter"), "{text}");
        assert!(text.contains("engine_inserts 42"), "{text}");
        assert!(text.contains("# TYPE soak_drift_p95 gauge"), "{text}");
        assert!(text.contains("# TYPE engine_query_mih histogram"), "{text}");
        assert!(text.contains("engine_query_mih_bucket{le=\"+Inf\"} 200"), "{text}");
        assert!(text.contains("engine_query_mih_count 200"), "{text}");
        assert!(text.contains("engine_query_mih_p99"), "{text}");
    }

    #[test]
    fn empty_aggregates_render_an_empty_valid_exposition() {
        let text = render_prometheus(&Aggregates::default());
        assert_eq!(validate_exposition(&text), Ok(0));
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("# TYPE x mystery\n").is_err());
        assert!(validate_exposition("9bad 1\n").is_err());
        assert!(validate_exposition("name notanumber\n").is_err());
        // Histogram whose +Inf bucket disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 9\n";
        assert!(validate_exposition(bad).unwrap_err().contains("disagrees"));
        // Histogram missing the +Inf bucket entirely.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));
        // Cumulative counts must not decrease.
        let dec = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(dec).unwrap_err().contains("decreased"));
    }

    #[test]
    fn server_serves_metrics_health_and_traces() {
        use std::io::{Read as _, Write as _};
        // `/traces` drains the global flight ring: not while the flight
        // test has one installed.
        let _slot = crate::olock(&crate::flight::tests::SLOT_TESTS);
        let health = OpsHealth::new();
        let mut server = OpsServer::start(0, health.clone()).expect("bind ephemeral");
        let addr = server.addr();

        let get = |path: &str| -> String {
            let mut conn = TcpStream::connect(addr).expect("connect");
            let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .expect("write request");
            let mut text = String::new();
            let _ = conn.read_to_string(&mut text);
            text
        };

        // Health flips between ok and degraded.
        assert!(get("/healthz").starts_with("HTTP/1.1 200"));
        health.set(false, "drift over threshold");
        let resp = get("/healthz");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("drift over threshold"), "{resp}");
        health.set(true, "tick 5");
        assert!(get("/healthz").starts_with("HTTP/1.1 200"));

        // /metrics renders whatever recorder is installed; with none on
        // this thread it is an empty, still-valid exposition.
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        let body = metrics.split("\r\n\r\n").nth(1).expect("body");
        assert!(validate_exposition(body).is_ok(), "{body}");

        // Unknown path and bad method.
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
        let traces = get("/traces");
        assert!(traces.starts_with("HTTP/1.1 200"), "{traces}");

        server.shutdown();
        // Idempotent shutdown (also exercised again on drop).
        server.shutdown();
    }
}
