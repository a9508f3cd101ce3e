//! Admission + drain against a live server: over-cap connections get
//! the fast-path 503, graceful drain answers everything in flight with
//! zero client-visible errors, and force-close accounts its stragglers
//! exactly.

use mmsb_core::{SamplerConfig, SequentialSampler};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::{http, loadgen, ServeConfig, ServeHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const K: usize = 4;

fn train_checkpoint(seed: u64, iters: u64) -> mmsb_core::Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 40,
            num_communities: K,
            mean_community_size: 12.0,
            memberships_per_vertex: 1.2,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut s =
        SequentialSampler::new(graph, heldout, SamplerConfig::new(K).with_seed(seed)).unwrap();
    s.run(iters);
    s.checkpoint()
}

fn tmp_model(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-{tag}-{}.ckpt", std::process::id()))
}

/// Read exactly one full response; panics on anything unparseable.
fn read_response(stream: &mut TcpStream) -> (u16, usize) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(parsed) = http::parse_response(&buf) {
            return parsed;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn over_cap_connections_get_fast_path_503() {
    let model_path = tmp_model("shed");
    train_checkpoint(17, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            max_conns: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Conn A occupies the single slot and proves it works.
    let mut a = TcpStream::connect(handle.addr()).unwrap();
    a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut a);
    assert_eq!(status, 200);

    // Conn B must be swept with the canned 503 + Retry-After while A
    // idles — the worker sheds from the backlog at batch boundaries.
    let mut b = TcpStream::connect(handle.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut b);
    assert_eq!(status, 503, "over-cap connection must be shed");
    // And the shed conn is closed after the response.
    let mut rest = Vec::new();
    b.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "shed close must not trail bytes");

    // Conn A is unaffected.
    a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut a);
    assert_eq!(status, 200);

    let stats = handle.overload_stats();
    assert!(stats.shed_conns >= 1, "{stats:?}");
    assert_eq!(stats.admitted, 1, "{stats:?}");
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn graceful_drain_answers_everything_in_flight() {
    let model_path = tmp_model("drain");
    train_checkpoint(19, 6).save(&model_path).unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Two serial clients run until the server closes on them. Under a
    // graceful drain the only acceptable ends are: a complete response
    // followed by close, or a clean EOF *between* exchanges. A partial
    // response or a reset is a client-visible error.
    let stop_after = 10_000; // safety bound, drain ends the loop first
    let clients: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let req = b"GET /healthz HTTP/1.1\r\n\r\n";
                let mut completed = 0u64;
                let mut clean_eof = false;
                for _ in 0..stop_after {
                    if stream.write_all(req).is_err() {
                        // Write failed after the server closed at a
                        // boundary: clean from the protocol's view.
                        clean_eof = true;
                        break;
                    }
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 8192];
                    loop {
                        if let Some((status, total)) = http::parse_response(&buf) {
                            assert_eq!(status, 200);
                            assert_eq!(total, buf.len());
                            completed += 1;
                            break;
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) => {
                                assert!(
                                    buf.is_empty(),
                                    "partial response at close: {} bytes",
                                    buf.len()
                                );
                                clean_eof = true;
                                break;
                            }
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            // A reset with nothing received is the
                            // inherent keep-alive close race (the
                            // request never reached a worker —
                            // idempotent retry territory); a reset
                            // after partial bytes is real truncation.
                            Err(e) if buf.is_empty() => {
                                let _ = e;
                                clean_eof = true;
                                break;
                            }
                            Err(e) => panic!("truncated response during drain: {e}"),
                        }
                    }
                    if clean_eof {
                        break;
                    }
                }
                (completed, clean_eof)
            })
        })
        .collect();

    // Let the clients get into a steady rhythm, then drain.
    std::thread::sleep(Duration::from_millis(100));
    let report = handle.drain(2_000);

    let mut total_completed = 0;
    for c in clients {
        let (completed, clean_eof) = c.join().expect("no client panicked");
        assert!(clean_eof, "every client must see a clean close");
        assert!(completed > 0, "every client must have been served");
        total_completed += completed;
    }
    assert!(total_completed > 10, "drain started mid-traffic");
    assert_eq!(report.aborted, 0, "graceful drain must not abort: {report:?}");
    assert_eq!(report.completed, 2, "both conns closed at a boundary: {report:?}");
    assert!(!report.forced, "{report:?}");
    std::fs::remove_file(&model_path).ok();
}

/// Vertices of the wedge test's model. A `min_weight=0` community
/// listing names every vertex (~45 bytes each), so one response is
/// ~1 MB.
const WEDGE_VERTICES: u32 = 24_000;

/// Pipelined listing requests the wedge client sends in one write
/// (~3 KB, well under the server's read buffer, so they form one
/// batch). Their ~70 MB of responses is twice the largest buffers
/// Linux autotunes a loopback pair to (32 MiB receive + 4 MiB send by
/// default), and a client that never reads keeps its receive buffer far
/// below that maximum.
const WEDGE_REQUESTS: usize = 64;

/// A model over `n` vertices (one iteration is enough: only its size
/// matters to the listing).
fn large_checkpoint(seed: u64, n: u32) -> mmsb_core::Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: n,
            num_communities: K,
            mean_community_size: n as f64 / K as f64,
            memberships_per_vertex: 1.0,
            internal_degree: 2.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut s =
        SequentialSampler::new(graph, heldout, SamplerConfig::new(K).with_seed(seed)).unwrap();
    s.run(1);
    s.checkpoint()
}

#[test]
fn expired_drain_budget_force_closes_and_counts_aborts() {
    let model_path = tmp_model("force");
    large_checkpoint(23, WEDGE_VERTICES)
        .save(&model_path)
        .unwrap();
    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 1,
            // Long enough that the drain budget expires first, short
            // enough that the worker's blocked write resolves and the
            // drain's join returns quickly.
            deadline_ms: 1_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A never-read client wedges the worker in a response write: the
    // batch's responses cannot fit in the socket buffers, so the write
    // blocks until the deadline.
    let mut wedge = TcpStream::connect(handle.addr()).unwrap();
    let mut batch = Vec::new();
    for _ in 0..WEDGE_REQUESTS {
        batch.extend_from_slice(&loadgen::get_request("/v1/community/0?min_weight=0"));
    }
    wedge.write_all(&batch).unwrap();

    // The worker is wedged once response bytes arrive: it writes a
    // batch's responses in one call, so it is inside that write. `peek`
    // observes them without draining the receive buffer.
    wedge
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let sw = mmsb_obs::clock::Stopwatch::start();
    let mut probe = [0u8; 1];
    loop {
        match wedge.peek(&mut probe) {
            Ok(n) if n > 0 => break,
            Ok(_) => panic!("server closed before responding"),
            Err(_) => assert!(
                sw.elapsed_secs() < 120.0,
                "server never started writing the responses"
            ),
        }
    }

    // The 50ms budget expires while the worker is still stuck.
    let report = handle.drain(50);
    assert!(report.forced, "budget must have expired: {report:?}");
    assert_eq!(
        report.completed + report.aborted,
        1,
        "the one connection must be accounted exactly once: {report:?}"
    );
    drop(wedge);
    std::fs::remove_file(&model_path).ok();
}
