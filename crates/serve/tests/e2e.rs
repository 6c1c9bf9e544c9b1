//! End-to-end: train a tiny model, checkpoint it, serve it over a real
//! socket, and exercise every endpoint — including reload and the obs
//! counters the server is supposed to maintain.
//!
//! One `#[test]` function: obs is process-global and the assertions on
//! counters only make sense when this test owns all traffic.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::id as obs_id;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::http;
use mmsb_serve::{ServeConfig, ServeHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

const K: usize = 4;

fn train_checkpoint(seed: u64, iters: u64) -> mmsb_core::Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 50,
            num_communities: K,
            mean_community_size: 14.0,
            memberships_per_vertex: 1.2,
            internal_degree: 8.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 25, &mut rng);
    let mut s =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(K).with_seed(seed), 1)
            .unwrap();
    s.run(iters);
    s.checkpoint()
}

fn tmp_model_path() -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-e2e-{}.ckpt", std::process::id()))
}

/// Send one request and read exactly one full response.
fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> (u16, String) {
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, total)) = http::parse_response(&buf) {
            assert_eq!(total, buf.len(), "trailing bytes after response");
            let body_start = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            return (
                status,
                String::from_utf8(buf[body_start..].to_vec()).unwrap(),
            );
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn get(stream: &mut TcpStream, path: &str) -> (u16, String) {
    roundtrip(stream, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
}

#[test]
fn serve_end_to_end() {
    mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let model_path = tmp_model_path();
    train_checkpoint(42, 12).save(&model_path).unwrap();

    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: 2,
            default_k: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    // Health: reports shape and the initial generation.
    let (status, body) = get(&mut stream, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(
        body.contains("\"n\":50") && body.contains(&format!("\"k\":{K}")),
        "{body}"
    );
    assert!(body.contains("\"generation\":0"), "{body}");

    // Membership: default k from config, explicit k, over-ask clamps.
    let (status, body) = get(&mut stream, "/v1/membership/7");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"community\":").count(), 3, "{body}");
    let (status, body) = get(&mut stream, "/v1/membership/7?k=1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"community\":").count(), 1, "{body}");
    let (status, body) = get(&mut stream, "/v1/membership/7?k=99");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"community\":").count(), K, "{body}");

    // Edge: a probability in [0, 1].
    let (status, body) = get(&mut stream, "/v1/edge/0/1");
    assert_eq!(status, 200, "{body}");
    let p: f64 = body
        .split("\"p\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .unwrap()
        .parse()
        .unwrap();
    assert!((0.0..=1.0).contains(&p), "{body}");

    // Community: member list honors min_weight (0 ⇒ all n members).
    let (status, body) = get(&mut stream, "/v1/community/0?min_weight=0");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"vertex\":").count(), 50, "{body}");
    let (status, body) = get(&mut stream, "/v1/community/0?min_weight=2.0");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"vertex\":").count(), 0, "{body}");

    // Metrics endpoint renders the obs registry.
    let (status, body) = get(&mut stream, "/metricsz");
    assert_eq!(status, 200);
    assert!(
        body.contains("serve"),
        "metricsz should name serve metrics: {body}"
    );

    // Error paths: bad input, out of range, unknown route, bad method.
    for (path, want) in [
        ("/v1/membership/notanumber", 400),
        ("/v1/membership/9999", 404),
        ("/v1/edge/0/9999", 404),
        ("/v1/edge/xyz", 400),
        ("/v1/community/9999", 404),
        ("/v1/nope", 404),
    ] {
        let (status, body) = get(&mut stream, path);
        assert_eq!(status, want, "{path}: {body}");
    }
    let (status, _) = roundtrip(&mut stream, b"DELETE /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);

    // Reload: overwrite the artifact with a longer-trained model, POST
    // /v1/reload, and the generation visible to this same connection
    // must bump — the snapshot swap happens under live traffic.
    train_checkpoint(43, 25).save(&model_path).unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        b"POST /v1/reload HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":1"), "{body}");
    let (status, body) = get(&mut stream, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":1"), "{body}");
    assert_eq!(handle.generation(), 1);

    // In-process reload works too.
    assert_eq!(handle.reload().unwrap(), 2);

    handle.shutdown();
    std::fs::remove_file(&model_path).ok();

    // The obs story: requests, connections and reloads were counted,
    // per-endpoint latency histograms saw traffic, and no connection
    // is still open.
    let m = &mmsb_obs::get().unwrap().metrics;
    assert!(m.counter_total(obs_id::C_SERVE_REQUESTS) >= 15);
    assert!(m.counter_total(obs_id::C_SERVE_CONNS) >= 1);
    assert_eq!(m.counter_total(obs_id::C_SERVE_RELOADS), 2);
    assert!(m.counter_total(obs_id::C_SERVE_ERRORS) >= 7);
    assert!(m.hist_count(obs_id::H_SERVE_MEMBERSHIP_NS) >= 3);
    assert!(m.hist_count(obs_id::H_SERVE_EDGE_NS) >= 2);
    assert!(m.hist_count(obs_id::H_SERVE_COMMUNITY_NS) >= 2);
    assert!(m.hist_count(obs_id::H_SERVE_OTHER_NS) >= 4);
    assert_eq!(m.gauge(obs_id::G_SERVE_CONNS_OPEN), 0);
}
