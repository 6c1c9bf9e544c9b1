//! Reload under load: hammer the server from several client threads
//! while the model artifact is rewritten and reloaded repeatedly.
//!
//! What this proves about the snapshot cell: publishes never stall or
//! corrupt in-flight queries. Every request must complete with a 200 —
//! a torn snapshot would panic the worker (closing the connection,
//! which the client reports as an error), and a stalled publish would
//! deadlock the run.
//!
//! And about the snapshot build: a model reloaded over the socket
//! (built inside a serving worker, fanned out over scoped threads) is
//! served byte for byte like the same model built on the main thread.

use mmsb_core::{Checkpoint, ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_rand::{Rng, Xoshiro256PlusPlus};
use mmsb_serve::{http, loadgen, ServeConfig, ServeHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

const K: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 4_000;
const RELOADS: usize = 50;

fn train_checkpoint(seed: u64) -> Checkpoint {
    train(40, K, 8, seed)
}

fn train(n: u32, k: usize, iters: u64, seed: u64) -> Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: n,
            num_communities: k,
            mean_community_size: n as f64 * 3.0 / 10.0,
            memberships_per_vertex: 1.2,
            internal_degree: 7.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut s =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(k).with_seed(seed), 1)
            .unwrap();
    s.run(iters);
    s.checkpoint()
}

fn tmp_model(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-{tag}-{}.ckpt", std::process::id()))
}

/// Send one request and return the one complete 200 response.
fn fetch(stream: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((status, total)) = http::parse_response(&buf) {
            assert_eq!((status, total), (200, buf.len()));
            return buf;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn reload_under_load_never_drops_a_query() {
    let model_path = tmp_model("stress");
    // Two distinct trained models to alternate between, so every
    // reload actually changes the published planes.
    let (a, b) = (train_checkpoint(101), train_checkpoint(202));
    a.save(&model_path).unwrap();

    let handle = ServeHandle::start(
        &model_path,
        &ServeConfig {
            threads: CLIENTS,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let first_generation = handle.generation();

    let requests: Vec<Vec<u8>> = vec![
        loadgen::get_request("/v1/membership/3?k=2"),
        loadgen::get_request("/v1/edge/0/17"),
        loadgen::get_request("/v1/membership/39"),
        loadgen::get_request("/v1/edge/12/12"),
    ];

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let requests = &requests;
                scope.spawn(move || {
                    loadgen::throughput(addr, requests, REQUESTS_PER_CLIENT, 32).unwrap()
                })
            })
            .collect();

        // Publisher: alternate the artifact on disk and reload. Each
        // publish races the clients' refresh paths by construction.
        for i in 0..RELOADS {
            let next = if i % 2 == 0 { &b } else { &a };
            next.save(&model_path).unwrap();
            handle.reload().unwrap();
        }

        for client in clients {
            let report = client.join().unwrap();
            assert_eq!(report.requests, REQUESTS_PER_CLIENT as u64);
            assert_eq!(report.errors, 0, "non-200 under reload churn");
        }
    });

    assert_eq!(handle.generation(), first_generation + RELOADS);
    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn socket_reload_serves_what_a_main_thread_build_serves() {
    // Big enough (n * k >= 2^16) that the build fans out.
    let (n, k) = (4_200u32, 16usize);
    let model = train(n, k, 2, 303);
    assert_eq!((model.n(), model.k()), (n, k));
    let (main_path, socket_path) = (tmp_model("built-main"), tmp_model("built-socket"));
    model.save(&main_path).unwrap();
    train_checkpoint(101).save(&socket_path).unwrap();

    // One server builds the model on this thread; the other gets it
    // through `POST /v1/reload`, inside its worker. Both then serve
    // generation 1, which every body names.
    let on_main = ServeHandle::start(&main_path, &ServeConfig::default()).unwrap();
    assert_eq!(on_main.reload().unwrap(), 1);
    let on_socket = ServeHandle::start(&socket_path, &ServeConfig::default()).unwrap();
    let mut main_conn = TcpStream::connect(on_main.addr()).unwrap();
    let mut socket_conn = TcpStream::connect(on_socket.addr()).unwrap();
    model.save(&socket_path).unwrap();
    fetch(&mut socket_conn, &loadgen::post_request("/v1/reload"));
    assert_eq!(on_socket.generation(), 1);

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(404);
    let paths = (0..k)
        .map(|c| format!("/v1/community/{c}?min_weight=0"))
        .chain((0..200).map(|_| format!("/v1/membership/{}?k={k}", rng.below(n as u64))));
    for path in paths {
        let request = loadgen::get_request(&path);
        let want = fetch(&mut main_conn, &request);
        let got = fetch(&mut socket_conn, &request);
        assert!(got == want, "{path} differs after a reload over the socket");
    }

    on_main.shutdown();
    on_socket.shutdown();
    std::fs::remove_file(&main_path).ok();
    std::fs::remove_file(&socket_path).ok();
}
