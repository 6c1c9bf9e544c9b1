//! Reload robustness: a corrupt or truncated checkpoint must never
//! take down the serving path. Every flipped byte and every truncation
//! of the artifact must (a) fail the reload, (b) leave the old
//! generation serving, and (c) bump `serve_reload_errors` — the PR 4
//! every-flipped-byte corruption harness, extended to the serve path.
//!
//! One `#[test]` function: obs is process-global and the
//! `serve_reload_errors` accounting below assumes this test owns it.

use mmsb_core::{ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::id as obs_id;
use mmsb_obs::{ObsConfig, ObsLevel};
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::{http, ServeConfig, ServeHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

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
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(K).with_seed(seed), 1)
            .unwrap();
    s.run(iters);
    s.checkpoint()
}

fn tmp_model_path() -> PathBuf {
    std::env::temp_dir().join(format!("mmsb-serve-corrupt-{}.ckpt", std::process::id()))
}

fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> (u16, String) {
    stream.write_all(request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some((status, total)) = http::parse_response(&buf) {
            assert_eq!(total, buf.len());
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

#[test]
fn corrupt_checkpoints_never_unseat_the_serving_generation() {
    mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let model_path = tmp_model_path();
    train_checkpoint(29, 8).save(&model_path).unwrap();
    let pristine = std::fs::read(&model_path).unwrap();

    let handle = ServeHandle::start(&model_path, &ServeConfig::default()).unwrap();
    assert_eq!(handle.generation(), 0);

    // Every single-byte flip must fail the reload and keep gen 0.
    let mut expected_errors = 0u64;
    for i in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[i] ^= 0x01;
        std::fs::write(&model_path, &bad).unwrap();
        assert!(
            handle.reload().is_err(),
            "flipped byte {i} must fail the reload"
        );
        expected_errors += 1;
        assert_eq!(
            handle.generation(),
            0,
            "flipped byte {i} changed generations"
        );
    }

    // Every truncation (sampled stride for speed, plus the hard edges)
    // must fail too.
    let mut cuts: Vec<usize> = (0..pristine.len()).step_by(97).collect();
    cuts.extend([0, 1, pristine.len() - 1]);
    for &cut in &cuts {
        std::fs::write(&model_path, &pristine[..cut]).unwrap();
        assert!(handle.reload().is_err(), "truncation at {cut} must fail");
        expected_errors += 1;
        assert_eq!(
            handle.generation(),
            0,
            "truncation at {cut} changed generations"
        );
    }

    // A deleted artifact fails the same way.
    std::fs::remove_file(&model_path).unwrap();
    assert!(handle.reload().is_err(), "missing file must fail");
    expected_errors += 1;

    // The HTTP reload path answers 500 and the old generation keeps
    // serving on the same connection.
    std::fs::write(&model_path, &pristine[..pristine.len() / 2]).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        b"POST /v1/reload HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("reload failed"), "{body}");
    expected_errors += 1;
    let (status, body) = roundtrip(&mut stream, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"generation\":0"), "{body}");

    // Exact error accounting, and the pristine artifact still reloads.
    let m = &mmsb_obs::get().unwrap().metrics;
    assert_eq!(
        m.counter_total(obs_id::C_SERVE_RELOAD_ERRORS),
        expected_errors
    );
    assert_eq!(m.counter_total(obs_id::C_SERVE_RELOADS), 0);

    std::fs::write(&model_path, &pristine).unwrap();
    assert_eq!(handle.reload().unwrap(), 1, "pristine bytes must reload");
    let m = &mmsb_obs::get().unwrap().metrics;
    assert_eq!(m.counter_total(obs_id::C_SERVE_RELOADS), 1);

    handle.shutdown();
    std::fs::remove_file(&model_path).ok();
}
