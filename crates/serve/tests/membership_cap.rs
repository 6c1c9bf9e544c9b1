//! The top-k cap over a real socket: a snapshot ranks each vertex's
//! `TOP_K_CAP` (16) heaviest communities, so on a K = 40 model every
//! `/v1/membership/{v}?k=` at or above 16 is answered with 16 entries,
//! reports `"k":16`, and is byte-equal to the first 16 entries of a
//! full sort of the vertex's row (descending weight, ascending id).

use mmsb_core::{Checkpoint, ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_serve::{http, ServeConfig, ServeHandle, TOP_K_CAP};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;

const K: usize = 40;

fn train_checkpoint() -> Checkpoint {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
    let gen = generate_planted(
        &PlantedConfig {
            num_vertices: 80,
            num_communities: K,
            mean_community_size: 6.0,
            memberships_per_vertex: 1.5,
            internal_degree: 4.0,
            background_degree: 0.5,
        },
        &mut rng,
    );
    let (graph, heldout) = HeldOut::split(&gen.graph, 20, &mut rng);
    let mut s =
        ParallelSampler::with_threads(graph, heldout, SamplerConfig::new(K).with_seed(5), 1)
            .unwrap();
    s.run(10);
    s.checkpoint()
}

fn get(stream: &mut TcpStream, path: &str) -> (u16, String) {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
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

/// The body a top-`k` query for `v` must return: the first `k` ids of
/// a full comparator sort of the row, each with its f32 weight widened.
fn reference_body(row: &[f32], v: usize, k: usize) -> String {
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&x, &y| row[y].total_cmp(&row[x]).then(x.cmp(&y)));
    let entries: Vec<String> = order[..k]
        .iter()
        .map(|&c| format!("{{\"community\":{c},\"weight\":{}}}", row[c] as f64))
        .collect();
    format!(
        "{{\"vertex\":{v},\"k\":{k},\"generation\":0,\"communities\":[{}]}}",
        entries.join(",")
    )
}

#[test]
fn a_k40_model_answers_every_ask_above_the_cap_with_its_16_heaviest() {
    let ckpt = train_checkpoint();
    assert_eq!(ckpt.k(), K);
    let path = std::env::temp_dir().join(format!("mmsb-serve-cap-{}.ckpt", std::process::id()));
    ckpt.save(&path).unwrap();
    let handle = ServeHandle::start(
        &path,
        &ServeConfig {
            default_k: TOP_K_CAP,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();

    let n = ckpt.n() as usize;
    for v in [0, 1, 17, n / 2, n - 1] {
        let row = &ckpt.pi()[v * K..(v + 1) * K];
        let want = reference_body(row, v, TOP_K_CAP);
        for query in ["?k=16", "?k=40", "?k=99", ""] {
            let (status, body) = get(&mut stream, &format!("/v1/membership/{v}{query}"));
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, want, "vertex {v}, query {query:?}");
        }
        // Below the cap the prefix is served as asked.
        let (_, body) = get(&mut stream, &format!("/v1/membership/{v}?k=3"));
        assert_eq!(body, reference_body(row, v, 3), "vertex {v}, k=3");
    }

    drop(stream);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
