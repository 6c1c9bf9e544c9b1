//! Correctness checks shared by the workloads. They run after the peak RSS
//! was read and each counts as one operation in `attempted` / `failed`.

use crate::adapter::{self, Model, Source, StreamShape, TrainConfig, Trainer};
use crate::probes::ProgramCounts;
use crate::run::Run;
use std::path::Path;

/// A small twin of the training graphs is converted and trained ten steps on
/// both graph backends from the same seed; the two held-out perplexities
/// must be bitwise equal (the cache is pure scratch). 4 KiB blocks and a
/// 64-block cache make the out-of-core side evict constantly.
pub fn twin_backends_agree(
    dir: &Path,
    seed: u64,
    threads: usize,
    quick: bool,
) -> Result<bool, String> {
    let scale = if quick { 20 } else { 1 };
    let shape = StreamShape {
        vertices: 10_000 / scale,
        communities: 10,
        emitted_edges: 200_000 / scale as u64,
    };
    let edges = dir.join("twin.txt");
    let ooc = dir.join("twin.ooc");
    adapter::write_stream_edge_list(shape, seed, &edges).map_err(|e| e.to_string())?;
    adapter::convert(&edges, &ooc, 4 * 1024, dir)?;
    let file = adapter::open_verified(&ooc)?;
    // One held-out set for both: sampled by access, links stay in the graph.
    let heldout = adapter::heldout_observed(&file, 500 / scale as usize, 64, seed ^ 1);
    let graph = adapter::load_graph(&edges)?;
    let config = TrainConfig {
        k: 16,
        partitions: 50,
        anchors: 8,
        cache_blocks: 64,
        seed: seed ^ 2,
    };
    let perplexity_after_ten = |source: Source, heldout| -> Result<f64, String> {
        let mut trainer = Trainer::parallel(source, heldout, &config, threads)?;
        for _ in 0..10 {
            trainer.step();
        }
        Ok(trainer.perplexity())
    };
    let resident = perplexity_after_ten(Source::Resident(graph), heldout.clone())?;
    let out_of_core = perplexity_after_ten(Source::OutOfCore(file), heldout)?;
    Ok(resident.is_finite() && resident.to_bits() == out_of_core.to_bits())
}

/// `Checkpoint::load(save(x))` must serialise back to the bytes on disk.
/// Returns the loaded model and the load time in seconds.
pub fn checkpoint_round_trip(run: &mut Run, path: &Path) -> Result<(Model, f64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let (model, load_s) = run
        .tracer
        .time("core.checkpoint_load", || adapter::load_checkpoint(path));
    let model = model?;
    let same = model.serialises_to(&bytes);
    run.check("a loaded checkpoint re-serialises to identical bytes", same);
    Ok((model, load_s))
}

/// The key-value store and the collectives work only in the cluster
/// simulation: their counts are positive there and 0 everywhere else.
pub fn layer_counts(run: &mut Run, counts: &ProgramCounts, cluster: bool) {
    let all = [
        counts.dkv_read_keys,
        counts.dkv_write_keys,
        counts.dkv_read_batches,
        counts.comm_collectives,
    ];
    // a count the program no longer keeps is absent, not wrong
    let ok = all
        .iter()
        .flatten()
        .all(|&c| if cluster { c > 0.0 } else { c == 0.0 });
    run.check(
        if cluster {
            "dkv and comm counts are positive in the cluster simulation"
        } else {
            "dkv and comm counts are 0 outside the cluster simulation"
        },
        ok,
    );
}
