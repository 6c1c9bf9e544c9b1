//! Fixture: the conforming twin of `layer_boundary_bad.rs` — the driver
//! runs the pool driver's step and prices its record. The names the
//! boundary forbids appear only in strings and trailing comments, which
//! never match, and the neighbours they resemble stay legal.

pub struct Driver {
    graph_cache_blocks: usize, // not a `graph_cache:` field
    held: Vec<StepRecord>,
}

impl Driver {
    pub fn step(&mut self, s: &mut Sampler) -> Result<(), Error> {
        s.try_step_recording(Some(&mut self.record))?; // no update_phi() here
        self.cluster.price(&self.record);
        Ok(())
    }

    pub fn checkpoint(&self, s: &Sampler) -> Checkpoint {
        let _why = "no Checkpoint::capture, no now_ns(), no read_block_into";
        s.checkpoint()
    }
}
