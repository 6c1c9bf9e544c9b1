//! Fixture: a lockstep driver that times itself, runs a stage of the
//! chain, keeps a rollback checkpoint and reads whole blocks.

pub struct Driver {
    graph_cache: Vec<u8>,
    rollback: Option<crate::checkpoint::Checkpoint>,
}

impl Driver {
    pub fn step(&mut self, s: &mut Sampler) {
        let started = mmsb_obs::clock::now_ns();
        s.refresh_minibatch();
        update_phi(s);
        self.rollback = Some(Checkpoint::capture(s));
        s.file.read_block_into(0, &mut self.graph_cache);
        s.cost += mmsb_obs::clock::now_ns() - started;
    }
}
