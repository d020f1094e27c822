//! The shared archive every workload runs against, and its set-up.
//!
//! The world is fixed: 8 topics × 250 pages, 16 simulated surfers with 20
//! sessions each (about 4k visits and 500 bookmarks). Workload seeds vary
//! the traffic sent to it, never the archive, so runs with different seeds
//! measure the same system state.

use std::sync::Arc;
use std::time::{Duration, Instant};

use memex_bench::worlds::{populated_memex, standard_community};
use memex_core::servlet::{Request, Response};
use memex_net::{ClientConfig, MemexClient, NetServer, NetServerConfig};
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::Community;

const CORPUS_SEED: u64 = 0x4d45_4d45_5801;
const COMMUNITY_SEED: u64 = 0x4d45_4d45_5802;

/// Corpus plus the simulated community whose history is the archive.
pub struct World {
    pub corpus: Arc<Corpus>,
    pub community: Community,
}

impl World {
    pub fn generate() -> World {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 8,
            pages_per_topic: 250,
            seed: CORPUS_SEED,
            ..CorpusConfig::default()
        }));
        let community = standard_community(&corpus, false, COMMUNITY_SEED);
        World { corpus, community }
    }
}

/// One complete set-up: world generation, archive replay (bookmarks
/// interleaved in time order, then the demons once), and a server with
/// default settings, one worker per core and tracing off, started and
/// proven to accept (a connect plus one answered request). Returns the
/// world, the running server and the elapsed time.
pub fn set_up(nproc: usize) -> (World, NetServer, Duration) {
    let started = Instant::now();
    let world = World::generate();
    let memex = populated_memex(world.corpus.clone(), &world.community);
    let config = NetServerConfig {
        workers: nproc,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind a loopback port");
    let mut probe = MemexClient::connect(server.local_addr(), ClientConfig::default())
        .expect("connect to the fresh server");
    match probe.request(&Request::Stats) {
        Ok(Response::Stats(_)) => {}
        other => panic!("fresh server did not answer Stats: {other:?}"),
    }
    (world, server, started.elapsed())
}
