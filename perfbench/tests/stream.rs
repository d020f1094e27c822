//! Seeded streams: the same seed gives byte-identical traffic, another
//! seed different traffic, and each mix has the shape its README entry
//! promises.

use std::collections::HashSet;

use memex_bench::worlds::populated_memex;
use memex_core::servlet::Request;
use memex_perfbench::stream::{Catalog, Class, Plan, Workload};
use memex_perfbench::world::World;

fn plans(workload: Workload, seeds: &[u64]) -> Vec<Plan> {
    let world = World::generate();
    let archive = populated_memex(world.corpus.clone(), &world.community);
    let catalog = Catalog::new(&world, &archive);
    seeds
        .iter()
        .map(|&seed| Plan::generate(workload, seed, &world, &catalog, 2, 2))
        .collect()
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for workload in Workload::ALL {
        let p = plans(workload, &[7, 7, 8]);
        assert_eq!(p[0], p[1], "{}: same seed, same requests", workload.name());
        assert_eq!(p[0].fingerprint(), p[1].fingerprint());
        assert_ne!(
            p[0].fingerprint(),
            p[2].fingerprint(),
            "{}: another seed must change the stream",
            workload.name()
        );
        assert_eq!(p[0].streams.len(), 2);
        assert!(p[0].streams.iter().all(|s| !s.is_empty()));
    }
}

/// The user a request is for.
fn user(r: &Request) -> u32 {
    r.shard_key()
        .expect("every generated request is user-scoped")
}

#[test]
fn clients_own_disjoint_users() {
    for workload in Workload::ALL {
        let p = &plans(workload, &[3])[0];
        let a: HashSet<u32> = p.streams[0].iter().map(user).collect();
        let b: HashSet<u32> = p.streams[1].iter().map(user).collect();
        assert!(a.is_disjoint(&b), "{}", workload.name());
    }
}

#[test]
fn ingest_cadence() {
    let p = &plans(Workload::Ingest, &[5])[0];
    for stream in &p.streams {
        assert_eq!(stream.iter().map(user).collect::<HashSet<_>>().len(), 1);
        // Every cycle of twenty: 17 visits, 2 bookmarks, 1 recall, in an
        // order that differs between cycles.
        let mut orders = HashSet::new();
        for cycle in stream.chunks_exact(20) {
            let count = |c: Class| cycle.iter().filter(|r| Class::of(r) == c).count();
            assert_eq!(count(Class::Visit), 17);
            assert_eq!(count(Class::Bookmark), 2);
            assert_eq!(count(Class::Read), 1);
            orders.insert(cycle.iter().map(Class::of).collect::<Vec<_>>());
        }
        assert!(orders.len() > 1, "cycle order must vary");
        assert!(stream
            .iter()
            .filter(|r| Class::of(r) == Class::Read)
            .all(|r| matches!(r, Request::Recall { .. })));
    }
}

#[test]
fn human_revisit_working_set_fits_the_read_cache() {
    let p = &plans(Workload::HumanRevisit, &[5])[0];
    let all = p.interleaved();
    let reads: Vec<&&Request> = all.iter().filter(|r| Class::of(r) == Class::Read).collect();
    let distinct: HashSet<&Request> = reads.iter().map(|r| **r).collect();
    assert!(distinct.len() <= 256, "working set of {}", distinct.len());
    assert!(reads.len() > 4 * distinct.len(), "reads must revisit");
    assert!(all.iter().all(|r| Class::of(r) != Class::Bookmark));
    assert!(all.iter().any(|r| Class::of(r) == Class::Visit));
}
