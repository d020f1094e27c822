//! Seeded request streams: the two traffic mixes.
//!
//! A [`Plan`] holds one fixed request sequence per client. It is a pure
//! function of the workload, the seed, the client count, the run length
//! and the (fixed) archive, so two commits measured with the same seed
//! send byte-identical traffic even though writes grow the archive. The
//! generator uses its own SplitMix64 so the streams do not shift when a
//! library's random number generator changes.
//!
//! Every client owns a disjoint set of users and is the only one that
//! writes or reads for them. Each user's history is therefore known
//! exactly on the client side, which the answer checks rely on.

use memex_core::memex::Memex;
use memex_core::servlet::Request;
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_server::events::{ClientEvent, VisitEvent};

use crate::world::World;

/// A traffic mix (see the README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One user per client streaming topical visits, a bookmark every 10
    /// events and an own-history recall every 20.
    Ingest,
    /// Users revisit a small working set of recall / trail / bill queries,
    /// with a visit write every few reads.
    HumanRevisit,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Ingest, Workload::HumanRevisit];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::HumanRevisit => "human-revisit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests each client sends per second of run length. Calibrated on
    /// a 2-core x86-64 host so that the timed run lasts about `--seconds`
    /// there; the count is fixed, so a faster commit simply finishes
    /// sooner.
    fn requests_per_client_second(self) -> f64 {
        match self {
            Workload::Ingest => 80.0,
            Workload::HumanRevisit => 560.0,
        }
    }
}

/// Request class, as the latency metrics split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Read,
    Visit,
    Bookmark,
}

impl Class {
    pub fn of(request: &Request) -> Class {
        match request {
            Request::Event(ClientEvent::Bookmark { .. }) => Class::Bookmark,
            Request::Event(_) | Request::ImportBookmarks { .. } => Class::Visit,
            _ => Class::Read,
        }
    }
}

/// SplitMix64: small, seedable, and stable across library upgrades.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// `n` steps made of back-to-back copies of `cycle`, each copy in its
    /// own random order. Every cycle keeps the mix exact, so seeds differ
    /// only in content; the order varies so two clients never lock into
    /// sending their expensive requests at the same moments run after run.
    pub fn cycles<T: Copy>(&mut self, cycle: &[T], n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n + cycle.len());
        while out.len() < n {
            let start = out.len();
            out.extend_from_slice(cycle);
            for i in (1..cycle.len()).rev() {
                let j = self.below(i as u64 + 1) as usize;
                out.swap(start + i, start + j);
            }
        }
        out.truncate(n);
        out
    }
}

const DAY_MS: u64 = 86_400_000;

/// What the generator reads from the archive before the run.
pub struct Catalog {
    /// Per user (indexed by user id): interests, strongest first.
    interests: Vec<Vec<usize>>,
    /// Per user: leaf folders of their folder space after set-up.
    folders: Vec<Vec<TopicId>>,
    /// Per user: the last page they visited during set-up.
    last_page: Vec<u32>,
    /// Per topic: words usable as recall terms.
    terms: Vec<Vec<String>>,
    /// Per topic: front pages (session entry points).
    fronts: Vec<Vec<u32>>,
    topic_names: Vec<String>,
    /// Latest visit time in the set-up history.
    horizon: u64,
}

impl Catalog {
    pub fn new(world: &World, archive: &Memex) -> Catalog {
        let corpus = &world.corpus;
        let n_users = world.community.users.len();
        let mut last_page = vec![0u32; n_users];
        for v in &world.community.visits {
            last_page[v.user as usize] = v.page;
        }
        let n_topics = corpus.config.num_topics;
        let terms = (0..n_topics)
            .map(|t| {
                let mut words: Vec<String> = corpus
                    .pages_of_topic(t)
                    .into_iter()
                    .filter(|&p| !corpus.pages[p as usize].is_front)
                    .flat_map(|p| {
                        corpus.pages[p as usize]
                            .title
                            .split_whitespace()
                            .map(str::to_string)
                            .collect::<Vec<_>>()
                    })
                    .collect();
                words.sort();
                words.dedup();
                words
            })
            .collect();
        Catalog {
            interests: world
                .community
                .users
                .iter()
                .map(|u| u.interests.clone())
                .collect(),
            folders: (0..n_users as u32)
                .map(|u| {
                    let classes = archive.folder_space_ref(u).classes().to_vec();
                    if classes.is_empty() {
                        vec![Taxonomy::ROOT]
                    } else {
                        classes
                    }
                })
                .collect(),
            last_page,
            terms,
            fronts: (0..n_topics)
                .map(|t| corpus.front_pages_of_topic(t))
                .collect(),
            topic_names: corpus.topic_names.clone(),
            horizon: world
                .community
                .visits
                .iter()
                .map(|v| v.time)
                .max()
                .unwrap_or(0),
        }
    }

    fn users(&self) -> u32 {
        self.interests.len() as u32
    }

    fn query(&self, rng: &mut Rng, topic: usize) -> String {
        let n = rng.range(1, 3);
        (0..n)
            .map(|_| rng.pick(&self.terms[topic]).as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A user's surfing state while the generator walks the web graph.
struct Surfer {
    user: u32,
    session: u32,
    topic: usize,
    page: u32,
    referrer: Option<u32>,
    left_in_session: u64,
    time: u64,
}

impl Surfer {
    fn new(catalog: &Catalog, user: u32, session_base: u32) -> Surfer {
        Surfer {
            user,
            session: session_base,
            topic: catalog.interests[user as usize][0],
            page: catalog.last_page[user as usize],
            referrer: None,
            left_in_session: 0,
            time: catalog.horizon + DAY_MS,
        }
    }

    /// The next visit on this user's trail: topical sessions that follow
    /// on-topic out-links, with occasional jumps back to a front page.
    fn visit(&mut self, rng: &mut Rng, world: &World, catalog: &Catalog) -> Request {
        let corpus = &world.corpus;
        if self.left_in_session == 0 {
            let interests = &catalog.interests[self.user as usize];
            self.topic = if rng.chance(0.5) {
                interests[0]
            } else {
                *rng.pick(interests)
            };
            self.session += 1;
            self.left_in_session = rng.range(6, 20);
            self.page = *rng.pick(&catalog.fronts[self.topic]);
            self.referrer = None;
            self.time += rng.range(DAY_MS / 4, 2 * DAY_MS);
        } else {
            let outs = corpus.graph.out_links(self.page);
            if outs.is_empty() || rng.chance(0.08) {
                self.page = *rng.pick(&catalog.fronts[self.topic]);
                self.referrer = None;
            } else {
                let on_topic: Vec<u32> = outs
                    .iter()
                    .copied()
                    .filter(|&p| corpus.topic_of(p) == self.topic)
                    .collect();
                let next = if !on_topic.is_empty() && rng.chance(0.8) {
                    *rng.pick(&on_topic)
                } else {
                    *rng.pick(outs)
                };
                self.referrer = Some(self.page);
                self.page = next;
            }
            self.time += rng.range(5_000, 120_000);
        }
        self.left_in_session -= 1;
        Request::Event(ClientEvent::Visit(VisitEvent {
            user: self.user,
            session: self.session,
            page: self.page,
            url: corpus.pages[self.page as usize].url.clone(),
            time: self.time,
            referrer: self.referrer,
        }))
    }

    /// Bookmark the page just visited into the session topic's folder.
    fn bookmark(&mut self, world: &World, catalog: &Catalog) -> Request {
        self.time += 1_000;
        Request::Event(ClientEvent::Bookmark {
            user: self.user,
            page: self.page,
            url: world.corpus.pages[self.page as usize].url.clone(),
            folder: format!("/{}", catalog.topic_names[self.topic]),
            time: self.time,
        })
    }
}

/// The fixed request sequence of one run: one stream per client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub streams: Vec<Vec<Request>>,
}

impl Plan {
    /// Generate the streams for `clients` clients and a run of `seconds`.
    pub fn generate(
        workload: Workload,
        seed: u64,
        world: &World,
        catalog: &Catalog,
        clients: usize,
        seconds: u64,
    ) -> Plan {
        let per_client = (workload.requests_per_client_second() * seconds as f64).ceil() as usize;
        let mut rng = Rng::new(seed ^ 0x5eed_4d45_4d45_5801);
        let streams = match workload {
            Workload::Ingest => ingest(&mut rng, world, catalog, clients, per_client),
            Workload::HumanRevisit => human_revisit(&mut rng, world, catalog, clients, per_client),
        };
        Plan { streams }
    }

    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The streams merged round-robin (client 0's first request, client
    /// 1's first, ...): the order the in-process replays apply them in.
    pub fn interleaved(&self) -> Vec<&Request> {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.streams.iter().filter_map(move |s| s.get(i)))
            .collect()
    }

    /// FNV-1a over every request's wire encoding, framed by client index
    /// and length: equal fingerprints mean byte-identical traffic.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (c, stream) in self.streams.iter().enumerate() {
            eat(&(c as u64).to_le_bytes());
            for request in stream {
                let wire = memex_net::wire::encode_request(request);
                eat(&(wire.len() as u64).to_le_bytes());
                eat(&wire);
            }
        }
        h
    }
}

/// The users client `c` of `clients` owns.
fn owned_users(catalog: &Catalog, c: usize, clients: usize) -> Vec<u32> {
    (0..catalog.users())
        .filter(|u| *u as usize % clients == c)
        .collect()
}

/// One step of an ingest stream.
#[derive(Clone, Copy)]
enum Step {
    Visit,
    Bookmark,
    Recall,
}

/// Twenty ingest events: 17 visits, 2 bookmarks, 1 own-history recall.
const INGEST_CYCLE: [Step; 20] = {
    let mut cycle = [Step::Visit; 20];
    cycle[0] = Step::Bookmark;
    cycle[1] = Step::Bookmark;
    cycle[2] = Step::Recall;
    cycle
};

fn ingest(
    rng: &mut Rng,
    world: &World,
    catalog: &Catalog,
    clients: usize,
    per_client: usize,
) -> Vec<Vec<Request>> {
    // Each client streams for the first user it owns; the seed varies the
    // sessions, pages and queries, not whose archive grows.
    (0..clients)
        .map(|c| {
            let user = owned_users(catalog, c, clients)[0];
            let mut surfer = Surfer::new(catalog, user, 1_000_000 * (c as u32 + 1));
            rng.cycles(&INGEST_CYCLE, per_client)
                .into_iter()
                .map(|step| match step {
                    Step::Bookmark => surfer.bookmark(world, catalog),
                    Step::Recall => {
                        let span = rng.range(DAY_MS, 90 * DAY_MS);
                        Request::Recall {
                            user,
                            query: catalog.query(rng, surfer.topic),
                            since: surfer.time.saturating_sub(span),
                            until: surfer.time,
                            k: if rng.chance(0.5) { 5 } else { 10 },
                        }
                    }
                    Step::Visit => surfer.visit(rng, world, catalog),
                })
                .collect()
        })
        .collect()
}

/// Requests per human session on one user.
const HUMAN_SESSION: usize = 64;
/// One block of a human session, in random order: which working-set query
/// each step re-asks (skewed to the favourite), and one visit (`None`).
const HUMAN_BLOCK: [Option<usize>; 16] = [
    Some(0),
    Some(1),
    Some(0),
    Some(2),
    Some(0),
    Some(1),
    Some(0),
    Some(0),
    Some(2),
    Some(0),
    Some(1),
    Some(0),
    Some(0),
    Some(1),
    Some(2),
    None,
];

fn human_revisit(
    rng: &mut Rng,
    world: &World,
    catalog: &Catalog,
    clients: usize,
    per_client: usize,
) -> Vec<Vec<Request>> {
    let horizon = catalog.horizon;
    (0..clients)
        .map(|c| {
            let users = owned_users(catalog, c, clients);
            let mut surfers: Vec<Surfer> = users
                .iter()
                .map(|&u| Surfer::new(catalog, u, 1_000_000 * (c as u32 + 1) + 10_000 * u))
                .collect();
            // Each user's working set: one recall, one trail replay and one
            // bill, asked again and again.
            let working: Vec<[Request; 3]> = users
                .iter()
                .map(|&user| {
                    let topic = catalog.interests[user as usize][0];
                    [
                        Request::Recall {
                            user,
                            query: catalog.query(rng, topic),
                            since: 0,
                            until: u64::MAX,
                            k: 10,
                        },
                        Request::TrailReplay {
                            user,
                            folder: *rng.pick(&catalog.folders[user as usize]),
                            since: horizon.saturating_sub(30 * DAY_MS),
                            max_pages: 15,
                        },
                        Request::Bill {
                            user,
                            since: horizon.saturating_sub(rng.range(30, 180) * DAY_MS),
                            until: u64::MAX,
                        },
                    ]
                })
                .collect();
            let mut current = 0;
            let steps = rng.cycles(&HUMAN_BLOCK, per_client);
            steps
                .into_iter()
                .enumerate()
                .map(|(i, step)| {
                    if i % HUMAN_SESSION == 0 {
                        current = rng.below(users.len() as u64) as usize;
                    }
                    match step {
                        Some(pick) => working[current][pick].clone(),
                        None => surfers[current].visit(rng, world, catalog),
                    }
                })
                .collect()
        })
        .collect()
}

/// The per-user questions compared across archives at the end of a run:
/// each user's recall, trail replay of their first folder, and bill.
pub fn final_queries(catalog: &Catalog) -> Vec<Request> {
    (0..catalog.users())
        .flat_map(|user| {
            let mut rng = Rng::new(0xf1_4a1 ^ u64::from(user));
            let topic = catalog.interests[user as usize][0];
            [
                Request::Recall {
                    user,
                    query: catalog.query(&mut rng, topic),
                    since: 0,
                    until: u64::MAX,
                    k: 10,
                },
                Request::TrailReplay {
                    user,
                    folder: catalog.folders[user as usize][0],
                    since: 0,
                    max_pages: 20,
                },
                Request::Bill {
                    user,
                    since: 0,
                    until: u64::MAX,
                },
            ]
        })
        .collect()
}

/// Users the traced run's fixed probe touches.
const PROBE_USERS: u32 = 8;

/// The traced run's fixed tail, the same on every workload: per probe
/// user three visits and a bookmark, then each of the six §1 queries.
pub fn probe(world: &World, catalog: &Catalog) -> Vec<Request> {
    let mut rng = Rng::new(0x0009_e0be);
    let mut out = Vec::new();
    for user in 0..PROBE_USERS {
        let mut surfer = Surfer::new(catalog, user, 900_000_000 + 1_000 * user);
        for _ in 0..3 {
            out.push(surfer.visit(&mut rng, world, catalog));
        }
        out.push(surfer.bookmark(world, catalog));
    }
    for user in 0..PROBE_USERS {
        let folder = catalog.folders[user as usize][0];
        let topic = catalog.interests[user as usize][0];
        out.extend([
            Request::Recall {
                user,
                query: catalog.query(&mut rng, topic),
                since: 0,
                until: u64::MAX,
                k: 5,
            },
            Request::TrailReplay {
                user,
                folder,
                since: 0,
                max_pages: 10,
            },
            Request::WhatsNew {
                user,
                folder,
                since: catalog.horizon / 2,
                k: 5,
            },
            Request::Bill {
                user,
                since: 0,
                until: u64::MAX,
            },
            Request::SimilarSurfers { user, k: 5 },
            Request::Recommend { user, k: 5 },
        ]);
    }
    out
}
