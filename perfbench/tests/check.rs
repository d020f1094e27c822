//! The answer checks must reject wrong answers: each test injects one.

use memex_bench::worlds::populated_memex;
use memex_core::memex::{BillLine, RecallHit};
use memex_core::servlet::{dispatch_read, Classified, Request, Response};
use memex_perfbench::check::{same_answer, Histories};
use memex_perfbench::world::World;
use memex_server::events::{ClientEvent, VisitEvent};

/// User 1 visited page 10 at t=100 and t=300, page 11 at t=200.
fn model() -> Histories {
    Histories::new(
        50,
        4,
        &[(1, 10, 100), (1, 11, 200), (1, 10, 300), (2, 12, 150)],
    )
}

fn recall(k: usize) -> Request {
    Request::Recall {
        user: 1,
        query: "x".into(),
        since: 0,
        until: 250,
        k,
    }
}

fn hit(page: u32, score: f32, last_visit: u64) -> RecallHit {
    RecallHit {
        page,
        url: format!("u{page}"),
        score,
        last_visit,
        snippet: String::new(),
    }
}

#[test]
fn recall_hits_must_be_own_visits_in_the_window() {
    let mut m = model();
    let good = Response::Recall(vec![hit(11, 2.0, 200), hit(10, 1.0, 100)]);
    assert!(m.check(&recall(5), &good).is_ok());
    // Another user's page.
    let foreign = Response::Recall(vec![hit(12, 2.0, 150)]);
    assert!(m.check(&recall(5), &foreign).is_err());
    // The visit at t=300 is outside [0, 250].
    let outside = Response::Recall(vec![hit(10, 2.0, 300)]);
    assert!(m.check(&recall(5), &outside).is_err());
    // More than k hits.
    assert!(m.check(&recall(1), &good).is_err());
    // Ascending scores.
    let unordered = Response::Recall(vec![hit(10, 1.0, 100), hit(11, 2.0, 200)]);
    assert!(m.check(&recall(5), &unordered).is_err());
}

#[test]
fn acks_must_archive_and_feed_the_model() {
    let mut m = model();
    let visit = Request::Event(ClientEvent::Visit(VisitEvent {
        user: 1,
        session: 9,
        page: 13,
        url: "u13".into(),
        time: 240,
        referrer: None,
    }));
    assert!(m.check(&visit, &Response::Ack { archived: false }).is_err());
    assert!(m.check(&visit, &Response::Ack { archived: true }).is_ok());
    // The acknowledged visit is now the user's own.
    let r = Response::Recall(vec![hit(13, 1.0, 240)]);
    assert!(m.check(&recall(5), &r).is_ok());
}

#[test]
fn wrong_variant_error_and_overload_fail() {
    let mut m = model();
    assert!(m.check(&recall(5), &Response::Bill(Vec::new())).is_err());
    assert!(m
        .check(&recall(5), &Response::Error("boom".into()))
        .is_err());
    let shed = Response::Overloaded {
        in_flight: 8,
        limit: 8,
    };
    assert!(m.check(&recall(5), &shed).is_err());
}

fn line(folder: &str, bytes: u64, visits: u32, fraction: f64) -> BillLine {
    BillLine {
        folder: folder.into(),
        bytes,
        visits,
        fraction,
    }
}

#[test]
fn bill_must_cover_the_users_visits_and_sum_to_one() {
    let mut m = model();
    let bill = Request::Bill {
        user: 1,
        since: 0,
        until: 250,
    };
    let good = Response::Bill(vec![line("/a", 300, 1, 0.75), line("/b", 100, 1, 0.25)]);
    assert!(m.check(&bill, &good).is_ok());
    let missing = Response::Bill(vec![line("/a", 300, 1, 1.0)]);
    assert!(m.check(&bill, &missing).is_err());
    let bad_sum = Response::Bill(vec![line("/a", 300, 1, 0.7), line("/b", 100, 1, 0.2)]);
    assert!(m.check(&bill, &bad_sum).is_err());
}

#[test]
fn rankings_must_be_bounded_distinct_and_exclude_self() {
    let mut m = model();
    let ask = Request::SimilarSurfers { user: 1, k: 2 };
    assert!(m
        .check(&ask, &Response::SimilarSurfers(vec![(2, 0.9), (3, 0.1)]))
        .is_ok());
    assert!(m
        .check(&ask, &Response::SimilarSurfers(vec![(1, 0.9)]))
        .is_err());
    assert!(m
        .check(&ask, &Response::SimilarSurfers(vec![(2, 0.9), (2, 0.1)]))
        .is_err());
    let rec = Request::Recommend { user: 1, k: 1 };
    assert!(m
        .check(&rec, &Response::Recommend(vec![(5, 0.9), (6, 0.1)]))
        .is_err());
}

#[test]
fn final_comparison_tolerates_ties_but_not_wrong_answers() {
    let a = Response::Recall(vec![hit(10, 1.0, 100), hit(11, 1.0, 200)]);
    let swapped = Response::Recall(vec![hit(11, 1.0, 200), hit(10, 1.0, 100)]);
    assert!(
        same_answer(&a, &swapped),
        "equal scores may come in either order"
    );
    let ulp = Response::Recall(vec![hit(10, 1.000_000_1, 100), hit(11, 1.0, 200)]);
    assert!(same_answer(&a, &ulp));
    let other_page = Response::Recall(vec![hit(10, 1.0, 100), hit(12, 1.0, 200)]);
    assert!(!same_answer(&a, &other_page));
    let other_score = Response::Recall(vec![hit(10, 1.5, 100), hit(11, 1.0, 200)]);
    assert!(!same_answer(&a, &other_score));
    let bill = Response::Bill(vec![line("/a", 300, 1, 0.75), line("/b", 100, 1, 0.25)]);
    let off = Response::Bill(vec![line("/a", 300, 2, 0.75), line("/b", 100, 1, 0.25)]);
    assert!(!same_answer(&bill, &off));
}

/// A real answer from the benchmark's archive passes; the same answer with
/// one hit moved to a page the user never visited fails.
#[test]
fn injected_wrong_answer_from_a_real_archive_fails() {
    let world = World::generate();
    let archive = populated_memex(world.corpus.clone(), &world.community);
    let mut m = Histories::from_world(&world);
    let user = 0u32;
    let page = world
        .community
        .visits
        .iter()
        .find(|v| v.user == user && !world.corpus.pages[v.page as usize].is_front)
        .expect("user 0 visited an interior page")
        .page;
    let request = Request::Recall {
        user,
        query: world.corpus.pages[page as usize].title.clone(),
        since: 0,
        until: u64::MAX,
        k: 10,
    };
    let Classified::Read(read) = request.clone().classify() else {
        unreachable!("recall is a read")
    };
    let answer = dispatch_read(&archive, read);
    let Response::Recall(hits) = &answer else {
        panic!("recall answered {answer:?}")
    };
    assert!(
        !hits.is_empty(),
        "the title of a visited page must recall it"
    );
    assert!(m.check(&request, &answer).is_ok());

    let never: u32 = (0..world.corpus.pages.len() as u32)
        .find(|p| {
            !world
                .community
                .visits
                .iter()
                .any(|v| v.user == user && v.page == *p)
        })
        .expect("some page user 0 never visited");
    let mut wrong = hits.clone();
    wrong[0].page = never;
    assert!(m.check(&request, &Response::Recall(wrong)).is_err());
    let mut stale = hits.clone();
    stale[0].last_visit -= 1;
    assert!(m.check(&request, &Response::Recall(stale)).is_err());
}
