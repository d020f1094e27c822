//! Answer checks.
//!
//! Two kinds:
//!
//! * [`Histories::check`] inspects one response against its request and
//!   the client-side model of the user's history: the variant must match,
//!   write acks must say `archived: true`, recall hits must be the user's
//!   own visits inside the window, bill lines must add up, rankings must
//!   be ordered and within `k`.
//! * [`same_answer`] compares the final per-user answers of two archives
//!   fed the same per-user streams. Scores are compared to a relative
//!   tolerance and equal-score ties may come back in either order, because
//!   a query's term order (and so its floating-point summation order) is
//!   not fixed by the API.

use std::collections::{HashMap, HashSet};

use memex_core::memex::{BillLine, RecallHit};
use memex_core::servlet::{Request, Response};
use memex_server::events::ClientEvent;

use crate::world::World;

/// Every user's visits as `(page, time)`, as the client side knows them:
/// the set-up history plus the visits the owning client had acknowledged.
#[derive(Debug, Clone)]
pub struct Histories {
    visits: HashMap<u32, Vec<(u32, u64)>>,
    pages: u32,
    users: u32,
}

impl Histories {
    pub fn from_world(world: &World) -> Histories {
        let mut visits: HashMap<u32, Vec<(u32, u64)>> = HashMap::new();
        for v in &world.community.visits {
            visits.entry(v.user).or_default().push((v.page, v.time));
        }
        Histories {
            visits,
            pages: world.corpus.pages.len() as u32,
            users: world.community.users.len() as u32,
        }
    }

    /// A model with explicit contents (for tests).
    pub fn new(pages: u32, users: u32, visits: &[(u32, u32, u64)]) -> Histories {
        let mut by_user: HashMap<u32, Vec<(u32, u64)>> = HashMap::new();
        for &(user, page, time) in visits {
            by_user.entry(user).or_default().push((page, time));
        }
        Histories {
            visits: by_user,
            pages,
            users,
        }
    }

    fn of(&self, user: u32) -> &[(u32, u64)] {
        self.visits.get(&user).map_or(&[], Vec::as_slice)
    }

    /// Check `response` against `request`; on an acknowledged visit, add
    /// it to the model.
    pub fn check(&mut self, request: &Request, response: &Response) -> Result<(), String> {
        match (request, response) {
            (Request::Event(event), Response::Ack { archived }) => {
                if !archived {
                    return Err("write acknowledged with archived: false".into());
                }
                if let ClientEvent::Visit(v) = event {
                    self.visits
                        .entry(v.user)
                        .or_default()
                        .push((v.page, v.time));
                }
                Ok(())
            }
            (
                Request::Recall {
                    user,
                    since,
                    until,
                    k,
                    ..
                },
                Response::Recall(hits),
            ) => self.check_recall(*user, *since, *until, *k, hits),
            (
                Request::TrailReplay {
                    since, max_pages, ..
                },
                Response::TrailReplay(ctx),
            ) => {
                at_most(ctx.nodes.len(), *max_pages)?;
                distinct(ctx.nodes.iter().map(|n| n.page))?;
                if ctx
                    .nodes
                    .iter()
                    .any(|n| n.last_time < *since || n.visit_count == 0)
                {
                    return Err("trail node outside the window or never visited".into());
                }
                if ctx
                    .nodes
                    .windows(2)
                    .any(|w| w[0].last_time < w[1].last_time)
                {
                    return Err("trail nodes not most-recent first".into());
                }
                let kept: HashSet<u32> = ctx.nodes.iter().map(|n| n.page).collect();
                if ctx
                    .edges
                    .iter()
                    .any(|&(a, b, c)| c == 0 || !kept.contains(&a) || !kept.contains(&b))
                {
                    return Err("trail edge between pages not in the replay".into());
                }
                Ok(())
            }
            (Request::WhatsNew { user, since, k, .. }, Response::WhatsNew(items)) => {
                self.ranking(items, *k, self.pages)?;
                let seen: HashSet<u32> = self
                    .of(*user)
                    .iter()
                    .filter(|(_, t)| t < since)
                    .map(|(p, _)| *p)
                    .collect();
                if items.iter().any(|(p, _)| seen.contains(p)) {
                    return Err("what's-new page the user saw before `since`".into());
                }
                Ok(())
            }
            (Request::Bill { user, since, until }, Response::Bill(lines)) => {
                self.check_bill(*user, *since, *until, lines)
            }
            (Request::SimilarSurfers { user, k }, Response::SimilarSurfers(items)) => {
                self.ranking(items, *k, self.users)?;
                if items.iter().any(|(u, _)| u == user) {
                    return Err("similar surfers include the asking user".into());
                }
                Ok(())
            }
            (Request::Recommend { k, .. }, Response::Recommend(items)) => {
                self.ranking(items, *k, self.pages)
            }
            (request, response) => Err(format!(
                "{} answered with {}",
                request.name(),
                variant(response)
            )),
        }
    }

    fn check_recall(
        &self,
        user: u32,
        since: u64,
        until: u64,
        k: usize,
        hits: &[RecallHit],
    ) -> Result<(), String> {
        at_most(hits.len(), k)?;
        distinct(hits.iter().map(|h| h.page))?;
        descending(hits.iter().map(|h| f64::from(h.score)))?;
        for hit in hits {
            let last = self
                .of(user)
                .iter()
                .filter(|(p, t)| *p == hit.page && *t >= since && *t <= until)
                .map(|(_, t)| *t)
                .max();
            if last != Some(hit.last_visit) {
                return Err(format!(
                    "recall hit page {} (last visit {}) is not the user's own visit in \
                     [{since}, {until}] (expected {last:?})",
                    hit.page, hit.last_visit
                ));
            }
        }
        Ok(())
    }

    fn check_bill(
        &self,
        user: u32,
        since: u64,
        until: u64,
        lines: &[BillLine],
    ) -> Result<(), String> {
        let expected = self
            .of(user)
            .iter()
            .filter(|(_, t)| *t >= since && *t <= until)
            .count();
        let billed: usize = lines.iter().map(|l| l.visits as usize).sum();
        if billed != expected {
            return Err(format!("bill covers {billed} visits, user made {expected}"));
        }
        if lines.iter().any(|l| !(0.0..=1.0).contains(&l.fraction)) {
            return Err("bill fraction outside [0, 1]".into());
        }
        let total: f64 = lines.iter().map(|l| l.fraction).sum();
        let bytes: u64 = lines.iter().map(|l| l.bytes).sum();
        if bytes > 0 && (total - 1.0).abs() > 1e-6 {
            return Err(format!("bill fractions sum to {total}"));
        }
        Ok(())
    }

    fn ranking(&self, items: &[(u32, f64)], k: usize, ids: u32) -> Result<(), String> {
        at_most(items.len(), k)?;
        distinct(items.iter().map(|(id, _)| *id))?;
        descending(items.iter().map(|(_, s)| *s))?;
        if items.iter().any(|(id, _)| *id >= ids) {
            return Err("ranked id out of range".into());
        }
        Ok(())
    }
}

fn at_most(len: usize, k: usize) -> Result<(), String> {
    if len > k {
        Err(format!("{len} results for k = {k}"))
    } else {
        Ok(())
    }
}

fn distinct(ids: impl Iterator<Item = u32>) -> Result<(), String> {
    let mut seen = HashSet::new();
    for id in ids {
        if !seen.insert(id) {
            return Err(format!("id {id} listed twice"));
        }
    }
    Ok(())
}

fn descending(scores: impl Iterator<Item = f64>) -> Result<(), String> {
    let mut prev = f64::INFINITY;
    for s in scores {
        if !s.is_finite() || s > prev {
            return Err("scores not finite and descending".into());
        }
        prev = s;
    }
    Ok(())
}

fn variant(response: &Response) -> String {
    match response {
        Response::Error(e) => format!("error: {e}"),
        Response::Overloaded { in_flight, limit } => {
            format!("overloaded ({in_flight}/{limit})")
        }
        other => {
            let debug = format!("{other:?}");
            debug
                .split(['(', ' ', '{'])
                .next()
                .unwrap_or("?")
                .to_string()
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// Do two archives give the same answer? See the module docs for the
/// tolerance on scores and ties.
pub fn same_answer(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Recall(x), Response::Recall(y)) => {
            let key = |hits: &[RecallHit]| {
                let mut v: Vec<RecallHit> = hits.to_vec();
                v.sort_by_key(|h| h.page);
                v
            };
            let (x, y) = (key(x), key(y));
            x.len() == y.len()
                && x.iter().zip(&y).all(|(p, q)| {
                    p.page == q.page
                        && p.url == q.url
                        && p.last_visit == q.last_visit
                        && p.snippet == q.snippet
                        && close(f64::from(p.score), f64::from(q.score))
                })
        }
        (Response::Bill(x), Response::Bill(y)) => {
            let key = |lines: &[BillLine]| {
                let mut v: Vec<BillLine> = lines.to_vec();
                v.sort_by(|p, q| p.folder.cmp(&q.folder));
                v
            };
            let (x, y) = (key(x), key(y));
            x.len() == y.len()
                && x.iter().zip(&y).all(|(p, q)| {
                    p.folder == q.folder
                        && p.bytes == q.bytes
                        && p.visits == q.visits
                        && close(p.fraction, q.fraction)
                })
        }
        _ => a == b,
    }
}
