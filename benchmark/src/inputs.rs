//! Everything the program receives, derived from the workload seed: the
//! dataset and model seeds, `/score` pairs, `/topk` users, `/events`
//! batches and the synthetic artifact. The same seed gives the same
//! inputs; nothing here reads a clock.

use ahntp_nn::TrustArtifact;
use ahntp_stream::{HyperGroup, TrustEvent};

use crate::loadgen::{Class, Req};

/// Users in the Ciao-like dataset (the repository's default scale).
pub const USERS: usize = 220;
/// Pairs per `POST /score` request.
pub const PAIRS_PER_REQUEST: usize = 8;
/// `k` of every `GET /topk`.
pub const TOP_K: usize = 10;
/// Events per `POST /events` batch.
pub const EVENTS_PER_BATCH: usize = 4;

/// Independent draw streams, so adding one input kind never shifts
/// another's values.
#[derive(Clone, Copy)]
pub enum Stream {
    Pairs = 1,
    Users = 2,
    Events = 3,
    Probe = 4,
    Heads = 5,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th 64-bit draw of `stream` under `seed`.
pub fn draw(seed: u64, stream: Stream, i: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream as u64)) ^ i)
}

fn unit(seed: u64, stream: Stream, i: u64) -> f32 {
    (draw(seed, stream, i) >> 40) as f32 / (1u64 << 24) as f32
}

/// The pairs of `/score` request `i` over `n` users.
pub fn pairs(seed: u64, stream: Stream, i: u64, n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count as u64)
        .map(|j| {
            let base = i * 2 * count as u64 + 2 * j;
            (
                (draw(seed, stream, base) % n as u64) as usize,
                (draw(seed, stream, base + 1) % n as u64) as usize,
            )
        })
        .collect()
}

pub fn score_req(pairs: &[(usize, usize)]) -> Req {
    let items: Vec<String> = pairs.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
    Req {
        class: Class::Score,
        method: "POST",
        target: "/score".into(),
        body: format!("{{\"pairs\":[{}]}}", items.join(",")),
    }
}

/// The user of `/topk` request `i` over `n` users.
pub fn topk_user(seed: u64, i: u64, n: usize) -> usize {
    (draw(seed, Stream::Users, i) % n as u64) as usize
}

pub fn topk_req(user: usize) -> Req {
    Req {
        class: Class::Topk,
        method: "GET",
        target: format!("/topk?user={user}&k={TOP_K}"),
        body: String::new(),
    }
}

/// Events batch `i`: adds of two- or three-member hyperedges on either
/// tier, and one in four a gentle decay. Every event is valid against
/// any model of `n` users, so no batch can fail on its input.
pub fn event_batch(seed: u64, i: u64, n: usize) -> Vec<TrustEvent> {
    (0..EVENTS_PER_BATCH as u64)
        .map(|j| {
            let d = |k: u64| {
                draw(
                    seed,
                    Stream::Events,
                    (i * EVENTS_PER_BATCH as u64 + j) * 8 + k,
                )
            };
            if d(0) % 4 == 0 {
                return TrustEvent::Decay {
                    factor: 0.98 + (d(1) % 19) as f32 / 1000.0,
                };
            }
            let group = if d(2) % 2 == 0 {
                HyperGroup::Node
            } else {
                HyperGroup::Structure
            };
            let size = 2 + (d(3) % 2) as usize;
            let mut members: Vec<usize> = Vec::with_capacity(size);
            let mut k = 4;
            while members.len() < size {
                let u = (d(k) % n as u64) as usize;
                if !members.contains(&u) {
                    members.push(u);
                }
                k += 1;
            }
            TrustEvent::AddEdge {
                group,
                members,
                weight: 0.5 + (d(1) % 100) as f32 / 100.0,
            }
        })
        .collect()
}

pub fn events_req(events: &[TrustEvent]) -> Req {
    let items: Vec<String> = events
        .iter()
        .map(|e| match e {
            TrustEvent::AddEdge {
                group,
                members,
                weight,
            } => {
                let members: Vec<String> = members.iter().map(ToString::to_string).collect();
                format!(
                    "{{\"op\":\"add\",\"group\":\"{}\",\"members\":[{}],\"weight\":{weight}}}",
                    group.name(),
                    members.join(",")
                )
            }
            TrustEvent::Decay { factor } => format!("{{\"op\":\"decay\",\"factor\":{factor}}}"),
            other => unreachable!("the benchmark sends only add and decay events, not {other:?}"),
        })
        .collect();
    Req {
        class: Class::Events,
        method: "POST",
        target: "/events".into(),
        body: format!("{{\"events\":[{}]}}", items.join(",")),
    }
}

/// A synthetic artifact of `n` users with `d`-wide heads drawn uniformly
/// from [-1, 1), shaped like the repository's sharded-serving bench
/// artifact (one-wide zero embeddings).
pub fn synthetic_artifact(seed: u64, n: usize, d: usize) -> TrustArtifact {
    let heads = |offset: u64| -> Vec<f32> {
        (0..(n * d) as u64)
            .map(|i| unit(seed, Stream::Heads, offset + i) * 2.0 - 1.0)
            .collect()
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: draw(seed, Stream::Heads, u64::MAX),
        calibration: 0.5,
        n_users: n,
        emb_dim: 1,
        head_dim: d,
        embeddings: vec![0.0; n].into(),
        trustor_head: heads(0).into(),
        trustee_head: heads((n * d) as u64).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(
            pairs(7, Stream::Pairs, 3, USERS, 8),
            pairs(7, Stream::Pairs, 3, USERS, 8)
        );
        assert_ne!(
            pairs(7, Stream::Pairs, 3, USERS, 8),
            pairs(8, Stream::Pairs, 3, USERS, 8)
        );
        assert_eq!(event_batch(7, 5, USERS), event_batch(7, 5, USERS));
        let a = synthetic_artifact(7, 100, 4);
        assert_eq!(a.trustor_head, synthetic_artifact(7, 100, 4).trustor_head);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn event_batches_parse_back_to_themselves() {
        for i in 0..50 {
            let batch = event_batch(11, i, USERS);
            let parsed = ahntp_stream::parse_events(&events_req(&batch).body).unwrap();
            assert_eq!(parsed, batch);
        }
    }
}
