//! Property-based tests of the network model: per-channel FIFO order must
//! hold for arbitrary injection patterns, arrival times must respect
//! latency and monotonicity, and every arrival and in-flight count must
//! match a plain hash-keyed reference model. Inputs come from
//! `fugu_sim::prop`'s seeded runner so the tests run fully offline.

use std::collections::HashMap;

use fugu_net::{Gid, HandlerId, Message, Network, NetworkConfig};
use fugu_sim::prop::forall;

/// Arrivals on each (src, dst) channel are strictly increasing (FIFO),
/// and every arrival respects the base latency plus per-word occupancy.
#[test]
fn fifo_and_latency_hold_for_arbitrary_traffic() {
    forall(256, 0x0E70_0001, |rng| {
        let base_latency = rng.range_u64(1, 200);
        let cycles_per_word = rng.range_u64(0, 8);
        let n_sends = rng.range_u64(1, 200) as usize;

        let mut net = Network::new(NetworkConfig {
            base_latency,
            cycles_per_word,
        });
        let mut now = 0u64;
        let mut last: HashMap<(usize, usize), u64> = HashMap::new();
        for _ in 0..n_sends {
            let src = rng.index(4);
            let dst = rng.index(4);
            let words = rng.index(14);
            now += rng.range_u64(0, 50);
            let msg = Message::new(src, dst, Gid::new(1), HandlerId(0), vec![0; words]);
            let arrival = net.inject(now, &msg);
            // Latency floor.
            assert!(arrival >= now + base_latency + cycles_per_word * msg.len_words() as u64);
            // Per-channel FIFO.
            if let Some(&prev) = last.get(&(src, dst)) {
                assert!(arrival > prev, "overtaking on channel ({src},{dst})");
            }
            last.insert((src, dst), arrival);
        }
        // Conservation: everything injected is still in flight.
        assert_eq!(
            n_sends as u64,
            net.in_flight(0) + net.in_flight(1) + net.in_flight(2) + net.in_flight(3)
        );
    });
}

/// Every arrival equals the reference rule `max(now + transit + extra,
/// last + 1)` per (src, dst) channel, kept in hash maps, for node ids up to
/// 63 first seen in any order, `inject_delayed` extras and interleaved
/// `deliver` calls; `in_flight` matches per node, and is 0 for a node
/// never injected to.
#[test]
fn arrivals_and_in_flight_match_a_hash_keyed_reference() {
    forall(256, 0x0E70_0002, |rng| {
        let config = NetworkConfig {
            base_latency: rng.range_u64(1, 200),
            cycles_per_word: rng.range_u64(0, 8),
        };
        let mut net = Network::new(config);
        // Node ids drawn from a shuffled pool of 64, so the first sighting
        // of a high id may precede every low one.
        let mut ids: Vec<usize> = (0..64).collect();
        rng.shuffle(&mut ids);
        let ids = &ids[..1 + rng.index(64)];
        let mut last: HashMap<(usize, usize), u64> = HashMap::new();
        let mut in_flight: HashMap<usize, u64> = HashMap::new();
        let mut now = 0u64;
        for _ in 0..rng.range_u64(1, 300) {
            now += rng.range_u64(0, 40);
            let mut pending: Vec<usize> = in_flight
                .iter()
                .filter(|&(_, &n)| n > 0)
                .map(|(&dst, _)| dst)
                .collect();
            pending.sort_unstable();
            if !pending.is_empty() && rng.chance(0.3) {
                let dst = *rng.pick(&pending);
                net.deliver(dst);
                *in_flight.get_mut(&dst).unwrap() -= 1;
                continue;
            }
            let (src, dst) = (*rng.pick(ids), *rng.pick(ids));
            let words = rng.index(15);
            let extra = if rng.chance(0.25) {
                rng.range_u64(0, 2_000)
            } else {
                0
            };
            let msg = Message::new(src, dst, Gid::new(1), HandlerId(0), vec![0; words]);
            let transit = config.base_latency + config.cycles_per_word * msg.len_words() as u64;
            let floor = last.get(&(src, dst)).map_or(0, |&t| t + 1);
            let expect = (now + transit + extra).max(floor);
            let arrival = if extra == 0 && rng.chance(0.5) {
                net.inject(now, &msg)
            } else {
                net.inject_delayed(now, &msg, extra)
            };
            assert_eq!(
                arrival, expect,
                "channel ({src},{dst}) at {now} extra {extra}"
            );
            last.insert((src, dst), arrival);
            *in_flight.entry(dst).or_insert(0) += 1;
        }
        for node in 0..128 {
            let want = in_flight.get(&node).copied().unwrap_or(0);
            assert_eq!(net.in_flight(node), want, "in_flight({node})");
        }
        assert_eq!(net.in_flight(usize::MAX), 0);
    });
}
