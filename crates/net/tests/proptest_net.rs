//! Property-based tests of the network model: per-channel FIFO order must
//! hold for arbitrary injection patterns, and arrival times must respect
//! latency and monotonicity. Inputs come from `fugu_sim::prop`'s seeded
//! driver so the tests run fully offline.

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
        let mut last: std::collections::HashMap<(usize, usize), u64> = Default::default();
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
