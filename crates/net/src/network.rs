//! Timing and ordering model of a FUGU logical network.
//!
//! The model is deliberately minimal (see DESIGN.md): a message injected at
//! time `t` arrives at `max(t + latency + words × occupancy, previous
//! arrival on the same (src, dst) channel + 1)`. This preserves the two
//! properties the paper's results rest on — bounded delivery delay and
//! FIFO order between any pair of nodes — without simulating the mesh.

use fugu_sim::Cycles;

use crate::msg::{Message, NodeId};

/// Timing parameters of a logical network.
///
/// Defaults approximate the Alewife mesh at the scale of the paper's
/// experiments; the second (operating-system) network uses
/// [`NetworkConfig::second_network`], "a very simple, bit-serial network"
/// whose "performance is not critical" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Fixed routing latency applied to every message, in cycles.
    pub base_latency: Cycles,
    /// Additional cycles of channel occupancy per message word.
    pub cycles_per_word: Cycles,
}

impl NetworkConfig {
    /// Main-network defaults: a few dozen cycles across the machine.
    pub fn main_network() -> Self {
        NetworkConfig {
            base_latency: 30,
            cycles_per_word: 2,
        }
    }

    /// Second-network defaults: slow, bit-serial, kernel-only.
    pub fn second_network() -> Self {
        NetworkConfig {
            base_latency: 500,
            cycles_per_word: 32,
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::main_network()
    }
}

/// Ordering/timing state of one logical network.
///
/// The network itself stores no messages: [`Network::inject`] computes the
/// arrival time and the caller (the machine) schedules the arrival event.
/// The network tracks, per destination, how many messages are in flight so
/// the machine can model backpressure on the sender when a receiver stops
/// draining its interface.
///
/// Both tables are vectors indexed by node, grown on demand when an inject
/// first names a node, so a new network allocates nothing and asking about
/// a node never injected to allocates nothing either.
///
/// # Example
///
/// ```
/// use fugu_net::{Gid, HandlerId, Message, Network, NetworkConfig};
///
/// let mut net = Network::new(NetworkConfig { base_latency: 10, cycles_per_word: 1 });
/// let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![]);
/// let arrival = net.inject(100, &m);
/// assert_eq!(arrival, 100 + 10 + 2); // latency + two header words
/// net.deliver(1);
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    /// `floor[dst][src]`: the earliest cycle the next message on the
    /// (src, dst) channel may arrive, one past the last arrival scheduled
    /// on it (0 before the first), for FIFO order.
    floor: Vec<Vec<Cycles>>,
    /// Messages currently between injection and delivery, per destination
    /// (as long as `floor`).
    in_flight: Vec<u64>,
}

impl Network {
    /// Creates a network with the given timing parameters.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            floor: Vec::new(),
            in_flight: Vec::new(),
        }
    }

    /// Timing parameters in force.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Commits a message to the network at time `now` and returns its
    /// arrival time at the destination interface. FIFO order per
    /// (src, dst) pair is enforced by construction.
    pub fn inject(&mut self, now: Cycles, msg: &Message) -> Cycles {
        self.inject_delayed(now, msg, 0)
    }

    /// Like [`Network::inject`], with `extra` additional transit cycles
    /// (fault injection: a congested or rerouted message). The FIFO floor
    /// still applies, so a delayed message delays everything behind it on
    /// the same channel rather than being overtaken.
    pub fn inject_delayed(&mut self, now: Cycles, msg: &Message, extra: Cycles) -> Cycles {
        let transit =
            self.config.base_latency + self.config.cycles_per_word * msg.len_words() as Cycles;
        let (src, dst) = (msg.src(), msg.dst());
        if dst >= self.in_flight.len() {
            self.floor.resize_with(dst + 1, Vec::new);
            self.in_flight.resize(dst + 1, 0);
        }
        let row = &mut self.floor[dst];
        if src >= row.len() {
            row.resize(src + 1, 0);
        }
        let arrival = (now + transit + extra).max(row[src]);
        row[src] = arrival + 1;
        self.in_flight[dst] += 1;
        arrival
    }

    /// Records that a message has been accepted into the destination
    /// interface (paired with an earlier [`Network::inject`]).
    ///
    /// # Panics
    ///
    /// Panics if no message was in flight to `dst`.
    pub fn deliver(&mut self, dst: NodeId) {
        let n = self
            .in_flight
            .get_mut(dst)
            .filter(|n| **n > 0)
            .expect("deliver without matching inject");
        *n -= 1;
    }

    /// Messages currently in flight toward `dst`.
    pub fn in_flight(&self, dst: NodeId) -> u64 {
        self.in_flight.get(dst).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Gid, HandlerId};

    fn msg(src: NodeId, dst: NodeId, words: usize) -> Message {
        Message::new(src, dst, Gid::new(1), HandlerId(0), vec![0; words])
    }

    #[test]
    fn arrival_time_includes_latency_and_occupancy() {
        let mut net = Network::new(NetworkConfig {
            base_latency: 100,
            cycles_per_word: 3,
        });
        let arrival = net.inject(1000, &msg(0, 1, 4)); // 6 words total
        assert_eq!(arrival, 1000 + 100 + 18);
    }

    #[test]
    fn fifo_order_per_channel() {
        let mut net = Network::new(NetworkConfig {
            base_latency: 50,
            cycles_per_word: 1,
        });
        // Large message at t=0 arrives at 0+50+16=66; a null message sent
        // just after must NOT overtake it.
        let a = net.inject(0, &msg(0, 1, 14));
        let b = net.inject(1, &msg(0, 1, 0));
        assert!(b > a, "second message overtook the first: {a} vs {b}");
    }

    #[test]
    fn different_channels_are_independent() {
        let mut net = Network::new(NetworkConfig {
            base_latency: 50,
            cycles_per_word: 1,
        });
        let a = net.inject(0, &msg(0, 1, 14));
        // Different source to the same destination: no FIFO constraint.
        let b = net.inject(1, &msg(2, 1, 0));
        assert!(b < a);
    }

    #[test]
    fn in_flight_accounting() {
        let mut net = Network::new(NetworkConfig::main_network());
        net.inject(0, &msg(0, 1, 0));
        net.inject(0, &msg(2, 1, 0));
        net.inject(0, &msg(0, 2, 0));
        assert_eq!(net.in_flight(1), 2);
        assert_eq!(net.in_flight(2), 1);
        net.deliver(1);
        assert_eq!(net.in_flight(1), 1);
        assert_eq!(net.in_flight(2), 1);
    }

    #[test]
    #[should_panic(expected = "without matching inject")]
    fn deliver_without_inject_panics() {
        let mut net = Network::new(NetworkConfig::main_network());
        net.deliver(0);
    }

    #[test]
    fn delayed_inject_adds_transit_but_keeps_fifo() {
        let mut net = Network::new(NetworkConfig {
            base_latency: 50,
            cycles_per_word: 1,
        });
        let a = net.inject_delayed(0, &msg(0, 1, 0), 1_000);
        // now + base latency + 2 words + injected delay
        assert_eq!(a, 50 + 2 + 1_000);
        // An undelayed message behind it on the same channel cannot overtake.
        let b = net.inject(1, &msg(0, 1, 0));
        assert!(b > a, "later message overtook a delayed one: {a} vs {b}");
    }

    #[test]
    fn second_network_is_slower() {
        let mut main = Network::new(NetworkConfig::main_network());
        let mut second = Network::new(NetworkConfig::second_network());
        let m = msg(0, 1, 4);
        assert!(second.inject(0, &m) > main.inject(0, &m));
    }
}
