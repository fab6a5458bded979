//! Credit-managed router input ports and fixed-latency links.

use std::collections::VecDeque;

/// A flit the routers arbitrate on: at every router the input port whose
/// head has the smallest key wins, the lowest-numbered port among equal
/// keys.
pub(crate) trait Keyed {
    /// The arbitration key.
    fn key(&self) -> u32;
}

/// The input buffers of every router of a tree, plus the links feeding
/// them.
///
/// Ports are numbered router-major (port `k` of router `r` is
/// `r · radix + k`) and routers level by level from the leaves, so a leaf
/// port's number is the number of the PE that feeds it.
///
/// Credit accounting: a sender may launch a flit into a port only when
/// `buffer occupancy + flits in flight on its link < capacity`, so the
/// buffer can never overflow regardless of timing — the invariant the
/// paper's "packet-buffer with credit" flow control provides. Every link
/// has the same latency, so flits land in the order they were launched and
/// one FIFO holds the flits of all links.
#[derive(Clone, Debug)]
pub(crate) struct Ports<T> {
    radix: usize,
    capacity: usize,
    latency: u64,
    /// The buffers: a ring of `capacity` slots per port.
    slots: Vec<T>,
    /// Per port: the slot of its head flit within its ring.
    head: Vec<usize>,
    /// Per port: flits in its buffer.
    len: Vec<usize>,
    /// Per port: credits its sender holds (capacity less the flits in its
    /// buffer and on its link).
    credits: Vec<usize>,
    /// Per port: its head flit's key, [`EMPTY`] for an empty buffer, so
    /// arbitration reads one word per port.
    key: Vec<u32>,
    /// Flits on any link, in landing order: `(landing cycle, port, flit)`.
    links: VecDeque<(u64, usize, T)>,
    /// Per router: the input port that wins arbitration, if any holds a
    /// flit.
    winner: Vec<Option<usize>>,
    /// Flits buffered over all ports.
    buffered: usize,
    /// Routers holding at least one flit.
    occupied: usize,
}

/// The key of an empty port: above every flit's.
const EMPTY: u32 = u32::MAX;

impl<T: Keyed + Copy + Default> Ports<T> {
    /// Empty ports for `routers` routers of `radix` inputs each, buffers of
    /// `capacity` flits and links of `latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub(crate) fn new(routers: usize, radix: usize, capacity: usize, latency: u64) -> Self {
        assert!(capacity > 0, "port capacity must be positive");
        let ports = routers * radix;
        Self {
            radix,
            capacity,
            latency,
            slots: vec![T::default(); ports * capacity],
            head: vec![0; ports],
            len: vec![0; ports],
            credits: vec![capacity; ports],
            key: vec![EMPTY; ports],
            links: VecDeque::new(),
            winner: vec![None; routers],
            buffered: 0,
            occupied: 0,
        }
    }

    /// `true` if a sender into `port` holds a credit (buffer + in-flight <
    /// capacity).
    pub(crate) fn has_credit(&self, port: usize) -> bool {
        self.credits[port] > 0
    }

    /// Launches a flit onto `port`'s link at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if called without credit — senders must check
    /// [`has_credit`](Self::has_credit) first (the hardware cannot
    /// physically do otherwise) — or with a flit whose key is `u32::MAX`.
    pub(crate) fn send(&mut self, cycle: u64, port: usize, flit: T) {
        assert!(self.has_credit(port), "send without credit");
        assert!(flit.key() != EMPTY, "flit key out of range");
        self.credits[port] -= 1;
        self.links.push_back((cycle + self.latency, port, flit));
    }

    /// Moves the flits landing by `cycle` into their buffers and records
    /// their ports in `landed`.
    pub(crate) fn land(&mut self, cycle: u64, landed: &mut Vec<usize>) {
        landed.clear();
        while self
            .links
            .front()
            .is_some_and(|&(ready, _, _)| ready <= cycle)
        {
            let (_, port, flit) = self.links.pop_front().expect("checked nonempty");
            self.buffered += 1;
            let len = self.len[port];
            debug_assert!(len < self.capacity, "credit violation");
            let slot = self.slot(port, len);
            self.slots[slot] = flit;
            self.len[port] = len + 1;
            if len == 0 {
                // A new head: it wins if it beats the router's winner.
                let key = flit.key();
                self.key[port] = key;
                let router = port / self.radix;
                match self.winner[router] {
                    None => {
                        self.occupied += 1;
                        self.winner[router] = Some(port);
                    }
                    Some(w) if (key, port) < (self.key[w], w) => self.winner[router] = Some(port),
                    Some(_) => {}
                }
            }
            landed.push(port);
        }
    }

    /// Index into `slots` of the `k`-th flit of `port`'s buffer.
    fn slot(&self, port: usize, k: usize) -> usize {
        let mut i = self.head[port] + k;
        if i >= self.capacity {
            i -= self.capacity;
        }
        port * self.capacity + i
    }

    /// The input port of `router` that wins arbitration, if any holds a
    /// flit.
    pub(crate) fn winner(&self, router: usize) -> Option<usize> {
        self.winner[router]
    }

    /// The key of the flit at the head of `port`'s buffer, if any.
    pub(crate) fn head_key(&self, port: usize) -> Option<u32> {
        Some(self.key[port]).filter(|&k| k != EMPTY)
    }

    /// Pops the head of `port`'s buffer (returning the credit to its
    /// sender) and re-arbitrates its router.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub(crate) fn pop(&mut self, port: usize) -> T {
        assert!(self.len[port] > 0, "pop from an empty port");
        let first = self.slot(port, 0);
        let flit = self.slots[first];
        let len = self.len[port] - 1;
        self.head[port] = self.slot(port, 1) - port * self.capacity;
        self.len[port] = len;
        self.credits[port] += 1;
        self.buffered -= 1;
        self.key[port] = if len == 0 {
            EMPTY
        } else {
            self.slots[port * self.capacity + self.head[port]].key()
        };
        // The smallest (key, port) of the router: one packed word per port.
        let router = port / self.radix;
        let first = router * self.radix;
        let keys = &self.key[first..first + self.radix];
        let best = (keys.iter().enumerate())
            .map(|(k, &key)| u64::from(key) << 32 | k as u64)
            .min()
            .expect("a router has ports");
        self.winner[router] = if best >> 32 == u64::from(EMPTY) {
            self.occupied -= 1;
            None
        } else {
            Some(first + (best & u64::from(u32::MAX)) as usize)
        };
        flit
    }

    /// Routers holding at least one flit.
    pub(crate) fn occupied(&self) -> usize {
        self.occupied
    }

    /// Buffer occupancy of `port` (excludes in-flight flits).
    pub(crate) fn occupancy(&self, port: usize) -> usize {
        self.len[port]
    }

    /// `true` when no flit is on a link.
    pub(crate) fn links_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// `true` when every buffer and link is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.buffered == 0 && self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Keyed for u32 {
        fn key(&self) -> u32 {
            *self
        }
    }

    #[test]
    fn credit_blocks_at_capacity() {
        let mut p: Ports<u32> = Ports::new(1, 1, 2, 1);
        assert!(p.has_credit(0));
        p.send(0, 0, 1);
        assert!(p.has_credit(0));
        p.send(0, 0, 2);
        assert!(!p.has_credit(0), "2 in flight with capacity 2 ⇒ no credit");
        p.land(1, &mut Vec::new());
        assert!(
            !p.has_credit(0),
            "arrivals occupy the buffer, still no credit"
        );
        assert_eq!(p.pop(0), 1);
        assert!(p.has_credit(0), "pop returns a credit");
    }

    #[test]
    fn latency_is_respected() {
        let mut p: Ports<u32> = Ports::new(1, 1, 4, 3);
        let mut landed = Vec::new();
        p.send(10, 0, 7);
        p.land(12, &mut landed);
        assert!(p.head_key(0).is_none(), "not arrived yet");
        assert!(landed.is_empty());
        p.land(13, &mut landed);
        assert_eq!(p.head_key(0), Some(7));
        assert_eq!(landed, vec![0]);
    }

    #[test]
    fn fifo_order_on_link() {
        let mut p: Ports<u32> = Ports::new(1, 1, 4, 2);
        p.send(0, 0, 1);
        p.send(1, 0, 2);
        p.land(3, &mut Vec::new());
        assert_eq!(p.pop(0), 1);
        assert_eq!(p.pop(0), 2);
        assert!(p.is_empty());
    }

    #[test]
    fn smallest_head_wins_and_ties_go_to_the_lower_port() {
        let mut p: Ports<u32> = Ports::new(1, 3, 4, 1);
        p.send(0, 2, 5);
        p.send(0, 1, 9);
        p.send(0, 0, 5);
        p.land(1, &mut Vec::new());
        assert_eq!(p.winner(0), Some(0));
        assert_eq!(p.pop(0), 5);
        assert_eq!(p.winner(0), Some(2));
        assert_eq!(p.pop(2), 5);
        assert_eq!(p.winner(0), Some(1));
        assert_eq!(p.pop(1), 9);
        assert_eq!(p.winner(0), None);
    }

    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random sends, landings and pops, every router's winner is
        /// the port a scan of its heads picks (smallest key, then lowest
        /// port), and a sender holds a credit exactly while its port's
        /// buffer and link hold fewer flits than the capacity.
        #[test]
        fn arbitration_and_credits_match_a_scan(
            shape in (2usize..9, 1usize..5, 1u64..4, 1usize..4),
            steps in prop::collection::vec((0u8..4, 0usize..64, 0u32..6), 1..300),
        ) {
            let (radix, capacity, latency, routers) = shape;
            let mut p: Ports<u32> = Ports::new(routers, radix, capacity, latency);
            let ports = routers * radix;
            // The reference: each port's buffer and every flit in flight.
            let mut buffer: Vec<VecDeque<u32>> = vec![VecDeque::new(); ports];
            let mut flight: VecDeque<(u64, usize, u32)> = VecDeque::new();
            let mut cycle = 0u64;
            for (op, pick, key) in steps {
                match op {
                    0 => {
                        let port = pick % ports;
                        if p.has_credit(port) {
                            p.send(cycle, port, key);
                            flight.push_back((cycle + latency, port, key));
                        }
                    }
                    1 => {
                        cycle += 1;
                        p.land(cycle, &mut Vec::new());
                        while flight.front().is_some_and(|&(at, _, _)| at <= cycle) {
                            let (_, port, key) = flight.pop_front().expect("checked");
                            buffer[port].push_back(key);
                        }
                    }
                    2 => {
                        if let Some(port) = p.winner(pick % routers) {
                            prop_assert_eq!(Some(p.pop(port)), buffer[port].pop_front());
                        }
                    }
                    _ => {
                        let port = pick % ports;
                        if !buffer[port].is_empty() {
                            prop_assert_eq!(Some(p.pop(port)), buffer[port].pop_front());
                        }
                    }
                }
                for r in 0..routers {
                    let scan = (r * radix..(r + 1) * radix)
                        .filter_map(|q| buffer[q].front().map(|&k| (k, q)))
                        .min()
                        .map(|(_, q)| q);
                    prop_assert_eq!(p.winner(r), scan, "router {}", r);
                }
                for (q, b) in buffer.iter().enumerate() {
                    let on_link = flight.iter().filter(|f| f.1 == q).count();
                    prop_assert_eq!(p.has_credit(q), b.len() + on_link < capacity, "port {}", q);
                    prop_assert_eq!(p.occupancy(q), b.len(), "port {}", q);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "send without credit")]
    fn overcommit_panics() {
        let mut p: Ports<u32> = Ports::new(1, 1, 1, 1);
        p.send(0, 0, 1);
        p.send(0, 0, 2);
    }
}
