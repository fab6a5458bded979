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
    /// Per port: flits on its link.
    incoming: Vec<usize>,
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
            incoming: vec![0; ports],
            links: VecDeque::new(),
            winner: vec![None; routers],
            buffered: 0,
            occupied: 0,
        }
    }

    /// `true` if a sender into `port` holds a credit (buffer + in-flight <
    /// capacity).
    pub(crate) fn has_credit(&self, port: usize) -> bool {
        self.len[port] + self.incoming[port] < self.capacity
    }

    /// Launches a flit onto `port`'s link at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if called without credit — senders must check
    /// [`has_credit`](Self::has_credit) first (the hardware cannot
    /// physically do otherwise).
    pub(crate) fn send(&mut self, cycle: u64, port: usize, flit: T) {
        assert!(self.has_credit(port), "send without credit");
        self.incoming[port] += 1;
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
            self.incoming[port] -= 1;
            self.buffered += 1;
            let len = self.len[port];
            debug_assert!(len < self.capacity, "credit violation");
            let slot = self.slot(port, len);
            self.slots[slot] = flit;
            self.len[port] = len + 1;
            if len == 0 {
                // A new head: it wins if it beats the router's winner.
                let router = port / self.radix;
                let key = flit.key();
                let beats = match self.winner[router] {
                    None => {
                        self.occupied += 1;
                        true
                    }
                    Some(w) => {
                        let best = self.head(w).expect("a winner has a head").key();
                        (key, port) < (best, w)
                    }
                };
                if beats {
                    self.winner[router] = Some(port);
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

    /// The flit at the head of `port`'s buffer, if any.
    pub(crate) fn head(&self, port: usize) -> Option<&T> {
        (self.len[port] > 0).then(|| &self.slots[port * self.capacity + self.head[port]])
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
        self.head[port] = self.slot(port, 1) - port * self.capacity;
        self.len[port] -= 1;
        self.buffered -= 1;
        let router = port / self.radix;
        let first = router * self.radix;
        self.winner[router] = (first..first + self.radix)
            .filter_map(|p| self.head(p).map(|f| (f.key(), p)))
            .min()
            .map(|(_, p)| p);
        if self.winner[router].is_none() {
            self.occupied -= 1;
        }
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
        assert!(p.head(0).is_none(), "not arrived yet");
        assert!(landed.is_empty());
        p.land(13, &mut landed);
        assert_eq!(p.head(0), Some(&7));
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

    #[test]
    #[should_panic(expected = "send without credit")]
    fn overcommit_panics() {
        let mut p: Ports<u32> = Ports::new(1, 1, 1, 1);
        p.send(0, 0, 1);
        p.send(0, 0, 2);
    }
}
