//! The UDM message: routing header, handler word, payload, GID stamp.

/// Index of a node (processor) in the simulated machine.
///
/// A plain alias rather than a newtype because node indices are used
/// pervasively to index per-node tables in application code.
pub type NodeId = usize;

/// Maximum words in a single message: the FUGU output message buffer is
/// "limited to 16 words" (§4.1); larger transfers use the separate DMA
/// mechanism, which is out of scope for the paper and this reproduction.
pub const MAX_MESSAGE_WORDS: usize = 16;

/// Group Identifier: labels a gang of processes that may exchange messages.
///
/// Hardware stamps the sender's GID on every outgoing message and checks it
/// against the scheduled GID at the receiver (§4.1, "Protection"). GID 0 is
/// reserved for the kernel.
///
/// # Example
///
/// ```
/// use fugu_net::Gid;
///
/// let g = Gid::new(3);
/// assert!(!g.is_kernel());
/// assert!(Gid::KERNEL.is_kernel());
/// assert_eq!(g.raw(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(u16);

impl Gid {
    /// The kernel's reserved group identifier.
    pub const KERNEL: Gid = Gid(0);

    /// Creates a GID from its raw hardware encoding.
    pub fn new(raw: u16) -> Self {
        Gid(raw)
    }

    /// Raw hardware encoding.
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Returns `true` for the kernel GID.
    pub fn is_kernel(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Gid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gid{}", self.0)
    }
}

/// The handler word of a UDM message: in FUGU this is the handler's code
/// address; in the reproduction it is an index the receiving program uses
/// to dispatch (Active Messages style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub u32);

impl std::fmt::Display for HandlerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Most payload words a message can carry: the 16-word send buffer minus
/// the routing header and handler words.
const MAX_PAYLOAD_WORDS: usize = MAX_MESSAGE_WORDS - 2;

/// The payload words of a message, stored inline.
///
/// Message payloads are written once (by the sender) and then copied — into
/// the software buffer, into fault-injected duplicates, into the envelope a
/// handler sees. A payload holds at most 14 words (the 16-word send buffer
/// less two header words), so it lives in a fixed array beside its length:
/// `Payload` is `Copy`, and building, sending or copying one never touches
/// the heap.
///
/// `Payload` dereferences to `&[u32]`, so indexing, slicing and iteration
/// work as they did when payloads were plain vectors.
///
/// # Panics
///
/// Building a payload of more than 14 words panics naming the send buffer.
///
/// # Example
///
/// ```
/// use fugu_net::Payload;
///
/// let p = Payload::from(vec![1, 2, 3]);
/// let copy = p; // a plain copy of the inline words, no allocation
/// assert_eq!(copy[0], 1);
/// assert_eq!(&p[1..], &[2, 3]);
/// assert_eq!(p, [1, 2, 3]);
/// ```
#[derive(Clone, Copy)]
pub struct Payload {
    len: u32,
    words: [u32; MAX_PAYLOAD_WORDS],
}

impl Payload {
    /// The empty payload the constructors fill in.
    const EMPTY: Payload = Payload {
        len: 0,
        words: [0; MAX_PAYLOAD_WORDS],
    };
}

/// Panics for a payload of `words` words.
#[cold]
fn too_long(words: usize) -> ! {
    panic!(
        "message of {} words exceeds the {}-word send buffer (use DMA for bulk data)",
        words + 2,
        MAX_MESSAGE_WORDS
    )
}

impl std::ops::Deref for Payload {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words[..self.len as usize]
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Payload").field(&&**self).finish()
    }
}

impl From<&[u32]> for Payload {
    fn from(words: &[u32]) -> Self {
        if words.len() > MAX_PAYLOAD_WORDS {
            too_long(words.len());
        }
        let mut p = Payload::EMPTY;
        p.words[..words.len()].copy_from_slice(words);
        p.len = words.len() as u32;
        p
    }
}

impl From<Vec<u32>> for Payload {
    fn from(words: Vec<u32>) -> Self {
        Payload::from(&words[..])
    }
}

impl<const N: usize> From<[u32; N]> for Payload {
    fn from(words: [u32; N]) -> Self {
        Payload::from(&words[..])
    }
}

impl FromIterator<u32> for Payload {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut p = Payload::EMPTY;
        for word in iter {
            let len = p.len as usize;
            if len == MAX_PAYLOAD_WORDS {
                too_long(len + 1);
            }
            p.words[len] = word;
            p.len += 1;
        }
        p
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl PartialEq<[u32]> for Payload {
    fn eq(&self, other: &[u32]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u32]> for Payload {
    fn eq(&self, other: &&[u32]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u32>> for Payload {
    fn eq(&self, other: &Vec<u32>) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<[u32; N]> for Payload {
    fn eq(&self, other: &[u32; N]) -> bool {
        **self == other[..]
    }
}

/// A UDM message: variable-length word sequence whose first word is the
/// routing header (destination) and second word the handler address (§3).
///
/// # Example
///
/// ```
/// use fugu_net::{Gid, HandlerId, Message};
///
/// let m = Message::new(0, 3, Gid::new(1), HandlerId(7), vec![10, 20]);
/// assert_eq!(m.len_words(), 4); // header + handler + 2 payload words
/// assert_eq!(m.payload(), &[10, 20]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    src: NodeId,
    dst: NodeId,
    gid: Gid,
    handler: HandlerId,
    payload: Payload,
    /// Machine-wide unique id stamped at launch time; `0` until stamped.
    /// Purely observational (trace events, delivery-invariant checking) —
    /// no protocol logic may branch on it.
    uid: u64,
}

impl Message {
    /// Builds a message.
    ///
    /// # Panics
    ///
    /// Panics if the message would exceed [`MAX_MESSAGE_WORDS`] (two header
    /// words plus the payload); the FUGU send buffer cannot describe it.
    /// The check is [`Payload`]'s: no payload holds more than 14 words.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        gid: Gid,
        handler: HandlerId,
        payload: impl Into<Payload>,
    ) -> Self {
        Message {
            src,
            dst,
            gid,
            handler,
            payload: payload.into(),
            uid: 0,
        }
    }

    /// Sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node from the routing header.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// GID stamped by the sending network interface.
    pub fn gid(&self) -> Gid {
        self.gid
    }

    /// Handler word.
    pub fn handler(&self) -> HandlerId {
        self.handler
    }

    /// Payload words (excludes the routing header and handler words).
    pub fn payload(&self) -> &[u32] {
        &self.payload
    }

    /// The payload by value (it is `Copy`), for delivery paths that hand
    /// it to an envelope.
    pub fn payload_words(&self) -> Payload {
        self.payload
    }

    /// Total length in words as seen by the send descriptor: routing header
    /// + handler + payload.
    pub fn len_words(&self) -> usize {
        2 + self.payload.len()
    }

    /// Restamps the GID; used by the sending NIC, which owns the stamp
    /// (user code cannot forge it).
    pub fn with_gid(mut self, gid: Gid) -> Self {
        self.gid = gid;
        self
    }

    /// Unique message id stamped at launch (`0` if never stamped).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Stamps the unique message id; used by the machine at launch so the
    /// trace stream can correlate a message's arrival and delivery with its
    /// launch. Both copies of a fault-injected duplicate share one uid.
    ///
    /// The span profiler (`fugu_sim::span`) keys its causal stitching off
    /// this stamp: every lifecycle event a message produces — launch, NIC
    /// arrival, buffer insert/extract, upcall, handler retirement — must
    /// carry the same uid, or the profiler reports the span as broken. An
    /// unstamped message (uid 0) is invisible to it.
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accessors() {
        let m = Message::new(1, 2, Gid::new(5), HandlerId(9), vec![1, 2, 3]);
        assert_eq!(m.src(), 1);
        assert_eq!(m.dst(), 2);
        assert_eq!(m.gid(), Gid::new(5));
        assert_eq!(m.handler(), HandlerId(9));
        assert_eq!(m.payload(), &[1, 2, 3]);
        assert_eq!(m.len_words(), 5);
    }

    #[test]
    fn null_message_is_two_words() {
        let m = Message::new(0, 1, Gid::KERNEL, HandlerId(0), vec![]);
        assert_eq!(m.len_words(), 2);
    }

    #[test]
    fn max_size_message_allowed() {
        let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![0; 14]);
        assert_eq!(m.len_words(), MAX_MESSAGE_WORDS);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_message_panics() {
        let _ = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![0; 15]);
    }

    #[test]
    fn payload_debug_reads_as_the_word_list() {
        assert_eq!(format!("{:?}", Payload::from([1, 2])), "Payload([1, 2])");
        assert_eq!(format!("{:?}", Payload::from(vec![])), "Payload([])");
    }

    #[test]
    fn payloads_compare_by_their_words_only() {
        let collected: Payload = [4, 5].into_iter().collect();
        assert_eq!(collected, Payload::from([4, 5]));
        assert_ne!(Payload::from([4, 5]), Payload::from([4, 5, 0]));
        assert_eq!(Payload::from(vec![0; 14]).len(), 14);
    }

    #[test]
    #[should_panic(expected = "message of 17 words exceeds the 16-word send buffer")]
    fn collecting_15_payload_words_panics() {
        let _: Payload = (0..15).collect();
    }

    #[test]
    fn message_size_is_pinned() {
        // Every event-queue arrival slot holds a `Message`; a field added
        // to it (or a wider payload) grows them all.
        assert_eq!(std::mem::size_of::<Payload>(), 60);
        assert_eq!(std::mem::size_of::<Message>(), 96);
    }

    #[test]
    fn gid_restamp() {
        let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![]);
        let m = m.with_gid(Gid::new(9));
        assert_eq!(m.gid(), Gid::new(9));
    }

    #[test]
    fn uid_stamp() {
        let m = Message::new(0, 1, Gid::new(1), HandlerId(0), vec![]);
        assert_eq!(m.uid(), 0);
        let m = m.with_uid(42);
        assert_eq!(m.uid(), 42);
    }

    #[test]
    fn kernel_gid_identification() {
        assert!(Gid::KERNEL.is_kernel());
        assert!(!Gid::new(1).is_kernel());
        assert_eq!(Gid::KERNEL.raw(), 0);
        assert_eq!(format!("{}", Gid::new(2)), "gid2");
        assert_eq!(format!("{}", HandlerId(4)), "h4");
    }
}
