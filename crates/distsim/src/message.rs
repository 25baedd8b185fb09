//! Message payloads and bit-size accounting.
//!
//! Every payload type used by a distributed algorithm implements
//! [`MessageSize`], reporting how many bits it would occupy on the wire. The
//! executor uses this to enforce CONGEST / CONGEST_BC bandwidth limits and to
//! collect the per-round bandwidth statistics that experiment F2 reports
//! against the paper's `O(c(2r)²·r·log n)` bound.

/// On-the-wire size of a message payload in bits.
pub trait MessageSize {
    /// Number of bits this payload occupies.
    fn size_bits(&self) -> usize;

    /// The largest single wire *frame* this payload occupies, in bits.
    ///
    /// Payload types that model a framing layer — splitting one logical
    /// message into bounded frames, each re-paying the header — override
    /// this so the per-round `max_message_bits` statistic reports the
    /// bounded frame size instead of the unbounded logical size (the KSV
    /// adjacency exchange on a hub vertex is the motivating case). The
    /// default is the whole message: unframed payloads are their own single
    /// frame. `size_bits` stays the *total* cost, framing overhead included,
    /// so bandwidth totals and CONGEST validation are unaffected.
    fn max_frame_bits(&self) -> usize {
        self.size_bits()
    }
}

/// Unit messages ("I am present" beacons) are counted as a single bit.
impl MessageSize for () {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for bool {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for u32 {
    fn size_bits(&self) -> usize {
        32
    }
}

impl MessageSize for u64 {
    fn size_bits(&self) -> usize {
        64
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn size_bits(&self) -> usize {
        1 + self.as_ref().map_or(0, MessageSize::size_bits)
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn size_bits(&self) -> usize {
        // Length prefix (32 bits is generous and n-independent) + payloads.
        32 + self.iter().map(MessageSize::size_bits).sum::<usize>()
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bits(&self) -> usize {
        self.0.size_bits() + self.1.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().size_bits(), 1);
        assert_eq!(true.size_bits(), 1);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(7u64.size_bits(), 64);
    }

    #[test]
    fn container_sizes() {
        assert_eq!(Some(3u32).size_bits(), 33);
        assert_eq!(None::<u32>.size_bits(), 1);
        let v = vec![1u32, 2, 3];
        assert_eq!(v.size_bits(), 32 + 96);
        assert_eq!((1u32, true).size_bits(), 33);
    }

    #[test]
    fn max_frame_defaults_to_the_whole_message() {
        // Unframed payloads are their own single frame.
        assert_eq!(7u64.max_frame_bits(), 7u64.size_bits());
        let v = vec![1u32, 2, 3];
        assert_eq!(v.max_frame_bits(), v.size_bits());
    }
}
