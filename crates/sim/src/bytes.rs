//! Shared immutable bytes: one buffer per message inside the world.
//!
//! A LAN multicast reaches every processor on the segment, and each
//! receiver's protocol stack keeps parts of it: Totem's receive window
//! retains each sequenced message, delivery hands it to the replication
//! mechanisms, which keep the IIOP bytes of an invocation until it runs.
//! [`Bytes`] lets all of them share the one encoded frame instead of
//! copying it at every hand-off: cloning or slicing it costs a reference
//! count, never a copy of the payload.
//!
//! The buffer lives behind an [`Rc`], which is enough because a
//! [`World`](crate::World) and everything in it stays on one thread.
//! A slice keeps the whole buffer it was cut from alive, so a holder
//! that keeps a slice longer than the frame's natural life should copy
//! it out ([`Bytes::to_vec`]); [`Bytes::frame_len`] says what a slice
//! pins.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An immutable, cheaply cloneable and sliceable byte buffer. See the
/// module docs.
///
/// # Examples
///
/// ```
/// use ftd_sim::Bytes;
///
/// let frame = Bytes::from(b"headerpayload".to_vec());
/// let payload = frame.slice(6..13);
/// assert_eq!(&payload[..], b"payload");
/// assert_eq!(payload.frame_len(), 13); // pins its frame, nothing more
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The sub-range `range` of these bytes, sharing the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            buf: Rc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The bytes of `sub`, which must be borrowed from `self` (a parser's
    /// view into it), as a shared slice of the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `sub` does not lie within `self`.
    pub fn slice_ref(&self, sub: &[u8]) -> Bytes {
        let base = self.as_ptr() as usize;
        let at = (sub.as_ptr() as usize).wrapping_sub(base);
        assert!(
            at <= self.len() && sub.len() <= self.len() - at,
            "slice_ref: subslice is not borrowed from these bytes"
        );
        self.slice(at..at + sub.len())
    }

    /// Length of the whole buffer this slice keeps alive: what holding
    /// it costs, whatever its own length.
    pub fn frame_len(&self) -> usize {
        self.buf.capacity()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v` without copying it. Spare capacity is
    /// released first, so a retained buffer holds exactly its bytes.
    fn from(mut v: Vec<u8>) -> Self {
        v.shrink_to_fit();
        let end = v.len();
        Bytes {
            buf: Rc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_slices_share_one_buffer() {
        let frame = Bytes::from((0..100u8).collect::<Vec<_>>());
        let copy = frame.clone();
        let mid = frame.slice(10..20);
        assert_eq!(copy.as_ptr(), frame.as_ptr());
        assert_eq!(mid.as_ptr(), frame[10..].as_ptr());
        assert_eq!(&mid[..], &(10..20u8).collect::<Vec<_>>()[..]);
        let inner = mid.slice(2..4);
        assert_eq!(&inner[..], &[12, 13]);
        assert_eq!(Rc::strong_count(&frame.buf), 4);
    }

    #[test]
    fn a_retained_slice_pins_no_more_than_its_own_frame() {
        // An encoder that over-reserved: the shared buffer drops the slack.
        let mut v = Vec::with_capacity(8192);
        v.extend_from_slice(&[7u8; 300]);
        let frame = Bytes::from(v);
        assert_eq!(frame.frame_len(), 300);
        let entry = frame.slice(100..150);
        drop(frame);
        assert_eq!(entry.len(), 50);
        assert_eq!(entry.frame_len(), 300);
        // Copying out releases the frame.
        let owned = entry.to_vec();
        assert_eq!(owned.capacity(), 50);
    }

    #[test]
    fn slice_ref_maps_a_parsed_view_back_to_shared_bytes() {
        let frame = Bytes::from(b"abcdefgh".to_vec());
        let view: &[u8] = &frame[3..6];
        let shared = frame.slice_ref(view);
        assert_eq!(&shared[..], b"def");
        assert_eq!(shared.as_ptr(), view.as_ptr());
        assert_eq!(frame.slice_ref(&frame[8..]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "not borrowed")]
    fn slice_ref_rejects_foreign_slices() {
        let frame = Bytes::from(b"abcdefgh".to_vec());
        let other = [1u8, 2, 3];
        let _ = frame.slice_ref(&other);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = Bytes::from(vec![9, 2, 3]);
        assert_eq!(a.slice(1..3), b.slice(1..3));
        assert_ne!(a, b);
        assert_eq!(format!("{:?}", a.slice(0..2)), "[1, 2]");
    }
}
