//! The per-shard lock-free inbox behind [`crate::StreamEngine::enqueue`]:
//! a Treiber stack of sample batches. All of the crate's `unsafe` lives
//! here.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A node of a shard's lock-free inbox (one [`crate::StreamEngine::enqueue`]).
struct InboxNode {
    /// Global session id the samples belong to.
    id: usize,
    /// The session slot's generation at enqueue time. Checked at drain:
    /// a batch whose slot has since been closed (and possibly reopened
    /// for a *different* event under the same id) carries a stale
    /// generation and is dropped instead of contaminating the new event.
    generation: u64,
    samples: Vec<f64>,
    next: *mut InboxNode,
}

/// Lock-free multi-producer inbox: a Treiber stack of sample batches.
/// Producers push with one CAS ([`crate::StreamEngine::enqueue`] is `&self`);
/// the owning shard detaches the whole stack with one atomic swap at
/// tick start and replays it in arrival (FIFO) order.
pub(crate) struct Inbox {
    head: AtomicPtr<InboxNode>,
}

// SAFETY: the raw pointers form a singly-linked list of heap nodes owned
// exclusively by this stack — producers only prepend (CAS on `head`),
// the consumer only detaches the entire list (swap), and nodes are never
// aliased after detachment. Sending or sharing the inbox moves/shares
// ownership of that whole list.
#[allow(unsafe_code)]
unsafe impl Send for Inbox {}
#[allow(unsafe_code)]
unsafe impl Sync for Inbox {}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Prepend one batch (lock-free, any thread).
    pub(crate) fn push(&self, id: usize, generation: u64, samples: Vec<f64>) {
        let node = Box::into_raw(Box::new(InboxNode {
            id,
            generation,
            samples,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` came from Box::into_raw above and is not yet
            // published, so this thread has exclusive access to it.
            #[allow(unsafe_code)]
            unsafe {
                (*node).next = head;
            }
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    /// Detach everything enqueued so far and return it oldest-first.
    pub(crate) fn drain(&self) -> Vec<(usize, u64, Vec<f64>)> {
        let mut cur = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut out = Vec::new();
        while !cur.is_null() {
            // SAFETY: after the swap this thread exclusively owns the
            // detached list; each node was created by Box::into_raw in
            // `push` and is reconstituted exactly once here.
            #[allow(unsafe_code)]
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
            out.push((node.id, node.generation, node.samples));
        }
        out.reverse();
        out
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Free any batches never drained by a tick.
        drop(self.drain());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_drains_fifo_and_frees_undrained_batches() {
        let inbox = Inbox::new();
        inbox.push(0, 0, vec![1.0]);
        inbox.push(3, 1, vec![2.0, 3.0]);
        inbox.push(0, 0, vec![4.0]);
        let drained = inbox.drain();
        assert_eq!(
            drained,
            vec![(0, 0, vec![1.0]), (3, 1, vec![2.0, 3.0]), (0, 0, vec![4.0])]
        );
        assert!(inbox.drain().is_empty());
        // Left-over batches are reclaimed by Drop (checked under Miri-less
        // builds simply by not leaking in the allocator-counting tests).
        inbox.push(1, 0, vec![5.0]);
    }
}
