//! An idle poll's authentication and parameter reads allocate little.
//!
//! Every up-to-date poll a session answers verifies its request MAC once
//! and reads two query parameters (`p`, then `lp`). This binary counts
//! the heap allocations those three calls make on a routed, signed poll
//! target. The count is process-wide, so the binary holds a single test:
//! no other test thread allocates during the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rcb_core::auth;
use rcb_crypto::SessionKey;
use rcb_http::Request;
use rcb_util::DetRng;

/// Allocations made so far (a `realloc` counts as one, through the
/// default `GlobalAlloc::realloc`).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most allocations one verify and two parameter reads may make: the
/// canonical message's one buffer, and the decoded `p` value.
const MAX_ALLOCS: usize = 2;

#[test]
fn verifying_and_reading_an_idle_poll_allocates_at_most_twice() {
    let key = SessionKey::generate_deterministic(&mut DetRng::new(7));
    let mut req = Request::post("/s/0123456789abcdef/poll?p=17", b"t=1760000000000".to_vec());
    auth::sign_request(&key, &mut req);

    let before = ALLOCS.load(Ordering::Relaxed);
    let verified = auth::verify_request(&key, &req);
    let pid = req.query_param("p");
    let long_poll = req.query_param("lp");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(verified, "{}", req.target);
    assert_eq!(pid.as_deref(), Some("17"));
    assert_eq!(long_poll, None);
    assert!(
        allocs <= MAX_ALLOCS,
        "one verify and two parameter reads made {allocs} allocations, over {MAX_ALLOCS}"
    );
    eprintln!("one verify and two parameter reads: {allocs} allocations");
}
