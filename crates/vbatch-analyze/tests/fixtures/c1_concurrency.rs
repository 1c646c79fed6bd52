//! Fixture: fails the VBA401 send-sync audit once; the `Sync` impl
//! names its type and passes.
//! Never compiled — consumed as text by the analyzer's tests.

struct RawShared<U> {
    ptr: *mut U,
}

// SAFETY: element access is disjoint per worker, and the element type
// crosses threads with the closure.
unsafe impl<U: Send> Send for RawShared<U> {}
// SAFETY: a shared `RawShared` only hands out its pointer, under the
// same disjointness contract.
unsafe impl<U: Sync> Sync for RawShared<U> {}
