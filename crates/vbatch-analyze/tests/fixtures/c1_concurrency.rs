//! Fixture: fails the VBA401 concurrency pass.
//! Never compiled — consumed as text by the analyzer's tests.

struct RawShared<U> {
    ptr: *mut U,
}

// SAFETY: element access is disjoint per worker, and the element type
// crosses threads with the closure.
unsafe impl<U: Send> Send for RawShared<U> {}
