//! Fixture: three `unsafe` occurrences for the budget census (VBA002
//! against an unlisted crate's budget of zero).
//! Never compiled — consumed as text by the analyzer's tests.

pub fn read_first(p: *const u32) -> u32 {
    // SAFETY: the caller passes a valid pointer.
    let v = unsafe { *p };
    v
}

/// # Safety
/// `p` must be valid for writes.
pub unsafe fn clear(p: *mut u32) {
    // SAFETY: forwarded from the caller.
    unsafe { *p = 0 };
}
