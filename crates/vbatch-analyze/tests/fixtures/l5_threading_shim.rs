//! L5 fixture, shim-shaped: a vendored parallel-iterator stand-in that
//! forks one scoped thread per chunk on every call. Placed under
//! `shims/<name>/src` it sits below `Device::launch`, outside
//! `crates/`, which is how the real one went unseen.

pub fn for_each_chunk<T: Sync>(items: &[T], chunks: usize, f: impl Fn(&T) + Sync) {
    let per = items.len().div_ceil(chunks.max(1)).max(1);
    std::thread::scope(|scope| {
        for chunk in items.chunks(per) {
            let f = &f;
            scope.spawn(move || chunk.iter().for_each(f));
        }
    });
}
