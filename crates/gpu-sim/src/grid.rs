//! Launch geometry: grids, blocks and launch configurations.

/// A CUDA-style three-component extent/index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Fastest-varying component.
    pub x: u32,
    /// Middle component.
    pub y: u32,
    /// Slowest-varying component.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent `(x, 1, 1)`.
    #[must_use]
    pub const fn x(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// A 2-D extent `(x, y, 1)`.
    #[must_use]
    pub const fn xy(x: u32, y: u32) -> Self {
        Self { x, y, z: 1 }
    }

    /// A 3-D extent.
    #[must_use]
    pub const fn xyz(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// Total number of elements in the extent.
    #[must_use]
    pub(crate) const fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Decomposes a linear index (x fastest) into a `Dim3` index within
    /// this extent.
    #[must_use]
    pub(crate) fn unflatten(&self, linear: u64) -> Dim3 {
        debug_assert!(linear < self.count());
        let x = (linear % self.x as u64) as u32;
        let rest = linear / self.x as u64;
        let y = (rest % self.y as u64) as u32;
        let z = (rest / self.y as u64) as u32;
        Dim3 { x, y, z }
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

/// Everything a kernel launch specifies besides the kernel body.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Grid extent in blocks.
    pub grid: Dim3,
    /// Block extent in threads.
    pub block: Dim3,
    /// Dynamic shared memory requested per block, in bytes.
    pub shared_mem_bytes: usize,
}

impl LaunchConfig {
    /// 1-D grid of `blocks` blocks of `threads` threads, no shared
    /// memory.
    #[must_use]
    pub fn grid_1d(blocks: u32, threads: u32) -> Self {
        Self {
            grid: Dim3::x(blocks),
            block: Dim3::x(threads),
            shared_mem_bytes: 0,
        }
    }

    /// General constructor.
    #[must_use]
    pub fn new(grid: Dim3, block: Dim3, shared_mem_bytes: usize) -> Self {
        Self {
            grid,
            block,
            shared_mem_bytes,
        }
    }

    /// Adds a dynamic shared-memory request.
    #[must_use]
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Threads per block.
    #[must_use]
    pub(crate) fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Warps per block (rounded up to whole warps of `warp_size`).
    #[must_use]
    pub(crate) fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block().div_ceil(warp_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_count_and_unflatten() {
        let d = Dim3::xyz(3, 4, 5);
        assert_eq!(d.count(), 60);
        assert_eq!(d.unflatten(0), Dim3::xyz(0, 0, 0));
        assert_eq!(d.unflatten(3), Dim3::xyz(0, 1, 0));
        assert_eq!(d.unflatten(12), Dim3::xyz(0, 0, 1));
        assert_eq!(d.unflatten(59), Dim3::xyz(2, 3, 4));
    }

    #[test]
    fn warps_round_up() {
        let cfg = LaunchConfig::grid_1d(1, 33);
        assert_eq!(cfg.warps_per_block(32), 2);
        let cfg = LaunchConfig::grid_1d(1, 32);
        assert_eq!(cfg.warps_per_block(32), 1);
        let cfg = LaunchConfig::grid_1d(1, 1);
        assert_eq!(cfg.warps_per_block(32), 1);
    }

    #[test]
    fn builder_sets_shared_mem() {
        let cfg = LaunchConfig::grid_1d(2, 64).with_shared_mem(4096);
        assert_eq!(cfg.shared_mem_bytes, 4096);
        assert_eq!(cfg.threads_per_block(), 64);
    }
}
