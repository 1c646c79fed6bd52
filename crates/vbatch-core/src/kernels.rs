//! Shared helpers for writing simulated device kernels: matrix views
//! over device pointers and cost-charging conventions.

use vbatch_dense::{MatMut, MatRef, Scalar};
use vbatch_gpu_sim::{BlockCtx, DevicePtr};

/// Exclusive matrix view over device memory.
///
/// # Panics
/// In debug builds, if the pointer window is too small for the extent.
#[must_use]
pub fn mat_mut<T: Scalar>(p: DevicePtr<T>, m: usize, n: usize, ld: usize) -> MatMut<'static, T> {
    debug_assert!(
        m == 0 || n == 0 || p.len() >= ld * (n - 1) + m,
        "device matrix view {m}x{n} (ld {ld}) exceeds pointer window {}",
        p.len()
    );
    // SAFETY: the extent check above plus the kernel disjointness
    // contract of `DevicePtr`.
    unsafe { MatMut::from_raw_parts(p.raw(), m, n, ld) }
}

/// Shared matrix view over device memory.
#[must_use]
pub fn mat_ref<T: Scalar>(p: DevicePtr<T>, m: usize, n: usize, ld: usize) -> MatRef<'static, T> {
    debug_assert!(
        m == 0 || n == 0 || p.len() >= ld * (n - 1) + m,
        "device matrix view {m}x{n} (ld {ld}) exceeds pointer window {}",
        p.len()
    );
    // SAFETY: as above; read-only.
    unsafe { MatRef::from_raw_parts(p.raw().cast_const(), m, n, ld) }
}

/// Charges `total_flops` of precision `T` performed cooperatively by
/// `active_threads` threads (evenly divided; SIMT padding applies).
pub fn charge_flops<T: Scalar>(ctx: &mut BlockCtx, active_threads: usize, total_flops: f64) {
    if active_threads == 0 || total_flops <= 0.0 {
        return;
    }
    ctx.flops(
        T::IS_DOUBLE,
        active_threads,
        total_flops / active_threads as f64,
    );
}

/// Charges a global-memory read of `elems` elements of `T`.
pub fn charge_read<T: Scalar>(ctx: &mut BlockCtx, elems: usize) {
    ctx.gmem_read(elems * T::BYTES);
}

/// Charges a global-memory write of `elems` elements of `T`.
pub fn charge_write<T: Scalar>(ctx: &mut BlockCtx, elems: usize) {
    ctx.gmem_write(elems * T::BYTES);
}

/// Charges shared-memory traffic of `elems` elements of `T`.
pub(crate) fn charge_smem<T: Scalar>(ctx: &mut BlockCtx, elems: usize) {
    ctx.smem_traffic(elems * T::BYTES);
}

/// Rounds `threads` up to a whole number of warps (min one warp).
#[must_use]
pub(crate) fn round_to_warp(threads: usize, warp: u32) -> u32 {
    let w = warp as usize;
    (threads.div_ceil(w).max(1) * w) as u32
}

/// Width of the LU/QR panel starting at column `j` of an `m × n`
/// matrix under outer panel width `nb`: 0 once `j` reaches
/// `min(m, n)`.
#[must_use]
pub(crate) fn panel_width(m: usize, n: usize, j: usize, nb: usize) -> usize {
    m.min(n).saturating_sub(j).min(nb)
}

/// Shared-memory bytes for an `m × nb` panel of `T`.
#[must_use]
pub(crate) fn panel_smem_bytes<T: Scalar>(m: usize, nb: usize) -> usize {
    m * nb * T::BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::{Device, DeviceConfig, LaunchConfig};

    #[test]
    fn views_read_write_device_memory() {
        let dev = Device::new(DeviceConfig::tiny_test());
        let buf = dev.alloc::<f64>(12).unwrap();
        let mut m = mat_mut(buf.ptr(), 3, 4, 3);
        m.set(2, 3, 5.0);
        let r = mat_ref(buf.ptr(), 3, 4, 3);
        assert_eq!(r.get(2, 3), 5.0);
        assert_eq!(buf.read_to_host()[11], 5.0);
    }

    #[test]
    fn round_to_warp_values() {
        assert_eq!(round_to_warp(1, 32), 32);
        assert_eq!(round_to_warp(32, 32), 32);
        assert_eq!(round_to_warp(33, 32), 64);
        assert_eq!(round_to_warp(0, 32), 32);
    }

    #[test]
    fn panel_bytes() {
        assert_eq!(panel_smem_bytes::<f64>(512, 8), 32 * 1024);
        assert_eq!(panel_smem_bytes::<f32>(512, 8), 16 * 1024);
    }

    #[test]
    fn charge_helpers_record() {
        let dev = Device::new(DeviceConfig::tiny_test());
        let stats = dev
            .launch("t", LaunchConfig::grid_1d(1, 32), |ctx| {
                charge_flops::<f64>(ctx, 16, 160.0);
                charge_read::<f64>(ctx, 10);
                charge_write::<f32>(ctx, 10);
                charge_smem::<f64>(ctx, 4);
            })
            .unwrap();
        assert_eq!(stats.timing.flops_useful, 160.0);
        assert_eq!(stats.timing.gmem_bytes, 80.0 + 40.0);
    }
}
