//! Auxiliary integer GPU kernels (paper §III-A, §III-F).
//!
//! Because the vbatched metadata lives in device memory, "any pointer
//! displacement or any simple arithmetic operation on the matrix size
//! need to be performed on the whole array" by dedicated kernels: a max
//! reduction for the LAPACK-style interface, and the per-step
//! size/pointer advance the factorization driver issues before each
//! panel step. Every one of these is a real (simulated) kernel launch,
//! so their overhead is measurable — the paper claims, and the profiler
//! can confirm, that it is almost negligible.

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, LaunchConfig};

use crate::batch::BatchView;
use crate::report::VbatchError;
use crate::workspace::grow_slot;

/// Threads per block used by the auxiliary kernels.
const AUX_THREADS: u32 = 256;

/// Computes `max(values)` with a device reduction kernel and returns it
/// to the host (one `i32` device→host copy, charged to the clock) — the
/// LAPACK-style interface wrapper of §III-A.
///
/// Returns 0 for an empty array. The block-partial buffer is pooled by
/// the caller (pass `&mut None` for a one-off): grown on demand, never
/// shrunk, so a warm scratch makes the reduction allocation-free (the
/// [`crate::workspace::DriverWorkspace`] path).
///
/// # Errors
/// [`VbatchError::Launch`] / [`VbatchError::Oom`] on device failures.
pub(crate) fn compute_imax_pooled(
    dev: &Device,
    values: DevicePtr<i32>,
    count: usize,
    scratch: &mut Option<DeviceBuffer<i32>>,
) -> Result<i32, VbatchError> {
    if count == 0 {
        return Ok(0);
    }
    let blocks = count.div_ceil(AUX_THREADS as usize) as u32;
    let partial_ptr = grow_slot(scratch, DeviceBuffer::len, blocks as usize, || {
        dev.alloc(blocks as usize)
    })?
    .ptr();
    dev.launch(
        "vbatch_aux_imax",
        LaunchConfig::grid_1d(blocks, AUX_THREADS),
        move |ctx| {
            let b = ctx.block_idx().x as usize;
            let lo = b * AUX_THREADS as usize;
            let hi = (lo + AUX_THREADS as usize).min(count);
            let mut m = i32::MIN;
            for i in lo..hi {
                m = m.max(values.get(i));
            }
            partial_ptr.set(b, m);
            ctx.gmem_read((hi - lo) * 4);
            ctx.gmem_write(4);
            // Tree reduction in shared memory.
            ctx.smem_traffic((hi - lo) * 4);
            ctx.sync();
        },
    )?;
    if blocks > 1 {
        dev.launch(
            "vbatch_aux_imax",
            LaunchConfig::grid_1d(1, AUX_THREADS),
            move |ctx| {
                let mut m = i32::MIN;
                for i in 0..blocks as usize {
                    m = m.max(partial_ptr.get(i));
                }
                partial_ptr.set(0, m);
                ctx.gmem_read(blocks as usize * 4);
                ctx.gmem_write(4);
                ctx.sync();
            },
        )?;
    }
    dev.copy_dtoh_bytes(4);
    Ok(partial_ptr.get(0))
}

/// Device-resident per-step state for a factorization driver: for each
/// matrix, the pointer displaced to the current diagonal element and the
/// remaining (trailing) size.
pub struct StepState<T> {
    /// `ptrs[i]` displaced by `j·(ld+1)` — the `A(j,j)` pointer.
    pub(crate) d_ptrs: DeviceBuffer<DevicePtr<T>>,
    /// `max(0, n[i] − j)` — rows/cols remaining at this step.
    pub(crate) d_rem: DeviceBuffer<i32>,
}

impl<T: Scalar> StepState<T> {
    /// Allocates step state for `count` matrices.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc(dev: &Device, count: usize) -> Result<Self, VbatchError> {
        Ok(Self {
            d_ptrs: dev.alloc(count)?,
            d_rem: dev.alloc(count)?,
        })
    }

    /// Launches the per-step update kernel: recomputes the displaced
    /// pointers and remaining sizes of `a`'s matrices for offset `j`
    /// (paper §III-F: the driver "uses auxiliary kernels to pass the
    /// necessary information ... to ignore the factorized matrices
    /// onward").
    ///
    /// # Errors
    /// [`VbatchError::Launch`] if the kernel launch is rejected.
    pub fn update(&self, dev: &Device, a: BatchView<T>, j: usize) -> Result<(), VbatchError> {
        let out_ptrs = self.d_ptrs.ptr();
        let out_rem = self.d_rem.ptr();
        let count = a.count;
        let blocks = count.div_ceil(AUX_THREADS as usize).max(1) as u32;
        dev.launch(
            "vbatch_aux_step",
            LaunchConfig::grid_1d(blocks, AUX_THREADS),
            move |ctx| {
                let b = ctx.block_idx().x as usize;
                let lo = b * AUX_THREADS as usize;
                let hi = (lo + AUX_THREADS as usize).min(count);
                for i in lo..hi {
                    let (_, n, ld) = a.dims(i);
                    let rem = n.saturating_sub(j);
                    out_rem.set(i, rem as i32);
                    let displaced = if rem > 0 {
                        a.ptrs.get(i).offset(j * (ld + 1))
                    } else {
                        DevicePtr::null()
                    };
                    out_ptrs.set(i, displaced);
                }
                let span = hi - lo;
                ctx.gmem_read(span * (4 + 4 + std::mem::size_of::<DevicePtr<T>>()));
                ctx.gmem_write(span * (4 + std::mem::size_of::<DevicePtr<T>>()));
            },
        )?;
        Ok(())
    }

    /// The trailing matrices of the last [`StepState::update`] over `a`:
    /// each pointer at `A(j,j)`, `rem × rem`, at `a`'s leading
    /// dimensions and `info` codes.
    #[must_use]
    pub fn view(&self, a: BatchView<T>) -> BatchView<T> {
        let rem = self.d_rem.ptr();
        a.blocks(self.d_ptrs.ptr(), rem, rem, a.info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::VBatch;
    use vbatch_gpu_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::k40c())
    }

    #[test]
    fn imax_small_and_large() {
        let d = dev();
        let vals: Vec<i32> = vec![3, 9, 1, 7];
        let buf = d.alloc::<i32>(4).unwrap();
        buf.fill_from_host(&vals);
        assert_eq!(compute_imax_pooled(&d, buf.ptr(), 4, &mut None).unwrap(), 9);

        // Multi-block reduction (3000 values, max hidden past the first
        // block boundary).
        let mut vals: Vec<i32> = (0..3000).map(|i| i % 97).collect();
        vals[2345] = 5000;
        let buf = d.alloc::<i32>(3000).unwrap();
        buf.fill_from_host(&vals);
        assert_eq!(
            compute_imax_pooled(&d, buf.ptr(), 3000, &mut None).unwrap(),
            5000
        );
    }

    #[test]
    fn imax_pooled_reuses_scratch() {
        let d = dev();
        let vals: Vec<i32> = (0..600).map(|i| (i * 13) % 401).collect();
        let buf = d.alloc::<i32>(600).unwrap();
        buf.fill_from_host(&vals);
        let want = *vals.iter().max().unwrap();
        let mut scratch = None;
        assert_eq!(
            compute_imax_pooled(&d, buf.ptr(), 600, &mut scratch).unwrap(),
            want
        );
        let allocs = d.alloc_count();
        assert_eq!(
            compute_imax_pooled(&d, buf.ptr(), 600, &mut scratch).unwrap(),
            want
        );
        assert_eq!(d.alloc_count(), allocs, "warm scratch must not allocate");
    }

    #[test]
    fn imax_empty_is_zero() {
        let d = dev();
        assert_eq!(
            compute_imax_pooled(&d, DevicePtr::null(), 0, &mut None).unwrap(),
            0
        );
    }

    #[test]
    fn imax_charges_the_clock() {
        let d = dev();
        let buf = d.alloc::<i32>(10).unwrap();
        let t0 = d.now();
        compute_imax_pooled(&d, buf.ptr(), 10, &mut None).unwrap();
        assert!(d.now() > t0, "aux kernel + copy must advance the clock");
    }

    #[test]
    fn step_state_displaces_pointers() {
        let d = dev();
        let mut b = VBatch::<f64>::alloc_square(&d, &[4, 2]).unwrap();
        // Matrix 0: 4x4 with values 0..16; diagonal (2,2) = index 10.
        b.upload_matrix(0, &(0..16).map(|x| x as f64).collect::<Vec<_>>())
            .unwrap();
        b.upload_matrix(1, &(0..4).map(|x| x as f64).collect::<Vec<_>>())
            .unwrap();
        let st = StepState::<f64>::alloc(&d, 2).unwrap();
        st.update(&d, b.view(), 2).unwrap();
        let rem = st.d_rem.read_to_host();
        assert_eq!(rem, vec![2, 0]);
        let p0 = st.d_ptrs.ptr().get(0);
        assert_eq!(p0.get(0), 10.0); // A0(2,2)
        let p1 = st.d_ptrs.ptr().get(1);
        assert!(p1.is_empty(), "finished matrix gets a null pointer");
    }

    #[test]
    fn step_zero_is_identity() {
        let d = dev();
        let b = VBatch::<f64>::alloc_square(&d, &[3]).unwrap();
        let st = StepState::<f64>::alloc(&d, 1).unwrap();
        st.update(&d, b.view(), 0).unwrap();
        assert_eq!(st.d_rem.read_to_host(), vec![3]);
        assert_eq!(st.d_ptrs.ptr().get(0).raw(), b.d_ptrs().get(0).raw());
    }
}
