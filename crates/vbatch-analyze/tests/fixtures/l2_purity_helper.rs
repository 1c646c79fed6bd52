//! Fixture: impure kernel-body helper fns (VBA101).
//! Never compiled — consumed as text by the analyzer's tests.

/// Called from a launch closure with that block's context: its body is
/// kernel code although no `launch(` appears around it.
fn tile_math<T: Scalar>(ctx: &mut BlockCtx, mt: usize, nt: usize) {
    let mut tmp = vec![T::ZERO; mt * nt];
    tmp[0] = T::ONE;
    ctx.flops(true, 32, (mt * nt) as f64);
}

/// The host engine passes `None`; the device path passes the context.
fn step_math(ctx: Option<&mut BlockCtx>, pivots: &[usize]) -> usize {
    let first = pivots.first().expect("non-empty panel");
    if let Some(c) = ctx {
        c.sync();
    }
    *first
}

/// The executor's side: it takes a kernel, not a block context, and may
/// allocate its own bookkeeping.
fn run_blocks<F: Fn(&mut BlockCtx) + Sync>(grid: usize, kernel: F) -> Vec<BlockCost> {
    let mut costs = Vec::new();
    for b in 0..grid {
        let mut ctx = BlockCtx::new(b);
        kernel(&mut ctx);
        costs.push(ctx.cost());
    }
    costs
}

#[cfg(test)]
mod tests {
    fn scratch_for(ctx: &mut BlockCtx) -> Vec<f64> {
        vec![0.0; ctx.threads()]
    }
}
