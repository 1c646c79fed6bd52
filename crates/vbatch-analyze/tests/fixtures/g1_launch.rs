//! Fixture: fails the VBA504 double-charge lint once.
//! Never compiled — consumed as text by the analyzer's tests.

pub fn driver(dev: &Device, cfg: LaunchConfig) {
    dev.launch(kname::<f64>("fixture_ok"), cfg, move |ctx| {
        ctx.gmem_read(8);
        ctx.gmem_read(8);
        if ctx.block_idx().x == 0 {
            ctx.gmem_read(8);
        }
        ctx.gmem_read(16);
    });
}
