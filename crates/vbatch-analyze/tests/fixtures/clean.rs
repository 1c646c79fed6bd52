//! Fixture: passes every lint, with one audited `unsafe` block.
//! Never compiled — consumed as text by the analyzer's tests.

use std::collections::BTreeMap;

fn kernel_name() -> &'static str {
    static NAME: OnceLock<&'static str> = OnceLock::new();
    *NAME.get_or_init(|| intern::literal("fixture_clean_kernel"))
}

pub fn launch_good(dev: &Device, counts: &mut BTreeMap<u32, u32>) -> Result<(), Error> {
    // SAFETY: `DST` points at a static buffer of at least one element
    // and no other reference aliases it during this call.
    let slot = unsafe { &mut *DST };
    *slot = counts.len() as u32;
    let cfg = LaunchConfig::grid_1d(1, 32);
    dev.launch(kernel_name(), cfg, move |ctx| {
        ctx.gmem_read(4);
        ctx.sync();
    })
}
