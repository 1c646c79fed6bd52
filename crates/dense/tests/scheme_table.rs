//! The active tile schemes are a function of the CPU alone.
//!
//! One test in its own binary: `tune::active_info` resolves once per
//! process, so nothing else may touch it before the working directory
//! and environment are moved away from the repository below.

use vbatch_dense::tune::{self, CpuFeatures, TileScheme};

#[test]
fn active_scheme_is_the_table_row_wherever_the_process_starts() {
    // Start away from any checkout, with a tuning-file variable set to
    // a path that does not exist: neither may change the schemes.
    std::env::set_current_dir(std::env::temp_dir()).expect("temp dir is enterable");
    std::env::set_var(concat!("VBATCH_", "TUNE"), "/nonexistent/TUNE.json");

    let row = tune::row_for(&CpuFeatures::detect());
    let active = tune::active_info();
    assert_eq!(active.f64_scheme, row.f64_scheme);
    assert_eq!(active.f32_scheme, row.f32_scheme);
    assert_eq!(active.source, row.name);
    assert_eq!(tune::active::<f64>(), row.f64_scheme);
    assert_eq!(tune::active::<f32>(), row.f32_scheme);

    for row in &tune::TABLE {
        for ts in [row.f64_scheme, row.f32_scheme] {
            ts.validate()
                .unwrap_or_else(|why| panic!("row {}: {why}", row.name));
            // The simulated grid depends on the interleave cutoff.
            assert_eq!(
                ts.ilv_cutoff,
                TileScheme::DEFAULT.ilv_cutoff,
                "row {}",
                row.name
            );
        }
    }
}
