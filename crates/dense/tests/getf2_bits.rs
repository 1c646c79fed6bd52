//! `getf2` against the right-looking loop, bit for bit.
//!
//! On an AVX-512F host, `f64` [`getf2`] runs a left-looking (Crout)
//! panel in registers; [`getf2_right_looking`] is the loop every other
//! host runs. Factor, pivots and error must agree exactly: every element
//! compares by `to_bits`, except that a NaN compares as a class (Rust
//! leaves the sign and payload of an arithmetic NaN unspecified). The
//! whole storage is compared, so the `ld` gap rows must come back
//! untouched as well. On other hosts both sides run the same loop and
//! the test is trivially green.
//!
//! The input families make each rule of the chain observable: ties for
//! the first-maximum pivot rule, signed zeros for the `a(j, c) == 0`
//! skip (applying `x − l·(±0)` turns a `−0` into `+0`), zero columns
//! with a NaN below the diagonal for the singular-column skip, and
//! infinities for both.

use vbatch_dense::gen::{rand_mat, seeded_rng};
use vbatch_dense::{
    gemm, getf2, getf2_right_looking, getrf, laswp, trsm, Diag, Error, MatMut, Result, Side, Trans,
    Uplo,
};

/// Value of the `ld` gap rows, which neither side may write.
const GAP: f64 = 7.25;

#[derive(Clone, Copy, Debug)]
enum Fill {
    /// Uniform in `[-1, 1]`.
    Random,
    /// Small integers: ties in every pivot search, many exact zeros.
    Ties,
    /// Every third column zero, half of its entries `−0`.
    ZeroColumns,
    /// Small integers with every third column a copy of its left
    /// neighbour.
    RankDeficient,
    /// Uniform, with `±∞`, `±0` and one NaN sprinkled in.
    Specials,
    /// Small integers with `±0` everywhere a tie is not.
    SignedZeros,
    /// Column 0 and every fifth column `±0` with a NaN in the last row:
    /// singular columns whose multipliers include a NaN.
    SingularNan,
}

const FILLS: [Fill; 7] = [
    Fill::Random,
    Fill::Ties,
    Fill::ZeroColumns,
    Fill::RankDeficient,
    Fill::Specials,
    Fill::SignedZeros,
    Fill::SingularNan,
];

/// An `m × n` matrix of `fill` in storage with leading dimension `ld`.
fn matrix(fill: Fill, m: usize, n: usize, ld: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let u = rand_mat::<f64>(&mut rng, m * n);
    let int = |x: f64| (x * 3.5).round();
    let zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
    let mut a = vec![GAP; ld * n.max(1)];
    for c in 0..n {
        for i in 0..m {
            let x = u[i + c * m];
            let h = i * 31 + c * 17;
            a[i + c * ld] = match fill {
                Fill::Random => x,
                Fill::Ties => int(x),
                Fill::ZeroColumns if c % 3 == 1 => zero(i + c),
                Fill::ZeroColumns => x,
                Fill::RankDeficient if c % 3 == 2 => a[i + (c - 1) * ld],
                Fill::RankDeficient => int(x),
                Fill::Specials => match h % 23 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2 => 0.0,
                    3 => -0.0,
                    _ if i == m / 2 && c == n / 2 => f64::NAN,
                    _ => x,
                },
                Fill::SignedZeros if int(x) == 0.0 => zero(h),
                Fill::SignedZeros => int(x),
                Fill::SingularNan if c % 5 == 0 && i + 1 == m && i > c => f64::NAN,
                Fill::SingularNan if c % 5 == 0 => zero(h),
                Fill::SingularNan => x,
            };
        }
    }
    a
}

/// Bit pattern with every NaN mapped to one class.
fn class(x: f64) -> u64 {
    if x.is_nan() {
        u64::MAX
    } else {
        x.to_bits()
    }
}

/// Asserts two storages, pivot vectors and results are equal.
fn assert_same(
    what: &str,
    (a, pa, ra): (&[f64], &[usize], Result<()>),
    (b, pb, rb): (&[f64], &[usize], Result<()>),
) {
    assert_eq!(ra, rb, "{what}: result");
    assert_eq!(pa, pb, "{what}: pivots");
    if let Some(i) = (0..a.len()).find(|&i| class(a[i]) != class(b[i])) {
        panic!("{what}: element {i} is {:e}, oracle {:e}", a[i], b[i]);
    }
}

/// `getf2` on a copy of `orig` (`m × n`, leading dimension `ld`).
fn run_getf2(
    f: fn(MatMut<'_, f64>, &mut [usize]) -> Result<()>,
    orig: &[f64],
    (m, n, ld): (usize, usize, usize),
) -> (Vec<f64>, Vec<usize>, Result<()>) {
    let mut a = orig.to_vec();
    let mut piv = vec![usize::MAX; m.min(n)];
    let r = f(MatMut::from_slice(&mut a, m, n, ld), &mut piv);
    (a, piv, r)
}

/// `dense::getrf`'s blocked algorithm with the right-looking panel:
/// panel, pivots globalized and applied left and right, `L11⁻¹·A12`,
/// trailing `A22 − L21·U12`.
fn getrf_oracle(mut a: MatMut<'_, f64>, ipiv: &mut [usize], nb: usize) -> Result<()> {
    let (m, n) = (a.nrows(), a.ncols());
    let k = m.min(n);
    let mut first_err = None;
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        if let Err(Error::Singular { column }) =
            getf2_right_looking(a.rb().sub(j, j, m - j, jb), &mut ipiv[j..j + jb])
        {
            first_err.get_or_insert(j + column);
        }
        for p in &mut ipiv[j..j + jb] {
            *p += j;
        }
        if j > 0 {
            laswp(a.rb().sub(0, 0, m, j), j, j + jb, ipiv);
        }
        if j + jb < n {
            laswp(a.rb().sub(0, j + jb, m, n - j - jb), j, j + jb, ipiv);
            let l11 = a.alias_ref().sub(j, j, jb, jb);
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::Unit,
                1.0,
                l11,
                a.rb().sub(j, j + jb, jb, n - j - jb),
            );
            if j + jb < m {
                let l21 = a.alias_ref().sub(j + jb, j, m - j - jb, jb);
                let u12 = a.alias_ref().sub(j, j + jb, jb, n - j - jb);
                gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    -1.0,
                    l21,
                    u12,
                    1.0,
                    a.rb().sub(j + jb, j + jb, m - j - jb, n - j - jb),
                );
            }
        }
        j += jb;
    }
    match first_err {
        Some(c) => Err(Error::Singular { column: c }),
        None => Ok(()),
    }
}

#[test]
fn getf2_matches_right_looking_bits() {
    // Ragged `m` (most not a multiple of 16), ragged `n` (most not a
    // multiple of 4), `n > m`, and both `ld == m` and `ld > m`.
    let shapes = [
        (1, 1),
        (1, 6),
        (5, 1),
        (3, 3),
        (7, 5),
        (16, 4),
        (17, 4),
        (15, 9),
        (23, 23),
        (31, 64),
        (40, 13),
        (64, 64),
        (100, 37),
        (129, 66),
        (200, 200),
        (255, 64),
        (301, 17),
        (509, 63),
        (512, 32),
    ];
    let mut singular = 0;
    for (s, &(m, n)) in shapes.iter().enumerate() {
        for pad in [0, 3] {
            let ld = m + pad;
            for (f, &fill) in FILLS.iter().enumerate() {
                let seed = (s * 100 + f * 10 + pad) as u64;
                let orig = matrix(fill, m, n, ld, seed);
                let got = run_getf2(getf2, &orig, (m, n, ld));
                let want = run_getf2(getf2_right_looking, &orig, (m, n, ld));
                singular += usize::from(want.2.is_err());
                assert_same(
                    &format!("getf2 {fill:?} m={m} n={n} ld={ld}"),
                    (&got.0, &got.1, got.2),
                    (&want.0, &want.1, want.2),
                );
            }
        }
    }
    // The zero-column families must reach the singular path.
    assert!(singular > 50, "only {singular} singular panels");
}

#[test]
fn getrf_matches_right_looking_panel_bits() {
    for (s, &(m, n)) in [(64, 64), (97, 97), (150, 121), (45, 90)]
        .iter()
        .enumerate()
    {
        for nb in [8, 16, 32, 64] {
            for (f, &fill) in FILLS.iter().enumerate() {
                let ld = m + 1;
                let orig = matrix(fill, m, n, ld, (s * 1000 + nb * 10 + f) as u64);
                let mut got = orig.clone();
                let mut pg = vec![usize::MAX; m.min(n)];
                let rg = getrf(MatMut::from_slice(&mut got, m, n, ld), &mut pg, nb);
                let mut want = orig.clone();
                let mut pw = vec![usize::MAX; m.min(n)];
                let rw = getrf_oracle(MatMut::from_slice(&mut want, m, n, ld), &mut pw, nb);
                assert_same(
                    &format!("getrf {fill:?} m={m} n={n} nb={nb}"),
                    (&got, &pg, rg),
                    (&want, &pw, rw),
                );
            }
        }
    }
}

#[test]
fn first_zero_pivot_is_reported() {
    // Columns 0 and 1 are `2·e₀` and `e₀`, so column 1 is zero below
    // the first pivot; column 3 is zero outright and comes second.
    let (m, n) = (6, 5);
    let mut a = matrix(Fill::Random, m, n, m, 9);
    for i in 0..m {
        let e0 = if i == 0 { 1.0 } else { 0.0 };
        a[i] = 2.0 * e0;
        a[i + m] = e0;
        a[i + 3 * m] = 0.0;
    }
    let got = run_getf2(getf2, &a, (m, n, m));
    assert_eq!(got.2, Err(Error::Singular { column: 1 }));
    let want = run_getf2(getf2_right_looking, &a, (m, n, m));
    assert_same(
        "first zero",
        (&got.0, &got.1, got.2),
        (&want.0, &want.1, want.2),
    );
}
