//! Column-count specialization of the per-step kernels.
//!
//! The forward sweep, the backward sweep and the MAP decode each have one
//! kernel source, generic over a `Width`. One dispatch, `with_width!`,
//! instantiates that source with the column count known at compile time
//! for every width up to [`MAX_FIXED_WIDTH`], so the per-record loops over
//! columns have constant trip counts, unroll, and index `[f64; K]` rows
//! without bounds checks. A wider page runs the same source at a runtime
//! width. Specialization changes no operation and no operand order, so
//! every width computes the same bits.

use std::ops::{Index, IndexMut};

/// The widest column count with a fixed-width kernel instance. Every page
/// of the paper corpus (3 to 11 columns) runs a fixed-width instance.
pub const MAX_FIXED_WIDTH: usize = 12;

/// A column count, fixed at compile time ([`Fixed`]) or at run time
/// ([`Runtime`]).
pub(crate) trait Width: Copy {
    /// One per-column row of `k` cells: `[f64; K]` at a fixed width.
    type Row: AsRef<[f64]> + AsMut<[f64]> + Index<usize, Output = f64> + IndexMut<usize>;

    /// A `k × k` table of rows, indexed `[row][column]`: `[[f64; K]; K]`
    /// at a fixed width.
    type Table: Index<usize, Output = Self::Row> + IndexMut<usize>;

    /// The column count `k`.
    fn k(self) -> usize;

    /// A row with every cell set to `v`.
    fn row(self, v: f64) -> Self::Row;

    /// A table with every cell set to `v`.
    fn table(self, v: f64) -> Self::Table;
}

/// The column count `K`, known at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    type Row = [f64; K];
    type Table = [[f64; K]; K];

    #[inline(always)]
    fn k(self) -> usize {
        K
    }

    #[inline(always)]
    fn row(self, v: f64) -> [f64; K] {
        [v; K]
    }

    #[inline(always)]
    fn table(self, v: f64) -> [[f64; K]; K] {
        [[v; K]; K]
    }
}

/// A column count above [`MAX_FIXED_WIDTH`], known only at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Runtime(pub(crate) usize);

impl Width for Runtime {
    type Row = Vec<f64>;
    type Table = Vec<Vec<f64>>;

    fn k(self) -> usize {
        self.0
    }

    fn row(self, v: f64) -> Vec<f64> {
        vec![v; self.0]
    }

    fn table(self, v: f64) -> Vec<Vec<f64>> {
        vec![self.row(v); self.0]
    }
}

/// The one width dispatch: evaluates `$body` with `$w` bound to the
/// [`Width`] for column count `$k`, a [`Fixed`] instance for every count
/// in `1..=MAX_FIXED_WIDTH` and [`Runtime`] otherwise.
macro_rules! with_width {
    ($k:expr, $w:ident => $body:expr) => {
        $crate::width::with_width!(@arms $k, $w, $body; 1 2 3 4 5 6 7 8 9 10 11 12)
    };
    (@arms $k:expr, $w:ident, $body:expr; $($n:literal)*) => {
        match $k {
            $($n => {
                let $w = $crate::width::Fixed::<$n>;
                $body
            })*
            k => {
                let $w = $crate::width::Runtime(k);
                $body
            }
        }
    };
}
pub(crate) use with_width;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_up_to_the_bound_dispatches_to_its_fixed_instance() {
        for k in 1..=MAX_FIXED_WIDTH + 2 {
            let (width, name) = with_width!(k, w => (w.k(), std::any::type_name_of_val(&w)));
            assert_eq!(width, k);
            let fixed = name.contains(&format!("Fixed<{k}>"));
            assert_eq!(
                fixed,
                k <= MAX_FIXED_WIDTH,
                "{k} columns dispatch to {name}"
            );
            let row = with_width!(k, w => AsRef::<[f64]>::as_ref(&w.row(1.5)).to_vec());
            assert_eq!(row, vec![1.5; k]);
            let last = with_width!(k, w => AsRef::<[f64]>::as_ref(&w.table(2.5)[k - 1]).to_vec());
            assert_eq!(last, vec![2.5; k]);
        }
    }
}
