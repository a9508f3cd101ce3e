//! Numerical kernels shared by every sampler driver.
//!
//! The phi gradient (Eq. 5/6) and the theta gradient (Eq. 4) run in
//! `mmsb-simd` on every backend — `Backend::Scalar` is its width-1 lane
//! emulation. What stays here is pure (state in, state out): the theta
//! SGRLD step and the strided row view the phi kernel reads. The drivers
//! differ only in *where* these kernels run and how their inputs travel,
//! which is what makes chain-equivalence across drivers testable.

pub mod theta;

/// Strided view over concatenated f32 rows (e.g. DKV read buffers, where
/// each row is `K + 1` floats but kernels only consume the first `K`).
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    data: &'a [f32],
    stride: usize,
}

impl<'a> RowView<'a> {
    /// Wrap `data` containing rows of length `stride`.
    ///
    /// # Panics
    /// Panics if `stride == 0` or `data.len()` is not a multiple of it.
    pub fn new(data: &'a [f32], stride: usize) -> Self {
        assert!(stride > 0, "row stride must be positive");
        assert_eq!(
            data.len() % stride,
            0,
            "buffer length {} is not a multiple of stride {stride}",
            data.len()
        );
        Self { data, stride }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` (full stride; callers slice to `K` as needed).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// The underlying flat buffer (rows of [`Self::stride`] floats) —
    /// the layout the strided SIMD kernels consume directly.
    #[inline]
    pub fn flat(&self) -> &'a [f32] {
        self.data
    }

    /// Length of each row in the flat buffer.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_view_indexing() {
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = RowView::new(&data, 3);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(v.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of stride")]
    fn ragged_buffer_rejected() {
        RowView::new(&[1.0f32; 5], 3);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        RowView::new(&[], 0);
    }
}
