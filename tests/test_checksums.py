"""Unit tests for checksum computation (Eqs. 2-3)."""

import numpy as np
import pytest

from repro.core.checksums import (
    both_checksums,
    checksum,
    column_checksum,
    constant_checksum,
    row_checksum,
)
from repro.stencil.reference import (
    reference_column_checksum,
    reference_row_checksum,
)


class TestChecksum2D:
    def test_row_checksum_matches_reference(self, rng):
        u = rng.random((7, 9))
        np.testing.assert_allclose(row_checksum(u), reference_row_checksum(u), rtol=1e-12)

    def test_column_checksum_matches_reference(self, rng):
        u = rng.random((7, 9))
        np.testing.assert_allclose(
            column_checksum(u), reference_column_checksum(u), rtol=1e-12
        )

    def test_shapes(self, rng):
        u = rng.random((5, 8))
        assert row_checksum(u).shape == (5,)
        assert column_checksum(u).shape == (8,)

    def test_both_checksums(self, rng):
        u = rng.random((4, 6))
        a, b = both_checksums(u)
        np.testing.assert_array_equal(a, row_checksum(u))
        np.testing.assert_array_equal(b, column_checksum(u))

    def test_total_sum_consistency(self, rng):
        # The sum of the row checksums equals the sum of the column checksums
        # (both equal the total domain sum).
        u = rng.random((6, 11))
        assert row_checksum(u).sum() == pytest.approx(column_checksum(u).sum())

    def test_accumulation_dtype(self, rng):
        u = rng.random((5, 5)).astype(np.float32)
        assert row_checksum(u).dtype == np.float32
        assert row_checksum(u, dtype=np.float64).dtype == np.float64


class TestChecksum3D:
    def test_per_layer_equivalence(self, rng):
        # The vectorised 3D checksum equals the per-layer 2D checksums.
        u = rng.random((6, 5, 4))
        a = row_checksum(u)       # shape (6, 4)
        b = column_checksum(u)    # shape (5, 4)
        for z in range(4):
            np.testing.assert_allclose(a[:, z], row_checksum(u[:, :, z]), rtol=1e-12)
            np.testing.assert_allclose(b[:, z], column_checksum(u[:, :, z]), rtol=1e-12)

    def test_shapes(self, rng):
        u = rng.random((6, 5, 3))
        assert row_checksum(u).shape == (6, 3)
        assert column_checksum(u).shape == (5, 3)


class TestChecksumValidation:
    def test_invalid_axis_rejected(self, rng):
        with pytest.raises(ValueError, match="reduce_axis"):
            checksum(rng.random((3, 3)), 2)

    def test_invalid_ndim_rejected(self, rng):
        with pytest.raises(ValueError, match="2D/3D"):
            checksum(rng.random(5), 0)


class TestConstantChecksum:
    def test_none_passthrough(self):
        assert constant_checksum(None, 0, (3, 3), np.float32) is None

    def test_values(self, rng):
        c = rng.random((4, 6))
        cs = constant_checksum(c, 1, (4, 6), np.float64)
        np.testing.assert_allclose(cs, c.sum(axis=1))
        assert cs.dtype == np.float64

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="constant term"):
            constant_checksum(rng.random((2, 2)), 0, (3, 3), np.float32)

