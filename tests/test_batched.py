"""Tests for the batched SVD extension."""

import numpy as np
import pytest

from tests.conftest import rel_err, scipy_svdvals
from repro import Solver
from repro.core import svdvals, svdvals_batched
from repro.errors import CapacityError, ShapeError

H100 = Solver("h100", "fp32")


class TestNumerics:
    def test_matches_per_matrix_results(self, rng):
        As = rng.standard_normal((5, 40, 40))
        vals = svdvals_batched(As, backend="h100", precision="fp64")
        assert vals.shape == (5, 40)
        for i in range(5):
            np.testing.assert_array_equal(vals[i], svdvals(As[i]))

    def test_accepts_sequences(self, rng):
        mats = [rng.standard_normal((16, 16)) for _ in range(3)]
        vals = svdvals_batched(mats)
        for i, a in enumerate(mats):
            assert rel_err(vals[i], scipy_svdvals(a)) < 1e-12

    def test_fp32(self, rng):
        As = rng.standard_normal((3, 32, 32)).astype(np.float32)
        vals = svdvals_batched(As, precision="fp32")
        for i in range(3):
            assert rel_err(vals[i], scipy_svdvals(As[i])) < 5e-6

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            svdvals_batched(rng.standard_normal((4, 4)))  # 2-D
        with pytest.raises(ShapeError):
            svdvals_batched([])
        with pytest.raises(ShapeError):
            svdvals_batched([np.zeros((4, 4)), np.zeros((5, 5))])

    @pytest.mark.parametrize("return_info", [False, True])
    def test_stack_capacity_checked_before_numerics(self, return_info):
        """The whole stack is resident at once, so the batch is checked
        against device memory before any allocation or numerics, with or
        without return_info.  One small array repeated keeps the test
        cheap; NaN entries prove no finiteness check ran first."""
        A = np.full((1024, 1024), np.nan, dtype=np.float32)
        mats = [A] * 2000  # 2000 x 4 MiB x 1.25 > the rtx4060's 8 GiB
        with pytest.raises(CapacityError, match="batch of 2000"):
            svdvals_batched(
                mats, backend="rtx4060", precision="fp32",
                return_info=return_info,
            )
        with pytest.raises(CapacityError, match="batch of 2000"):
            Solver("rtx4060", "fp32").plan((2000, 1024, 1024))

    def test_info_is_batched_breakdown(self, rng):
        As = rng.standard_normal((3, 32, 32))
        _, bd = svdvals_batched(As, return_info=True)
        assert bd.total_s > 0
        assert any(k.endswith("_b") for k in bd.launches)


class TestBatchedModel:
    def test_batching_beats_sequential_small(self):
        """The point of batching: amortized launches + occupancy for the
        small sizes where the paper's kernels lose to tuned libraries."""
        n, batch = 128, 64
        seq = batch * H100.predict(n, check_capacity=False).total_s
        bat = H100.predict(n, batch=batch).total_s
        assert bat < seq / 3

    def test_batched_advantage_shrinks_with_size(self):
        def gain(n):
            seq = 8 * H100.predict(n, check_capacity=False).total_s
            return seq / H100.predict(n, batch=8).total_s

        assert gain(128) > gain(2048)

    def test_flops_scale_with_batch(self):
        b1 = H100.predict(256, batch=1)
        b8 = H100.predict(256, batch=8)
        assert b8.flops == pytest.approx(8 * b1.flops, rel=1e-6)
        assert b8.total_s < 8 * b1.total_s

    def test_launch_count_independent_of_batch(self):
        b1 = H100.predict(256, batch=1)
        b64 = H100.predict(256, batch=64)
        assert b1.launch_total == b64.launch_total

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            H100.predict(8192, batch=100000)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            H100.predict(0, batch=4)
        with pytest.raises(ShapeError):
            H100.predict(64, batch=0)

    def test_panel_rounds_beyond_sm_count(self):
        """More concurrent panel bodies than SMs serialize into rounds."""
        small = H100.predict(64, batch=100).panel_s
        large = H100.predict(64, batch=400).panel_s
        assert large > small * 2
