"""Tests for the exception hierarchy."""

import re

import numpy as np
import pytest

from repro import Solver
from repro.errors import (
    CapacityError,
    ConvergenceError,
    InvalidParamsError,
    ReproError,
    ShapeError,
    ShedError,
    UnsupportedBackendError,
    UnsupportedPrecisionError,
)


def test_all_derive_from_repro_error():
    for exc in (
        UnsupportedPrecisionError,
        UnsupportedBackendError,
        CapacityError,
        InvalidParamsError,
        ConvergenceError,
        ShapeError,
        ShedError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_catchable_as_base():
    with pytest.raises(ReproError):
        raise CapacityError("boom")


class TestShedError:
    """ShedError keeps the admission context a bare CapacityError loses."""

    def test_is_a_capacity_error(self):
        err = ShedError("shed", predicted_s=0.25, slo_s=0.1)
        assert isinstance(err, CapacityError)
        assert isinstance(err, ReproError)

    def test_carries_prediction_and_slo(self):
        err = ShedError("shed", predicted_s=0.25, slo_s=0.1)
        assert err.predicted_s == 0.25
        assert err.slo_s == 0.1

    def test_context_defaults_to_none(self):
        err = ShedError("capacity shed")
        assert err.predicted_s is None
        assert err.slo_s is None

    def test_service_message_names_prediction_and_slo(self):
        """The admission-built message states both sides of the verdict."""
        from repro.serve import AdmissionController, Batch, SvdRequest
        from repro import Solver
        from repro.tuning import shape_class

        config = Solver(backend="h100", precision="fp32").config
        ctrl = AdmissionController(config)
        cls = shape_class(64, config)
        req = SvdRequest(seq=1, n=64, cls=cls, t_submit=0.0, slo_s=1e-9)
        decision = ctrl.admit(Batch(cls=cls, requests=[req]), now=0.0)
        assert not decision.admitted
        ((shed_req, err),) = decision.shed
        assert shed_req is req
        msg = str(err)
        assert "shed" in msg
        assert "SLO" in msg and "1e-09" in msg
        assert "predicted" in msg
        assert f"{err.predicted_s:.6g}" in msg
        assert err.slo_s == 1e-9

    def test_capacity_shed_chains_the_cause(self):
        """Infeasible-even-out-of-core sheds keep the CapacityError cause."""
        from repro.serve import AdmissionController, Batch, SvdRequest
        from repro import Solver
        from repro.tuning import shape_class

        config = Solver(backend="h100", precision="fp64").config
        # budget below one 64x64 fp64 working set: nothing can ever run
        ctrl = AdmissionController(config, mem_budget_bytes=1024.0)
        cls = shape_class(64, config)
        req = SvdRequest(seq=1, n=64, cls=cls, t_submit=0.0)
        decision = ctrl.admit(Batch(cls=cls, requests=[req]), now=0.0)
        assert not decision.admitted
        ((_, err),) = decision.shed
        assert isinstance(err, ShedError)
        assert err.predicted_s is None
        assert isinstance(err.__cause__, CapacityError)
        assert "out-of-core" in str(err)


def test_library_raises_only_repro_errors_for_bad_config():
    import numpy as np

    from repro.core import svdvals

    bad_calls = [
        lambda: svdvals(np.zeros((4, 5))),
        lambda: svdvals(np.zeros((4, 4)), backend="nope"),
        lambda: svdvals(np.zeros((4, 4)), backend="mi250", precision="fp16"),
    ]
    for call in bad_calls:
        with pytest.raises(ReproError):
            call()


class TestNonIntegerArguments:
    """Counts that are not integers raise a typed error up front."""

    @pytest.fixture
    def solver(self):
        from repro import Solver

        return Solver("h100", "fp32")

    @pytest.mark.parametrize(
        "kwargs,exc",
        [
            ({"n": 2.5}, ShapeError),
            ({"batch": 2.5}, ShapeError),
            ({"streams": 2.0}, InvalidParamsError),
            ({"ngpu": 2.5}, InvalidParamsError),
            ({"ngpu": None}, InvalidParamsError),
            ({"nodes": 2.0}, InvalidParamsError),
            ({"rank": 4.5}, InvalidParamsError),
            ({"out_of_core": True, "oc_budget_gb": "1"}, InvalidParamsError),
        ],
    )
    def test_predict(self, solver, kwargs, exc):
        kwargs = dict(kwargs)
        n = kwargs.pop("n", 256)
        with pytest.raises(exc, match="must be"):
            solver.predict(n, **kwargs)

    def test_numpy_integers_accepted(self, solver):
        import numpy as np

        ref = solver.predict(256, batch=4, streams=2)
        got = solver.predict(np.int64(256), batch=np.int32(4),
                             streams=np.int64(2))
        assert got.total_s == ref.total_s

    @pytest.mark.parametrize("method", ["tune", "plan"])
    def test_tune_and_plan(self, solver, method):
        with pytest.raises(ShapeError, match="must be an integer"):
            getattr(solver, method)(2.5)

    def test_plan_shape_tuple(self, solver):
        with pytest.raises(ShapeError, match="must be an integer"):
            solver.plan((64, 64.0))


class TestInputDtypes:
    """Non-real inputs raise a typed error at every numeric front door."""

    @pytest.mark.parametrize("dtype", ["complex64", "complex128", "O", "U8"])
    def test_non_real_dtypes_rejected(self, dtype):
        square = np.eye(32).astype(dtype)
        rect = np.ones((40, 20)).astype(dtype)
        solver, auto = Solver("h100", "fp32"), Solver("h100")
        calls = [
            lambda: solver.solve(square),
            lambda: auto.solve(square),
            lambda: solver.solve(square[None].repeat(2, 0)),
            lambda: solver.solve(rect),
            lambda: solver.svd(square),
            lambda: solver.eigh(square),
            lambda: solver.svd_lowrank(rect, 4),
        ]
        for call in calls:
            with pytest.raises(
                UnsupportedPrecisionError, match=re.escape(str(np.dtype(dtype)))
            ):
                call()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.bool_])
    def test_integer_and_bool_inputs_still_solve(self, dtype):
        A = (np.arange(64).reshape(8, 8) % 3).astype(dtype)
        ref = np.linalg.svd(A.astype(np.float64), compute_uv=False)
        got = Solver("h100").solve(A)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_ragged_stack(self):
        with pytest.raises(ShapeError, match="square and equal-size"):
            Solver("h100", "fp32").solve([np.eye(4), np.eye(5)])
