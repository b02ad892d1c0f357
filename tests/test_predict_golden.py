"""Golden pin of ``Solver.predict`` and ``Solver.tune`` values, per route.

Every combination of workload x placement x streams x out-of-core on two
handles is priced and fingerprinted: the result type plus the sha256 of
``repr(dataclasses.asdict(result))``, or the exception class and message
where the combination is rejected.  ``tests/data/predict_golden.json`` was
written by the predict implementation that preceded the single-pipeline
``Solver.predict``; any refactor of the pipeline must reproduce it byte for
byte.  Regenerate only on a deliberate model change with::

    PYTHONPATH=src python tests/test_predict_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from repro import Solver, Topology

GOLDEN = Path(__file__).parent / "data" / "predict_golden.json"

HANDLES = (("h100", "fp32"), ("mi250", "fp64"))
SIZES = (1024, 4096)
WORKLOADS = {
    "svd": {},
    "batch8": {"batch": 8},
    "eigh": {"workload": "eigh"},
    "rank64": {"rank": 64},
}
PLACEMENTS = ("single", "ngpu4", "ngpu4_nodes2", "uniform4", "hetero4")
STREAMS = (1, 2)
OUT_OF_CORE = (False, True)


def _fingerprint(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _placement(name: str, device: str) -> dict:
    return {
        "single": {},
        "ngpu4": {"ngpu": 4},
        "ngpu4_nodes2": {"ngpu": 4, "nodes": 2},
        "uniform4": {"topology": Topology.uniform(device, 4)},
        "hetero4": {"topology": Topology(("h100", "h100", "a100", "a100"))},
    }[name]


def _budget_gb(n: int, batch: int, sizeof: int) -> float:
    """A window below the in-core footprint, so the rewrite streams.

    A batch keeps half its problems resident (enough for two chains), a
    single matrix a quarter of its tile rows.
    """
    return (0.5 if batch > 1 else 0.25) * batch * n * n * sizeof / 2**30


def _record(call) -> dict:
    try:
        result = call()
    except Exception as exc:  # the rejection itself is pinned
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "type": type(result).__name__,
        "sha256": _fingerprint(dataclasses.asdict(result)),
    }


def compute_golden() -> dict:
    """Fingerprint every combination of the grid, plus two tune plans."""
    out = {}
    for backend, precision in HANDLES:
        solver = Solver(backend, precision)
        device = solver.backend.device.name
        sizeof = solver.precision.sizeof
        for n in SIZES:
            for wname, wkw in WORKLOADS.items():
                for pname in PLACEMENTS:
                    for streams in STREAMS:
                        for ooc in OUT_OF_CORE:
                            kwargs = dict(wkw, streams=streams)
                            kwargs.update(_placement(pname, device))
                            if ooc:
                                kwargs["out_of_core"] = True
                                kwargs["oc_budget_gb"] = _budget_gb(
                                    n, wkw.get("batch", 1), sizeof
                                )
                            label = (
                                f"{backend}/{precision}/n{n}/{wname}/{pname}"
                                f"/s{streams}/{'ooc' if ooc else 'incore'}"
                            )
                            out[label] = _record(
                                lambda: solver.predict(n, **kwargs)
                            )
        plan = solver.tune(1024, budget=32)
        out[f"{backend}/{precision}/tune1024"] = {
            "candidates": len(plan.candidates),
            "sha256": _fingerprint(
                [dataclasses.asdict(c) for c in plan.candidates]
            ),
        }
    return out


def test_predict_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = compute_golden()
    assert sorted(fresh) == sorted(golden)
    drift = [k for k in golden if fresh[k] != golden[k]]
    assert not drift, f"{len(drift)} routes drifted, e.g. {drift[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_predict_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
