"""Wall-clock benchmark of the ``repro`` program.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

``--workload`` is ``dense``, ``serve`` or ``plan`` (see ``BENCHMARK.json``
and ``perfbench/workloads.json``).  With ``--trace 0`` the last line of
standard output is one JSON object holding every end-to-end metric; with
``--trace 1`` the run spends half of ``--seconds`` untraced and half
traced, the last line holds every per-layer metric instead, and a Chrome
Trace Event file (open it in Perfetto) is written under
``perfbench/out/``.  The line before it stamps the environment.  The program is imported from
``src/`` of the same checkout; the process exits with status 2 and
prints no result if it is missing.
"""

from __future__ import annotations

import os

# One BLAS thread: the service's executor thread and the main thread then
# fit the two cores of the reference host, and LAPACK timings are not
# shared with other work.  Must be set before NumPy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit); bounds and directions live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("rel_err_max_eps", "eps"),
    ("lapack_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("dense", "serve", "plan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import dense
    import planning
    import serving
    import spans

    workload = {"dense": dense, "serve": serving, "plan": planning}[args.workload]
    tracer = spans.Tracer() if args.trace else None
    out = workload.run(args.seed, args.seconds, tracer)

    stamp = common.env_stamp(args.seed, args.workload)
    stamp["samples"] = out["samples"]
    stamp["reference_s"] = out["reference_s"]
    for failure in out["failures"][:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if args.trace:
        import layers

        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in layers.layer_metrics(
                tracer, out["layer_wall_s"], out["layer_extra"]
            ).items()
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        stamp["trace_events"] = spans.write_chrome_trace(
            path, tracer, out["op_spans"], stamp
        )
        stamp["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {name: {"value": out["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):  # only when every check failed
            entry["value"] = None
    print(json.dumps({"env": stamp}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
