"""aggdec benchmark: one seeded workload, measured for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload scripted-copy --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``.perfbench/spans-<workload>.npz``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The lines
before it record the environment, the sample counts and a digest of the
emitted token ids, so that a change in output shows between two commits.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import sys
from pathlib import Path

# One closed-loop client on a small machine should not race BLAS threads
# against itself. The pin only takes effect if it is set before numpy loads.
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pin": THREAD_PIN,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aggdec" / "__init__.py").is_file():
        print(f"aggdec sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, str(SRC))
    import aggdec

    if Path(aggdec.__file__).resolve().parent != SRC / "aggdec":
        print(f"imported aggdec from {aggdec.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print("env", json.dumps(environment(), sort_keys=True))
    m, factors, values = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"
    )
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    print(
        f"workload {args.workload} seed {args.seed} sentences {len(m.references)}"
        f" operations {m.attempted} failed {m.failed} digest {m.digest()}"
    )
    for reason, count in m.errors.items():
        print(f"failure {count}x: {reason}")
    decoded = sum(ref is not None for ref in m.references)
    print(f"samples: {decoded} sentences, {len(m.seconds['aggressive'])} timed operations")
    if factors:
        print(
            "machine factors " + " ".join(f"{k} {v:.4f}" for k, v in factors.items())
            + " (a time is divided by the factor of its statistic; raw = value x factor)"
        )
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": None if math.isnan(value) else value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
