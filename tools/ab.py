"""Paired A/B timing of ``run_experiment`` from two source trees in one process.

Usage, from the root of a checkout:

    python3 tools/ab.py --base ../parent/src/riscf --new src/riscf \
        --workload closed_form_sweep --rounds 100

Each tree is a ``riscf`` package directory, loaded under its own package
name, so both must import their sibling modules relatively. The workload's
spec comes from ``bench/workloads.write_spec``; ``--tiny`` takes its
self-test size. Both trees run one warm-up call, then each round runs one
call per tree on the same seed (seeds ``--seed`` upward), the tree that
goes first alternating from round to round. A round's ratio is the new
tree's wall time over the base tree's; alternating pairs cancel the drift
of a shared, noisy machine that separate benchmark runs cannot resolve.
A round in which either call raises is counted as failed and has no ratio.

Printed, one ``key value`` pair per line: the workload, the round count,
the failed rounds, each tree's median call time in seconds, the median
and quartiles of the ratio, the rounds the new tree won, and the rounds
whose ``results.csv`` bytes agree between the trees.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tree(package_dir: Path, name: str):
    """Import the package in ``package_dir`` as ``name``; return its experiment module."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    if spec is None or spec.loader is None:
        raise ValueError(f"{package_dir} is not a package directory")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.experiment")


def timed_call(experiment, spec_path: Path, seed: int, out_dir: Path):
    """Wall time of one run and the bytes of its results.csv, or None if it raised.

    A run that raises, such as a drop whose shadow field is not PSD, is
    counted by the caller, as the benchmark counts it, and not retried.
    """
    start = time.perf_counter()
    try:
        experiment.run_experiment(spec_path, seed, out_dir)
    except Exception:  # a failed run is counted, not timed
        return None
    wall = time.perf_counter() - start
    return wall, (out_dir / "results.csv").read_bytes()


def parse_args(argv: list[str] | None, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="base riscf package dir")
    parser.add_argument("--new", required=True, type=Path, help="new riscf package dir")
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first round")
    parser.add_argument("--tiny", action="store_true", help="the self-test size")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import SPECS, write_spec

    args = parse_args(argv, SPECS)
    trees = {
        "base": load_tree(args.base.resolve(), "riscf_ab_base"),
        "new": load_tree(args.new.resolve(), "riscf_ab_new"),
    }
    times: dict[str, list[float]] = {side: [] for side in trees}
    ratios, identical, failed = [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        spec_path = write_spec(args.workload, args.tiny, work)
        for side, experiment in trees.items():
            timed_call(experiment, spec_path, args.seed, work / side)
        for index in range(args.rounds):
            seed = args.seed + index
            order = ("base", "new") if index % 2 == 0 else ("new", "base")
            calls = {
                side: timed_call(trees[side], spec_path, seed, work / side) for side in order
            }
            if None in calls.values():
                failed += 1
                continue
            for side, (wall, _) in calls.items():
                times[side].append(wall)
            ratios.append(calls["new"][0] / calls["base"][0])
            identical += calls["new"][1] == calls["base"][1]
    if len(ratios) < 2:
        raise SystemExit(f"only {len(ratios)} of {args.rounds} rounds completed")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"workload {args.workload}")
    print(f"rounds {args.rounds}")
    print(f"failed_rounds {failed}")
    for side in trees:
        print(f"{side}_s_p50 {statistics.median(times[side]):.6g}")
    print(f"ratio_p50 {median:.4f}")
    print(f"ratio_q1 {q1:.4f}")
    print(f"ratio_q3 {q3:.4f}")
    print(f"new_wins {sum(r < 1.0 for r in ratios)}")
    print(f"identical_csv {identical}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
