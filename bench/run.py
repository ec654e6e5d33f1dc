"""End-to-end and per-layer benchmark of ``riscf run``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed_form_sweep --seed 1 --seconds 40 --trace 0

One operation is one ``riscf.experiment.run_experiment`` call on the
workload's generated spec with a seed derived from ``--seed``.  The load
is a closed loop with one client: one process, ``threads=1``, BLAS at its
library default.  A call that raises counts as failed and is not retried.
Every completed call's ``results.csv`` and ``manifest.json`` are checked.

``--trace 0`` runs a fixed list of derived seeds 0 .. n-1 (``SPECS_PER_RUN``)
in turn: one full pass, then further passes for the rest of ``--seconds``.
It reports the end-to-end metrics.  ``--trace 1`` repeats derived seed 0,
alternating an untraced and a traced call, and reports per-layer self
times and counts of one call (see ``tracer.py``) plus the tracing
overhead.  Either way derived seed 0 also runs once first, as a warm-up.
Every repeated call of a seed must reproduce its CSV digest byte for byte.

``attempted`` and ``failed`` count distinct (spec, seed) operations, so
they depend on ``--seed`` only and not on how many passes fit in the time.

The last line of stdout is the JSON result; the line before it records
the environment, the CSV digest, the checks and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5

#: Distinct derived seeds per ``--trace 0`` run.  One pass over them takes
#: under half of a 40 s run on a shared 2-core Xeon VM, so every seed is
#: timed at least twice there.
SPECS_PER_RUN = {"closed_form_sweep": 3, "mc_oracle": 6, "power_control": 32}

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "run_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "runs_ok_frac": "ratio",
}

# (metric, unit, source, key): source "self", "calls" or "failed" reads
# the span ``key``; "counter" reads a tracer counter; "run" a value the
# benchmark computes from the traced call and the overhead pairs.
PER_LAYER = [
    ("scenario.generate_scenario.self_s", "s", "self", "scenario.generate_scenario"),
    ("scenario.generate_scenario.failed", "count", "failed", "scenario.generate_scenario"),
    ("pipeline.build_link_statistics.calls", "count", "calls", "pipeline.build_link_statistics"),
    ("pipeline.build_link_statistics.self_s", "s", "self", "pipeline.build_link_statistics"),
    ("pipeline.direct_link_covariances.self_s", "s", "self", "pipeline.direct_link_covariances"),
    ("correlation.nlos_covariances.self_s", "s", "self", "correlation.nlos_covariances"),
    (
        "correlation.nlos_covariances.out_bytes",
        "bytes-computed",
        "counter",
        "correlation.nlos_covariances.out_bytes",
    ),
    ("channel.aggregated_covariance.self_s", "s", "self", "channel.aggregated_covariance"),
    ("channel.ChannelSampler.init_s", "s", "self", "channel.ChannelSampler.init"),
    ("channel.ChannelSampler.draw_s", "s", "self", "channel.ChannelSampler.draw"),
    ("emi.emi_noise_covariance.self_s", "s", "self", "emi.emi_noise_covariance"),
    ("emi.sample_emi.self_s", "s", "self", "emi.sample_emi"),
    ("estimation.estimation_statistics.self_s", "s", "self", "estimation.estimation_statistics"),
    (
        "estimation.synthesize_pilot_observation.self_s",
        "s",
        "self",
        "estimation.synthesize_pilot_observation",
    ),
    ("estimation.mmse_estimate.self_s", "s", "self", "estimation.mmse_estimate"),
    ("se.build_sinr_terms.self_s", "s", "self", "se.build_sinr_terms"),
    ("se.optimal_lsfd_weights.self_s", "s", "self", "se.optimal_lsfd_weights"),
    ("se.sinr_lsfd_closed_form.self_s", "s", "self", "se.sinr_lsfd_closed_form"),
    ("power.maxmin_power_control.self_s", "s", "self", "power.maxmin_power_control"),
    ("power.maxmin_iterations", "count", "counter", "power.maxmin_iterations"),
    ("simplex.feasible_point.calls", "count", "calls", "simplex.feasible_point"),
    ("simplex.feasible_point.self_s", "s", "self", "simplex.feasible_point"),
    ("simplex.pivots", "count", "counter", "simplex.pivots"),
    ("montecarlo.estimate_uatf_terms.self_s", "s", "self", "montecarlo.estimate_uatf_terms"),
    ("montecarlo.RunningMoments.update_s", "s", "self", "montecarlo.RunningMoments.update"),
    ("linalg.psd_factor.calls", "count", "calls", "linalg.psd_factor"),
    ("linalg.psd_factor.self_s", "s", "self", "linalg.psd_factor"),
    ("linalg.solve_hermitian.calls", "count", "calls", "linalg.solve_hermitian"),
    ("linalg.solve_hermitian.self_s", "s", "self", "linalg.solve_hermitian"),
    ("experiment.run_experiment.self_s", "s", "self", "experiment.run_experiment"),
    ("experiment.closed_vs_mc_warnings", "count", "run", "closed_vs_mc_warnings"),
    ("montecarlo.closed_vs_mc_gap_p50", "ratio", "run", "closed_vs_mc_gap_p50"),
    ("trace.tasks_per_s_untraced", "1/s", "run", "tasks_per_s_untraced"),
    ("trace.tasks_per_s_traced", "1/s", "run", "tasks_per_s_traced"),
    ("trace.overhead_frac", "ratio", "run", "overhead_frac"),
]

_SETUP_CHILD = """\
import time
start = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import riscf.experiment
import workloads
riscf.experiment.load_run_spec(workloads.write_spec({workload!r}, {tiny!r}, {workdir!r}))
print(repr(time.perf_counter() - start))
"""


def parse_args(argv: list[str] | None, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken specs, for the self-test only"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def derived_seed(workload: str, seed: int, index: int) -> int:
    """Run seed number ``index`` of a workload, a function of ``--seed`` only."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class SetupTimer:
    """Times fresh interpreters that import riscf and generate and load the spec.

    Samples are spread over the measured loop rather than taken back to
    back, so a slow spell of the machine does not decide the median alone.
    """

    def __init__(self, workload: str, tiny: bool, workdir: Path) -> None:
        self.code = _SETUP_CHILD.format(
            src=str(SRC), bench=str(BENCH), workload=workload, tiny=tiny, workdir=str(workdir)
        )
        self.samples: list[float] = []

    def sample(self) -> None:
        done = subprocess.run(
            [sys.executable, "-c", self.code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def sample_due(self, progress: float) -> None:
        """Take the next sample once ``progress`` (0 to 1) of the loop has passed."""
        if len(self.samples) < min(SETUP_REPEATS, 1 + int(progress * SETUP_REPEATS)):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if one is loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    )
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "riscf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_probe(seconds: float = 0.3) -> dict:
    """Times of a fixed pure-Python loop, to read the machine's current speed.

    On a shared machine the speed of identical work drifts over seconds to
    minutes; comparing this probe across runs shows how much of a spread
    comes from the machine rather than from riscf.
    """
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return {"min_ms": min(samples), "p50_ms": statistics.median(samples), "n": len(samples)}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload_seed": seed,
        "loadavg": list(os.getloadavg()),
        "cpu_probe": cpu_probe(),
    }


@dataclass
class Call:
    """Outcome of one run_experiment call."""

    seed: int
    wall_s: float
    ok: bool
    digest: str
    error: str = ""
    gaps: list[float] = field(default_factory=list)
    warnings: int = 0


class Runner:
    """Runs a workload's spec and checks every output."""

    def __init__(self, workload: str, spec: dict, spec_path: Path, out_dir: Path) -> None:
        from riscf import experiment

        self.experiment = experiment
        self.workload = workload
        self.spec = spec
        self.spec_path = spec_path
        self.out_dir = out_dir
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self.calls: list[Call] = []

    def call(self, seed: int, tracer=None) -> Call:
        """One timed run_experiment call, then its output checks."""
        for name in ("results.csv", "manifest.json"):
            (self.out_dir / name).unlink(missing_ok=True)
        run = self.experiment.run_experiment
        if tracer is not None:
            run = tracer.wrap("experiment.run_experiment", run)
        start = time.perf_counter()
        try:
            run(self.spec_path, seed, self.out_dir)
        except Exception as exc:  # a failed run is counted, not retried
            result = Call(
                seed,
                time.perf_counter() - start,
                ok=False,
                digest=f"failed:{type(exc).__name__}",
                error=f"{type(exc).__name__}: {exc}",
            )
        else:
            wall = time.perf_counter() - start
            result = self._check(seed, wall)
        previous = self.digests.setdefault(seed, result.digest)
        if previous != result.digest:
            self.errors.append(
                f"seed {seed}: results.csv digest {result.digest} differs from an earlier "
                f"run of the same seed ({previous})"
            )
        self.calls.append(result)
        return result

    def _check(self, seed: int, wall: float) -> Call:
        wl = workloads
        try:
            raw, header, rows, manifest = wl.read_outputs(self.out_dir)
        except (OSError, ValueError) as exc:
            self.errors.append(f"seed {seed}: unreadable output: {exc}")
            return Call(seed, wall, ok=True, digest="unreadable")
        result = Call(seed, wall, ok=True, digest=wl.digest(raw))
        try:
            wl.check_run(
                self.workload, self.spec, seed, header, rows, manifest,
                self.experiment.CSV_COLUMNS,
            )
            if self.spec["mc_trials"] > 0:
                result.gaps = wl.mc_gaps(rows)
            result.warnings = len(manifest["closed_vs_mc_warnings"])
        except (wl.CheckError, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        return result

    def finish_checks(self) -> float | None:
        """Run-level checks; returns the pooled closed-vs-MC gap when MC ran."""
        if self.spec["mc_trials"] == 0:
            return None
        gaps = [g for c in self.calls for g in c.gaps]
        try:
            return workloads.check_pooled_gap(gaps)
        except workloads.CheckError as exc:
            self.errors.append(str(exc))
            return statistics.median(gaps) if gaps else None


def timed_loop(seconds: float, step, between, min_steps: int = 1) -> None:
    """Call ``step`` at least ``min_steps`` times, then until the next call
    would end past ``seconds``.

    ``between(progress)`` runs after each step, outside its timing.
    """
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        between(elapsed / seconds)
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def outcomes(calls: list[Call]) -> dict[int, tuple[bool, float]]:
    """Per seed: whether it completed, and the median wall time of its calls."""
    walls: dict[int, list[float]] = {}
    ok: dict[int, bool] = {}
    for c in calls:
        walls.setdefault(c.seed, []).append(c.wall_s)
        ok[c.seed] = ok.get(c.seed, True) and c.ok
    return {seed: (ok[seed], statistics.median(w)) for seed, w in walls.items()}


def end_to_end(runner: Runner, tasks: int, setup_s: float) -> dict:
    """Metrics of one pass over the seeds, each call at its seed's median time."""
    per_seed = outcomes(runner.calls[1:])  # the warm-up call is not measured
    ok_walls = [wall for ok, wall in per_seed.values() if ok]
    return {
        "tasks_per_s": tasks * len(ok_walls) / sum(wall for _, wall in per_seed.values()),
        "run_s_p50": statistics.median(ok_walls or [w for _, w in per_seed.values()]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "runs_ok_frac": len(ok_walls) / len(per_seed),
    }


def per_layer(traced: list[Call], untraced: list[Call], snapshots: list[dict], tasks: int):
    """Per-layer metrics of one traced call, and why any is absent."""
    notes = {}
    counts = [
        ({k: v["calls"] for k, v in s["spans"].items()}, s["counters"]) for s in snapshots
    ]
    if any(c != counts[0] for c in counts):
        notes["repeatability"] = "span counts differ between traced repetitions"
    first = snapshots[0]
    run_values = {
        "closed_vs_mc_warnings": traced[0].warnings,
        "closed_vs_mc_gap_p50": statistics.median(traced[0].gaps) if traced[0].gaps else 0.0,
        "tasks_per_s_untraced": tasks / statistics.median(c.wall_s for c in untraced),
        "tasks_per_s_traced": tasks / statistics.median(c.wall_s for c in traced),
    }
    run_values["overhead_frac"] = (
        run_values["tasks_per_s_untraced"] / run_values["tasks_per_s_traced"] - 1.0
    )
    if not traced[0].gaps:
        notes["montecarlo.closed_vs_mc_gap_p50"] = "absent: the workload runs no Monte Carlo"
    if not traced[0].ok:
        notes["traced_call"] = f"the traced call failed: {traced[0].error}"
    metrics = {}
    for name, unit, source, key in PER_LAYER:
        if source == "run":
            value = run_values[key]
        elif source == "counter":
            if key not in first["counters"]:
                notes[name] = "absent: no call that feeds this counter ran in this workload"
            value = first["counters"].get(key, 0)
        else:
            spans = [s["spans"].get(key) for s in snapshots]
            if spans[0] is None:
                notes.setdefault(name, f"absent: span {key} did not run in this workload")
                value = 0
            elif source == "self":
                value = statistics.median(s["self_s"] for s in spans)
            else:
                value = spans[0][source]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "riscf" / "__init__.py").is_file():
        print(f"riscf sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riscf

    if Path(riscf.__file__).resolve().parent != SRC / "riscf":
        print(f"imported riscf from {riscf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.SPECS)
    spec = workloads.build_spec(args.workload, args.tiny)
    tasks = workloads.tasks_per_run(spec)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        spec_path = workloads.write_spec(args.workload, args.tiny, workdir)
        setup = SetupTimer(args.workload, args.tiny, workdir)
        setup.sample()
        env = environment(args.seed)
        runner = Runner(args.workload, spec, spec_path, workdir / "out")
        seed0 = derived_seed(args.workload, args.seed, 0)
        runner.call(seed0)  # warm-up and determinism reference

        notes: dict = {}
        if args.trace == 0:
            count = 2 if args.tiny else SPECS_PER_RUN[args.workload]
            seeds = itertools.cycle(
                [derived_seed(args.workload, args.seed, i) for i in range(count)]
            )
            timed_loop(
                args.seconds,
                lambda: runner.call(next(seeds)),
                setup.sample_due,
                min_steps=count,
            )
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in end_to_end(runner, tasks, setup.median()).items()
            }
        else:
            tracer = Tracer()
            untraced, traced, snapshots = [], [], []

            def pair() -> None:
                untraced.append(runner.call(seed0))
                tracer.reset()
                with tracer:
                    traced.append(runner.call(seed0, tracer))
                snapshots.append(tracer.snapshot())

            timed_loop(args.seconds, pair, lambda progress: None)
            metrics, notes = per_layer(traced, untraced, snapshots, tasks)
            if "repeatability" in notes:
                runner.errors.append(notes["repeatability"])
            if tracer.missing:
                notes["unpatched"] = tracer.missing
            notes["spans"] = snapshots[0]

        pooled_gap = runner.finish_checks()
        measured = runner.calls[1:]
        per_seed = outcomes(measured)
        failures: dict[str, int] = {}
        for c in measured:
            if not c.ok:
                failures[c.error] = failures.get(c.error, 0) + 1
        env["loadavg_end"] = list(os.getloadavg())
        env["cpu_probe_end"] = cpu_probe()
        details = {
            "workload": args.workload,
            "tiny": args.tiny,
            "trace": args.trace,
            "env": env,
            "spec": spec,
            "tasks_per_run": tasks,
            "csv_digest": {"derived_seed": seed0, "sha256": runner.digests[seed0]},
            "call_wall_s": [[c.seed % 10**6, round(c.wall_s, 6)] for c in measured],
            "setup_s": setup.samples,
            "failures": failures,
            "closed_vs_mc": {
                "pooled_gap_p50": pooled_gap,
                "bound": workloads.MC_GAP_BOUND,
                "warnings": sum(c.warnings for c in runner.calls),
            },
            "check_errors": runner.errors,
            "notes": notes,
        }
        result = {
            "correct": not runner.errors,
            "attempted": len(per_seed),
            "failed": sum(not ok for ok, _ in per_seed.values()),
            "metrics": metrics,
        }
        print(json.dumps(details, sort_keys=True))
        print(json.dumps(result))
        if runner.errors:
            print("output checks failed:\n  " + "\n  ".join(runner.errors), file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
