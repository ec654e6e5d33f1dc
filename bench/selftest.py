"""Self-test of the benchmark's own checks.

Run from the root of a checkout:

    python3 bench/selftest.py

It shows that every output check accepts a real run and rejects a
deliberately corrupted ``results.csv`` or ``manifest.json``, that the
determinism check catches a changed CSV, that a tiny-size pass of
``run.py`` prints every metric that ``BENCHMARK.json`` names for every
workload, and that ``run.py`` fails without printing a result in a
directory that holds only the benchmark.  Exits 1 if any of that fails.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run
import workloads
from workloads import CheckError

SEED = 7


def write_rows(path: Path, header: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _set(column, value, predicate=lambda row: True):
    """Overwrite ``column`` in the first row that satisfies ``predicate``."""

    def corrupt(header, rows, manifest):
        row = next(r for r in rows if predicate(r))
        row[column] = value(row) if callable(value) else value
        return header, rows, manifest

    return corrupt


def _drop_last_row(header, rows, manifest):
    return header, rows[:-1], manifest


def _rename_column(header, rows, manifest):
    def rename(name):
        return "se_closed_x" if name == "se_closed" else name

    rows = [{rename(k): v for k, v in row.items()} for row in rows]
    return [rename(c) for c in header], rows, manifest


def _manifest(key, value):
    def corrupt(header, rows, manifest):
        manifest = dict(manifest)
        if value is None:
            manifest.pop(key)
        else:
            manifest[key] = value
        return header, rows, manifest

    return corrupt


def _lower_maxmin_floor(header, rows, manifest):
    scenario = rows[0]["scenario"]
    group = [r for r in rows if r["scenario"] == scenario and r["mode_combiner"] == "lsfd"]
    floor = min(float(r["se_closed"]) for r in group if r["mode_power"] == "full")
    for r in group:
        if r["mode_power"] == "maxmin":
            r["se_closed"] = repr(0.5 * floor)
            break
    return header, rows, manifest


COMMON = {
    "missing row": _drop_last_row,
    "renamed column": _rename_column,
    "NaN SE": _set("se_closed", "nan"),
    "negative SE": _set("se_closed", "-0.25"),
    "infinite SE": _set("se_closed", "inf"),
    "empty SE": _set("se_closed", ""),
    "manifest row count": _manifest("rows", 1),
    "manifest seed": _manifest("seed", SEED + 1),
    "manifest mc_trials": _manifest("mc_trials", 12345),
    "manifest modes": _manifest("modes", []),
    "manifest without warnings": _manifest("closed_vs_mc_warnings", None),
}

SPECIFIC = {
    "closed_form_sweep": {
        "MR above LSFD": _set(
            "se_closed",
            lambda r: repr(float(r["se_closed"]) + 1.0),
            lambda r: r["mode_combiner"] == "mr",
        ),
        "se_mc without MC": _set("se_mc", "1.0"),
    },
    "mc_oracle": {
        "empty MC SE": _set("se_mc", ""),
        "negative MC SE": _set("se_mc", "-1"),
    },
    "power_control": {
        "max-min floor below full power": _lower_maxmin_floor,
    },
}


class SelfTest:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.failures.append(what)

    def rejects(self, check, what: str) -> None:
        try:
            check()
        except CheckError as exc:
            self.expect(True, f"{what}: rejected ({exc})")
        else:
            self.expect(False, f"{what}: not rejected")

    def output_checks(self, workdir: Path) -> None:
        from riscf.experiment import CSV_COLUMNS, run_experiment

        for workload in workloads.SPECS:
            spec = workloads.build_spec(workload, tiny=True)
            spec_path = workloads.write_spec(workload, True, workdir)
            out = workdir / workload
            run_experiment(spec_path, SEED, out)
            raw, header, rows, manifest = workloads.read_outputs(out)

            def check(header=header, rows=rows, manifest=manifest):
                workloads.check_run(workload, spec, SEED, header, rows, manifest, CSV_COLUMNS)

            try:
                check()
                self.expect(True, f"{workload}: real output accepted")
            except CheckError as exc:
                self.expect(False, f"{workload}: real output rejected: {exc}")
            cases = {**COMMON, **SPECIFIC[workload]}
            for name, corrupt in cases.items():
                # Corrupt the files on disk, then read them back as the benchmark does.
                h, r, m = corrupt(
                    list(header), [dict(row) for row in rows], json.loads(json.dumps(manifest))
                )
                write_rows(out / "results.csv", h, r)
                (out / "manifest.json").write_text(json.dumps(m))
                _, h2, r2, m2 = workloads.read_outputs(out)
                self.rejects(lambda: check(h2, r2, m2), f"{workload}: {name}")
            if spec["mc_trials"] > 0:
                gaps = workloads.mc_gaps(rows)
                workloads.check_pooled_gap(gaps)
                self.expect(True, f"{workload}: real closed-vs-MC gap accepted")
                self.rejects(
                    lambda: workloads.check_pooled_gap([g + workloads.MC_GAP_BOUND for g in gaps]),
                    f"{workload}: closed-vs-MC gap above bound",
                )

    def determinism_check(self, workdir: Path) -> None:
        from riscf import experiment

        workload = "power_control"
        spec = workloads.build_spec(workload, tiny=True)
        spec_path = workloads.write_spec(workload, True, workdir)
        runner = run.Runner(workload, spec, spec_path, workdir / "determinism")
        runner.call(SEED)
        runner.call(SEED)
        self.expect(not runner.errors, f"determinism: identical reruns accepted {runner.errors}")

        def changed_csv(spec_path, seed, out_dir):
            experiment.run_experiment(spec_path, seed, out_dir)
            with (Path(out_dir) / "results.csv").open("a") as handle:
                handle.write("\n")

        runner.experiment = SimpleNamespace(
            run_experiment=changed_csv, CSV_COLUMNS=experiment.CSV_COLUMNS
        )
        runner.call(SEED)
        self.expect(
            len(runner.errors) == 1 and "digest" in runner.errors[0],
            f"determinism: changed CSV rejected ({runner.errors})",
        )

    def tiny_pass(self) -> None:
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.expect(
            [w["name"] for w in declared["workloads"]] == list(workloads.SPECS),
            "BENCHMARK.json lists the workloads of workloads.SPECS",
        )
        wanted = {
            0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]},
        }
        for workload in workloads.SPECS:
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=170,
                )
                what = f"tiny {workload} --trace {trace}"
                try:
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    self.expect(False, f"{what}: no JSON result (exit {done.returncode})")
                    continue
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.expect(
                    done.returncode == 0
                    and set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["correct"] is True
                    and units == wanted[trace],
                    f"{what}: prints every metric of BENCHMARK.json with its unit",
                )

    def bare_directory(self, workdir: Path) -> None:
        bare = workdir / "bare"
        shutil.copytree(
            run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__")
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "mc_oracle",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.expect(
            done.returncode != 0 and done.stdout.strip() == "",
            f"bare directory: exit {done.returncode} without a result",
        )


def main() -> int:
    if not (run.SRC / "riscf" / "__init__.py").is_file():
        print(f"riscf sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    test = SelfTest()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        test.output_checks(workdir)
        test.determinism_check(workdir)
        test.tiny_pass()
        test.bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(test.failures)} self-test failure(s)")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
