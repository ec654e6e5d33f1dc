"""Outside-in tracing of riscf's layers.

The tracer times public functions without touching the package: for the
duration of a ``with`` block it replaces each name below in the namespace
of the module that calls it (for example ``riscf.pipeline.aggregated_covariance``)
with a wrapper that records a span, then restores the originals.  A span's
self time is its duration minus the time covered by the spans it caused.
Counters are read from return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, fields

import numpy as np


def _iterations(result) -> int:
    return int(getattr(result, "iterations", 0))


def _array_bytes(result) -> int:
    return sum(
        getattr(result, f.name).nbytes
        for f in fields(result)
        if isinstance(getattr(result, f.name), np.ndarray)
    )


#: (calling module, name looked up there, span name, counter fed by the result)
FUNCTIONS = [
    ("riscf.experiment", "generate_scenario", "scenario.generate_scenario", None),
    ("riscf.experiment", "build_link_statistics", "pipeline.build_link_statistics", None),
    ("riscf.experiment", "build_sinr_terms", "se.build_sinr_terms", None),
    ("riscf.experiment", "optimal_lsfd_weights", "se.optimal_lsfd_weights", None),
    ("riscf.experiment", "sinr_lsfd_closed_form", "se.sinr_lsfd_closed_form", None),
    ("riscf.experiment", "estimate_uatf_terms", "montecarlo.estimate_uatf_terms", None),
    (
        "riscf.experiment",
        "maxmin_power_control",
        "power.maxmin_power_control",
        ("power.maxmin_iterations", _iterations),
    ),
    ("riscf.pipeline", "direct_link_covariances", "pipeline.direct_link_covariances", None),
    (
        "riscf.pipeline",
        "nlos_covariances",
        "correlation.nlos_covariances",
        ("correlation.nlos_covariances.out_bytes", _array_bytes),
    ),
    ("riscf.pipeline", "aggregated_covariance", "channel.aggregated_covariance", None),
    ("riscf.pipeline", "emi_noise_covariance", "emi.emi_noise_covariance", None),
    ("riscf.pipeline", "estimation_statistics", "estimation.estimation_statistics", None),
    ("riscf.power", "optimal_lsfd_weights", "se.optimal_lsfd_weights", None),
    ("riscf.power", "feasible_point", "simplex.feasible_point", ("simplex.pivots", _iterations)),
    ("riscf.montecarlo", "sample_emi", "emi.sample_emi", None),
    (
        "riscf.montecarlo",
        "synthesize_pilot_observation",
        "estimation.synthesize_pilot_observation",
        None,
    ),
    ("riscf.montecarlo", "mmse_estimate", "estimation.mmse_estimate", None),
    ("riscf.scenario", "psd_factor", "linalg.psd_factor", None),
    ("riscf.channel", "psd_factor", "linalg.psd_factor", None),
    ("riscf.emi", "psd_factor", "linalg.psd_factor", None),
    ("riscf.se", "solve_hermitian", "linalg.solve_hermitian", None),
    ("riscf.estimation", "solve_hermitian", "linalg.solve_hermitian", None),
]

#: (defining module, class, method, span name)
METHODS = [
    ("riscf.channel", "ChannelSampler", "__init__", "channel.ChannelSampler.init"),
    ("riscf.channel", "ChannelSampler", "draw", "channel.ChannelSampler.draw"),
    ("riscf.montecarlo", "RunningMoments", "update", "montecarlo.RunningMoments.update"),
]


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Aggregates spans and counters; patches riscf while entered."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counters = {}, {}

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                stats = self.spans.setdefault(name, SpanStats())
                stats.calls += 1
                stats.failed += failed
                stats.self_s += duration - children[0]
                stats.total_s += duration
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(result)
            return result

        return traced

    def _patch(self, owner, attr: str, span: str, counter=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, counter))

    def __enter__(self) -> "Tracer":
        self.missing = []
        for module_name, attr, span, counter in FUNCTIONS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, span, counter)
            else:
                self.missing.append(f"{module_name}.{attr}")
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is not None and method in cls.__dict__:
                self._patch(cls, method, span)
            else:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def snapshot(self) -> dict:
        """Per-span calls, failures, self and total seconds, plus counters."""
        out = {
            name: {"calls": s.calls, "failed": s.failed, "self_s": s.self_s, "total_s": s.total_s}
            for name, s in sorted(self.spans.items())
        }
        return {"spans": out, "counters": dict(sorted(self.counters.items()))}
