"""Layer spans recorded from outside catspin, and the per-layer metrics
derived from them.

`install` wraps each module's public entry points where they are looked up
(`catspin.cli.build_operator_set`, `catspin.observables.compile_protocol`,
`catspin.dicke.apply_rotation`, which `apply_pulse` resolves at call time,
and `CompiledProtocol.evaluate` on the class).  Spans live in memory as
(id, parent, name, start, end, counts) and are written out when the run
ends; self times and counts are derived from the written spans.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; the parent of a span is the innermost open
    span of its thread, or, on a worker thread with nothing open, the
    innermost open span of the main thread (catspin's scan pool runs
    `evaluate` on worker threads)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, count=None, rss: bool = False):
        """fn timed as span `name`; count(args, kwargs, result, error)
        returns extra counts, rss adds the high-water RSS growth in MB."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            with self._lock:
                span = Span(len(self.spans), outer[-1].id if outer else None, name, 0.0)
                self.spans.append(span)
            stack.append(span)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if rss:
                    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                    span.counts["rss_growth_mb"] = grown / 1024
                if count is not None:
                    span.counts.update(count(args, kwargs, result, error))

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh]


# --- counts computed from argument shapes -------------------------------------


def _compile_counts(args, kwargs, result, error):
    spec, dims = args[0], args[1]
    dense = sum(1 for p in spec.pulses if p.kind == "rotate" and p.axis in ("x", "y"))
    # per x/y rotation: build U = V e^{-i angle lambda} V^H, then U @ acc,
    # two complex dim^3 products at 8 flops per multiply-add
    return {"gflop": dense * 16 * dims.dim**3 / 1e9}


def _evaluate_counts(args, kwargs, result, error):
    kernel, phis = args[0], args[1]
    cols = len(phis)
    return {"columns": cols,
            "gflop": len(kernel.segments) * 8 * kernel.dims.dim**2 * cols / 1e9}


def _requested_phis(name: str, args, kwargs, default_window: int) -> int:
    """phi points a scan call was asked for."""
    if name == "fringe_scan":
        return len(args[3])
    if name == "sensitivity_scan_mu":
        window = kwargs.get("phi_window")
        return len(args[3]) * (default_window if window is None else len(window))
    if name == "central_fringe_fwhm":
        return kwargs.get("n_points", args[5] if len(args) > 5 else 4001)
    return 1  # sensitivity_at


def _qpd_counts(args, kwargs, result, error):
    grid = args[1]
    return {"points": grid.thetas.size * grid.phis.size}


def _main_counts(args, kwargs, result, error):
    return {"failed": int(result != 0)}


def install(recorder: Recorder):
    """Wrap catspin's layer entry points so every call records a span."""
    import catspin.cli as cli
    import catspin.dicke as dicke
    import catspin.observables as observables
    import catspin.protocols as protocols
    from catspin.cavity import BudgetError

    def write_counts(args, kwargs, result, error):
        path = args[0]
        if error is not None or not os.path.exists(path):
            return {}
        return {"bytes": os.path.getsize(path), "files": 1}

    def budget_counts(args, kwargs, result, error):
        return {"budget_errors": int(isinstance(error, BudgetError))}

    default_window = len(observables.default_phi_window())
    wrap = recorder.wrap
    dicke.apply_rotation = wrap("dicke.apply_rotation", dicke.apply_rotation)
    protocols.CompiledProtocol.evaluate = wrap(
        "protocols.evaluate", protocols.CompiledProtocol.evaluate, _evaluate_counts)
    observables.compile_protocol = wrap(
        "protocols.compile_protocol", observables.compile_protocol, _compile_counts)
    for module in (cli, observables):
        for fname in ("fringe_scan", "sensitivity_scan_mu", "sensitivity_at",
                      "central_fringe_fwhm"):
            if hasattr(module, fname):
                def scan_counts(args, kwargs, result, error, fname=fname):
                    return {"requested": _requested_phis(fname, args, kwargs, default_window)}
                setattr(module, fname,
                        wrap("observables.scan", getattr(module, fname), scan_counts))
    cli.build_operator_set = wrap(
        "dicke.build_operator_set", cli.build_operator_set, rss=True)
    cli.run = wrap("protocols.run", cli.run)
    cli.qpd_field = wrap("husimi.qpd_field", cli.qpd_field, _qpd_counts)
    cli.improvement_factor = wrap(
        "cavity.improvement_factor", cli.improvement_factor, budget_counts)
    cli.main = wrap("cli.main", cli.main, _main_counts)
    cli.parse_config = wrap("cli.parse_config", cli.parse_config)
    cli.write_manifest = wrap("cli.write_manifest", cli.write_manifest)
    cli._atomic_write = wrap("cli.write", cli._atomic_write, write_counts)
    cli._atomic_write_bytes = wrap("cli.write", cli._atomic_write_bytes, write_counts)


# --- derived metrics -------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        s.id: (s.end - s.start)
        - _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
        for s in spans
    }


TIMED = ("dicke.build_operator_set", "dicke.apply_rotation", "protocols.run",
         "protocols.compile_protocol", "protocols.evaluate", "observables.scan",
         "husimi.qpd_field", "cavity.improvement_factor", "cli.main")
# per-layer metric -> (span name, quantity summed over its spans)
SUMS = {
    "dicke.build_operator_set.rss_growth_mb": ("dicke.build_operator_set", "rss_growth_mb"),
    "protocols.compile_protocol.gflop_computed": ("protocols.compile_protocol", "gflop"),
    "protocols.evaluate.columns": ("protocols.evaluate", "columns"),
    "protocols.evaluate.gflop_computed": ("protocols.evaluate", "gflop"),
    "observables.scan.self_s": ("observables.scan", "self_s"),
    "husimi.qpd_field.points": ("husimi.qpd_field", "points"),
    "cavity.budget_errors": ("cavity.improvement_factor", "budget_errors"),
    "cli.main.failed": ("cli.main", "failed"),
    "cli.self_s": ("cli.main", "self_s"),
    "cli.write.s": ("cli.write", "s"),
    "cli.write_manifest.s": ("cli.write_manifest", "s"),
    "cli.bytes_written": ("cli.write", "bytes"),
    "cli.files_written": ("cli.write", "files"),
}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass: inclusive time (.s), call counts, self
    times and the counts the wrappers attached, plus two ratios."""
    selfs = self_times(spans)
    total = defaultdict(float)
    for span in spans:
        total[span.name, "s"] += span.end - span.start
        total[span.name, "calls"] += 1
        total[span.name, "self_s"] += selfs[span.id]
        for key, value in span.counts.items():
            total[span.name, key] += value

    out = {f"{name}.{key}": total[name, key] / passes
           for name in TIMED for key in ("s", "calls")}
    out.update({metric: total[key] / passes for metric, key in SUMS.items()})
    columns = total["protocols.evaluate", "columns"]
    out["observables.useful_phi_frac"] = (
        total["observables.scan", "requested"] / columns if columns else 0.0)
    main_s = total["cli.main", "s"]
    out["cli.covered_frac"] = 1 - total["cli.main", "self_s"] / main_s if main_s else 0.0
    return out
