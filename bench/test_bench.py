"""Self-tests of the benchmark's law checks, span arithmetic and workloads.

    python3 -m pytest bench
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
import spans
import workloads


def _write_fringe(path, n, phis, signal):
    rows = ["phi,signal,sds,pgs,lambda"]
    for phi, s in zip(phis, signal):
        sds = abs(n / 2 * math.sin(n * phi))
        rows.append(f"{float(phi)!r},{float(s)!r},{sds!r},0,")
    path.write_text("\n".join(rows) + "\n")


def test_exact_fringe_passes_and_perturbed_fringe_fails(tmp_path):
    n = 40
    phis = np.linspace(-0.1 * math.pi, 0.1 * math.pi, 201)
    signal = -(n / 2) * np.cos(n * phis)
    path = tmp_path / "fringe.csv"

    _write_fringe(path, n, phis, signal)
    assert checks.check_fringe(path, n=n, count=201, law="scain_cd") is None

    signal[57] += 1e-6
    _write_fringe(path, n, phis, signal)
    reason = checks.check_fringe(path, n=n, count=201, law="scain_cd")
    assert reason is not None and "scain_cd" in reason


def test_documented_exit_counts_as_documented_failure(tmp_path):
    (cavity,) = [c for c in workloads.build("figures-n40", 0) if c.expect_exit]
    assert cavity.args[:3] == ("cavity", "--n", "1e4")
    assert checks.check_command(cavity, tmp_path, 2) == ("exit 2", True)
    assert checks.check_command(cavity, tmp_path, 1) == ("exit 1", False)
    (tmp_path / cavity.out).write_text("partial")
    assert checks.check_command(cavity, tmp_path, 2) == ("exit 2", False)


def test_self_time_is_span_time_minus_covered_child_time():
    tree = [
        spans.Span(0, None, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 0, "b", 3.0, 6.0),  # overlaps a: a worker thread
        spans.Span(3, 0, "c", 8.0, 12.0),  # runs past its parent: clipped
        spans.Span(4, 1, "a.child", 2.0, 3.0),  # covered by a, not by root
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_from_spans():
    tree = [
        spans.Span(0, None, "cli.main", 0.0, 4.0, {"failed": 0}),
        spans.Span(1, 0, "observables.scan", 0.5, 3.5, {"requested": 10}),
        spans.Span(2, 1, "protocols.evaluate", 1.0, 2.0, {"columns": 50, "gflop": 0.5}),
    ]
    got = spans.layer_metrics(tree, passes=2)
    assert got["cli.main.s"] == pytest.approx(2.0)
    assert got["cli.self_s"] == pytest.approx(0.5)
    assert got["cli.covered_frac"] == pytest.approx(0.75)
    assert got["observables.scan.self_s"] == pytest.approx(1.0)
    assert got["observables.useful_phi_frac"] == pytest.approx(0.2)
    assert got["protocols.evaluate.columns"] == pytest.approx(25)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reorders_and_keeps_the_count(name):
    readme = workloads.build(name, 0)
    for seed in (1, 2, 3):
        other = workloads.build(name, seed)
        assert len(other) == len(readme)
        assert other == workloads.build(name, seed)
        assert len({c.out for c in other}) == len(other)


def test_stage_picks_apply_the_same_number_of_pulses():
    def pulses(seed):
        return sum(workloads.STAGES.index(c.args[c.args.index("--stage") + 1])
                   for c in workloads.build("stages-n4000", seed))
    assert {pulses(seed) for seed in range(10)} == {pulses(0)}
