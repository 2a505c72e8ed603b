"""The benchmark's workloads: README figure recipes as `catspin` argument lists.

Seed 0 gives the README recipes in README order.  Any other seed shuffles
each workload's command order and, for the large-N workloads, picks which
mu window or which stages of the README grids run, keeping their count.
catspin itself never sees the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

STAGES = "ABCDEFGHIJ"  # SCAIN: A is the initial state, J the final one


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the law check its artifact must pass."""

    args: tuple[str, ...]  # CLI arguments without --out
    check: str  # key of checks.CHECKS
    params: dict = field(default_factory=dict)
    # A README recipe documented to end in this exit code; it still counts
    # as a failed command.
    expect_exit: int = 0
    out: str = ""  # artifact file name inside the pass directory, set by build()

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir / self.out)]


def _grid_count(text: str) -> int:
    return int(text.split(":")[2])


def _fringe(protocol: str, n: int, phi_range: str, *extra: str, law: str | None = None):
    args = ("fringe", "--protocol", protocol, "--n", str(n), *extra, "--phi-range", phi_range)
    return Command(args, "fringe", {"n": n, "count": _grid_count(phi_range), "law": law})


def _scain_fringe(n: int, mu: str, phi_range: str):
    law = "scain_cd" if mu == "0.5pi" and n % 2 == 0 else None
    return _fringe("scain", n, phi_range, "--mu", mu, "--xi", "-1", law=law)


def _qpd(protocol: str, n: int, phi: str, stage: str):
    args = ("qpd", "--protocol", protocol, "--n", str(n), "--mu", "0.5pi", "--ara", "x",
            "--xi", "-1", "--phi", phi, "--stage", stage, "--format", "raw")
    return Command(args, "qpd_raw", {"n": n})


def _collective(n: int, phi: str, stage: str):
    args = ("collective", "--protocol", "scain", "--n", str(n), "--mu", "0.5pi", "--xi", "-1",
            "--phi", phi, "--stage", stage)
    # CSD law: the final-stage |E_0> population of an even-N SCAIN is cos^2(N phi / 2)
    law_phi = phi if stage == STAGES[-1] and n % 2 == 0 else None
    return Command(args, "collective", {"n": n, "law_phi": law_phi})


def _sensitivity(n: int, mu_range: str, *extra: str):
    args = ("sensitivity", "--protocol", "scain", "--n", str(n), "--mu-range", mu_range,
            "--xi", "1", "--normalize-hl", *extra)
    return Command(args, "sensitivity", {"n": n, "count": _grid_count(mu_range)})


def _figures_n40(rng: random.Random | None) -> list[Command]:
    specs = [Command(("excess-noise", "--n", "10000", "--en-range", "0.01:1e7:241", "--log"),
                     "excess_noise", {"n": 10000, "count": 241})]
    specs += [_qpd("scain", 40, "0.0125pi", s) for s in STAGES]
    specs += [
        _fringe("crain", 40, "-pi:pi:2001"),
        _fringe("crain", 41, "-pi:pi:2001"),
    ]
    for n in (40, 41):
        specs += [_scain_fringe(n, "0.5pi", "-pi:pi:4001"),
                  _scain_fringe(n, "0.5pi", "-0.1pi:0.1pi:2001")]
    specs += [_qpd("scain", 41, "0.25pi", s) for s in STAGES]
    specs += [_collective(40, "0.0125pi", s) for s in STAGES]
    specs += [_collective(41, "0.25pi", s) for s in STAGES]
    for n in (40, 41):
        specs.append(_scain_fringe(n, "0", "-pi:pi:2001"))
        specs += [_scain_fringe(n, mu, "-0.1pi:0.1pi:2001")
                  for mu in ("0.021pi", "0.125pi", "0.25pi", "0.375pi", "0.5pi")]
    specs += [_qpd("scac", 40, "0.0125pi", s) for s in STAGES[:8]]
    scac = ("--mu", "0.5pi", "--xi", "-1")
    specs += [
        _fringe("cac", 40, "-pi:pi:2001", law="cac_upcount"),
        _fringe("scac", 40, "-0.1pi:0.1pi:2001", *scac),
        _fringe("scac", 40, "-0.1pi:0.1pi:2001", "--mu", "0.5pi", "--xi", "1"),
        _fringe("scac", 40, "-0.1pi:0.1pi:2001", *scac, "--ara", "y"),
        _fringe("scac", 41, "-0.1pi:0.1pi:2001", *scac),
        _fringe("scac", 40, "-pi:pi:4001", *scac),
    ]
    for n in ("1e4", "1e5", "1e6", "1e7"):
        # The N = 1e4 recipe exits 2 today: the budget breaks down
        # (theta = 1.30) at C = 1e-4.
        specs.append(Command(("cavity", "--n", n, "--coop-range", "1e-4:10:61", "--log"),
                             "cavity", {"n": float(n), "count": 61}, 2 if n == "1e4" else 0))
    specs.append(Command(("parity-average", "--even", "40", "--odd", "6.4031"),
                         "parity", {"even": 40.0, "odd": 6.4031}))
    return specs


def _sweep_n40(rng: random.Random | None) -> list[Command]:
    return [
        _sensitivity(40, "0:0.5pi:101"),
        _sensitivity(41, "0:0.5pi:101"),
        _sensitivity(40, "0:0.5pi:101", "--detection", "csd"),
    ]


def _sweep_n1000(rng: random.Random | None) -> list[Command]:
    # three neighbouring points of the README grid 0:0.5pi:101 (step 0.005pi)
    first = 98 if rng is None else rng.randrange(99)
    mu_range = f"{first / 200:.3f}pi:{(first + 2) / 200:.3f}pi:3"
    return [
        _sensitivity(1000, mu_range),
        _scain_fringe(1000, "0.5pi", "-0.1pi:0.1pi:2001"),
    ]


def _stages_n4000(rng: random.Random | None) -> list[Command]:
    # Two complementary stage pairs (k, 9 - k), so every seed applies the
    # same number of pulses.
    pairs = [0, 3] if rng is None else rng.sample(range(5), 2)
    stages = sorted(STAGES[k] for p in pairs for k in (p, 9 - p))
    specs = [_qpd("scain", 4000, "0.0125pi", s) for s in stages]
    specs.append(_collective(4000, "0.0125pi", STAGES[-1]))
    return specs


WORKLOADS = {
    "sweep-n40": _sweep_n40,
    "sweep-n1000": _sweep_n1000,
    "stages-n4000": _stages_n4000,
    "figures-n40": _figures_n40,
}

_SUFFIX = {"qpd_raw": ".bin", "parity": ".json"}


def build(workload: str, seed: int) -> list[Command]:
    """The command list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(seed)
    commands, seen = [], set()
    for command in WORKLOADS[workload](rng):
        if command.args in seen:  # recipes the README lists twice run once
            continue
        seen.add(command.args)
        out = f"{len(commands):02d}-{command.args[0]}{_SUFFIX.get(command.check, '.csv')}"
        commands.append(replace(command, out=out))
    if rng is not None:
        rng.shuffle(commands)
    return commands
