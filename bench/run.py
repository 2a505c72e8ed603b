"""catspin benchmark: README figure recipes through `catspin.cli.main`.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; catspin is imported from its `src/`.
Each workload runs in its own fresh child process, one command at a time
(a closed loop with one client); catspin's own threads keep their defaults.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: pass wall and
CPU time (medians over the passes that fit in --seconds), peak RSS, the
share of commands that succeeded, and the median of several interpreter +
`import catspin.cli` set-up times.  --trace 1 runs the workload three times
in --seconds: untraced, with layer spans, and with OPENBLAS_NUM_THREADS=1,
and reports the per-layer metrics, the tracing overhead and the
single-thread diagnostic.  Every artifact is checked against its exact
laws after the timed interval.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it holds the run record (machine, versions, BLAS
threads, seed, commit).  Both are also kept in .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every child of one run ends within this
SETUP_CODE = "import catspin.cli\nimport time\nprint(repr(time.monotonic()))"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def setup_samples(env: dict) -> list[float]:
    """Seconds from spawning an interpreter until `import catspin.cli`
    returns, read off the shared monotonic clock."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import catspin.cli failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout) - t0)
    return samples


def run_child(workload: str, seed: int, seconds: float, run_dir: Path, env: dict,
              deadline: float, traced: bool = False) -> dict:
    """One fresh child process running passes of the workload; it is killed
    at the monotonic `deadline`."""
    run_dir.mkdir(parents=True)
    report = run_dir / "report.json"
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(seconds),
            str(run_dir / "out"), str(report)]
    if traced:
        argv.append(str(run_dir / "spans.jsonl"))
    log = run_dir / "child.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} run went past {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         f"{log.read_text()[-3000:]}")
    doc = json.loads(report.read_text())
    if not Path(doc["catspin"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"child imported catspin from {doc['catspin']}, not {SRC}")
    doc["dir"] = run_dir
    return doc


def check_child(commands: list, child: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected problems) over every pass's artifacts."""
    attempted = failed = 0
    problems = []
    for i, one in enumerate(child["passes"]):
        pass_dir = child["dir"] / "out" / f"pass{i}"
        for command, code in zip(commands, one["exits"]):
            reason, documented = checks.check_command(command, pass_dir, code)
            attempted += 1
            if reason is not None:
                failed += 1
                if not documented:
                    problems.append(f"pass {i} {' '.join(command.args)}: {reason}")
    return attempted, failed, problems


def _median(child: dict, key: str) -> float:
    return statistics.median(p[key] for p in child["passes"])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    """(metrics, attempted, failed, problems, record) of one run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = workloads.build(workload, seed)
    env = _child_env()
    if not trace:
        setup = setup_samples(env)
        child = run_child(workload, seed, seconds, run_dir / "plain", env, deadline)
        attempted, failed, problems = check_child(commands, child)
        metrics = {
            "wall_s": _median(child, "wall_s"),
            "setup_s": statistics.median(setup),
            "cpu_s": _median(child, "cpu_s"),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1 - failed / attempted,
        }
        children = [child]
    else:
        share = seconds / 3
        plain = run_child(workload, seed, share, run_dir / "plain", env, deadline)
        traced = run_child(workload, seed, share, run_dir / "traced", env, deadline,
                           traced=True)
        single = run_child(workload, seed, share, run_dir / "single",
                           _child_env(OPENBLAS_NUM_THREADS="1"), deadline)
        children = [plain, traced, single]
        attempted = failed = 0
        problems = []
        for child in children:
            a, f, p = check_child(commands, child)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        metrics = spans.layer_metrics(spans.read_spans(traced["dir"] / "spans.jsonl"),
                                      len(traced["passes"]))
        metrics["trace.wall_s"] = _median(traced, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(plain, "wall_s")
        metrics["diag.wall_1t_s"] = _median(single, "wall_s")
        metrics["diag.cpu_1t_s"] = _median(single, "cpu_s")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commands": len(commands),
        "passes": [len(c["passes"]) for c in children],
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        **children[0]["record"],
    }
    if trace:
        record["blas_threads_1t"] = children[2]["record"]["blas_threads_numpy"]
    return metrics, attempted, failed, problems, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "catspin" / "cli.py").is_file():
            raise BenchError(f"no catspin sources under {SRC}")
        seconds = args.seconds or spec["run_seconds"]
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        run_dir = OUT / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            metrics, attempted, failed, problems, record = measure(
                args.workload, args.seed, seconds, bool(args.trace), run_dir)
            if args.trace:
                shutil.copy(run_dir / "traced" / "spans.jsonl", results / f"{stem}.spans.jsonl")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    record["all_metrics"] = metrics
    (results / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
