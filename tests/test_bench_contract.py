"""The names that the benchmark's traced run (bench/spans.py) patches or
reads in catspin still exist and still record their spans.

`bench/spans.install` wraps catspin's entry points by name, so renaming
one of them in `src/` would break the benchmark's traced run.  This test
runs a fringe and a qpd command through that tracer, in a fresh
interpreter since the tracer patches modules for good.  A CSD fringe near
phi = 0 takes the sum path, whose `CompiledProtocol.evaluate(phis, mu)`
call the tracer counts from its positional phis, the kernel's `segments`
and `dims.dim`.  The fringe's CSV records a `cli.write` span of its own
size, since the manifest and qpd writes alone would also give the name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import catspin

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
import spans
recorder = spans.Recorder()
spans.install(recorder)
import catspin.cli as cli
codes = [cli.main(["fringe", "--n", "6", "--phi-range", "0:1:5", "--out", "f.csv"]),
         cli.main(["qpd", "--n", "4", "--stage", "B", "--format", "raw", "--out", "q.raw"]),
         cli.main(["fringe", "--n", "6", "--detection", "csd", "--phi-range", "-1e-3:1e-3:3",
                   "--out", "c.csv"])]
fringe = next(s for s in recorder.spans if s.name == "cli.main")
json.dump({"codes": codes, "spans": sorted({s.name for s in recorder.spans}),
           "evaluate": [s.counts for s in recorder.spans if s.name == "protocols.evaluate"],
           "fringe_writes": [s.counts for s in recorder.spans
                             if s.name == "cli.write" and s.parent == fringe.id]},
          sys.stdout)
"""


def test_traced_run_records_every_layer(tmp_path):
    src = Path(catspin.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(BENCH), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0]
    assert {"cli.main", "dicke.build_operator_set", "protocols.compile_protocol",
            "observables.scan", "protocols.run", "husimi.qpd_field",
            "cli.write", "protocols.evaluate"} <= set(result["spans"])
    # all three points have 1 - p < 1e-4 and go through one evaluate call
    (counts,) = result["evaluate"]
    assert counts["columns"] == 3 and counts["gflop"] > 0
    # the fringe CSV itself, not only the manifests and the qpd raw file,
    # goes through the wrapped _atomic_write; its manifest's write is a
    # child of cli.write_manifest
    assert result["fringe_writes"] == [{"bytes": (tmp_path / "f.csv").stat().st_size,
                                        "files": 1}]
