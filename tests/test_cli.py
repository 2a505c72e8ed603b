import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catspin.cavity import BudgetError, improvement_factor, optimal_detuning
from catspin.cli import (
    EXIT_RUNTIME,
    EXIT_USAGE,
    UsageError,
    _atomic_write,
    _atomic_write_bytes,
    _write_csv,
    main,
    parse_angle,
    parse_config,
    parse_range,
)
import catspin
import catspin.observables as observables
from catspin.husimi import QpdField, default_grid, qpd_field, raw_layout
from catspin.observables import (
    excess_noise_curve,
    fringe_scan,
    noise_floor,
    noise_model_table,
    sensitivity_scan_mu,
)
from catspin.protocols import Detection, ProtocolParams, builtin, run
from conftest import cached_ops, read_field_raw, slab_rows


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _run_python(code, *args, env=None):
    """Run code in a fresh interpreter that imports catspin from this tree,
    with env's variables set, or unset where their value is None."""
    src = os.path.dirname(os.path.dirname(catspin.__file__))
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = (
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import catspin\n"
        "print(loaded())\n"
        "import catspin.cli\n"
        "print(loaded())\n"
    )
    assert _run_python(code).stdout.split() == ["[]", "[]"]


def test_import_looks_up_no_blas():
    # numpy's OpenBLAS is looked up at the first scan that pins it, not at import
    code = ("import catspin.cli, catspin.observables as o\n"
            "print(o._openblas.cache_info().misses)\n")
    assert _run_python(code).stdout.split() == ["0"]


@pytest.mark.slow
@pytest.mark.parametrize("argv, bound", [
    (["qpd", "--n", "4000", "--stage", "J", "--format", "raw"], 100),
    (["collective", "--n", "4000", "--stage", "J"], 76),
], ids=["qpd", "collective"])
def test_peak_rss_at_the_cap(tmp_path, argv, bound):
    # the fresh interpreter's own peak RSS once cli.main returns.  Not
    # RUSAGE_CHILDREN, which adds earlier tests' children, nor the child's
    # own ru_maxrss: Linux starts that at the forking process's RSS, which
    # late in a tier-1 session is above either bound.  VmHWM counts only the
    # child's address space.  Measured 89.3 and 65.9 MiB, against 122.8 and
    # 100.0 MiB when the operator set held the full parity blocks
    code = ("import sys\n"
            "from catspin import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "peak_kib = next(line.split()[1] for line in open('/proc/self/status')\n"
            "                if line.startswith('VmHWM:'))\n"
            "print(status, int(peak_kib) / 1024)\n")
    status, peak_mib = _run_python(code, *argv, "--out", str(tmp_path / "out")).stdout.split()
    assert status == "0" and float(peak_mib) <= bound


@pytest.mark.slow
def test_cd_scans_do_not_depend_on_blas_threads(tmp_path):
    # a CD scan of more than one slab (N >= 359 for every built-in) runs BLAS
    # on one thread, so neither --threads nor the process's BLAS thread count
    # moves its bits.  Run serially with BLAS on its default 2 threads, each
    # command wrote other bytes than with 1, at N = 359 and 400 as at 600
    if observables._openblas() is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    commands = {
        "fringe": ["fringe", "--protocol", "scac", "--ara", "y", "--n", "600",
                   "--phi-range", "-0.1pi:0.1pi:2001"],
        "sensitivity": ["sensitivity", "--n", "600", "--mu-range", "0.49pi:0.5pi:3",
                        "--xi", "1", "--normalize-hl"],
        "fringe-359": ["fringe", "--protocol", "scac", "--ara", "y", "--n", "359",
                       "--mu", "0.3pi", "--phi-range", "-0.1pi:0.1pi:2001"],
        "sensitivity-400": ["sensitivity", "--n", "400", "--mu-range", "0.49pi:0.5pi:3",
                            "--xi", "1", "--normalize-hl"],
    }
    code = ("import hashlib, json, sys\n"
            "from catspin.cli import main\n"
            "commands, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "digests = {}\n"
            "for name, argv in commands.items():\n"
            "    for threads in ('1', '2'):\n"
            "        assert main(argv + ['--threads', threads, '--out', out]) == 0\n"
            "        with open(out, 'rb') as fh:\n"
            "            digests.setdefault(name, []).append(hashlib.sha256(fh.read()).hexdigest())\n"
            "print(json.dumps(digests))\n")
    digests = {name: set() for name in commands}
    for blas in ({"OPENBLAS_NUM_THREADS": "1"},  # and unset: the library's default
                 dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))):
        run = _run_python(code, json.dumps(commands), str(tmp_path / "out.csv"), env=blas)
        for name, runs in json.loads(run.stdout).items():
            digests[name].update(runs)
    assert {name: len(found) for name, found in digests.items()} == dict.fromkeys(commands, 1)


_NO_SCIPY_COMMANDS = {
    "fringe.csv": ["fringe", "--protocol", "scain", "--n", "40", "--phi-range", "-0.1pi:0.1pi:21"],
    "sensitivity.csv": ["sensitivity", "--protocol", "scain", "--n", "41",
                        "--mu-range", "0:0.5pi:3", "--normalize-hl"],
    "collective.csv": ["collective", "--protocol", "scain", "--n", "40", "--phi", "0.0125pi",
                       "--stage", "J"],
    "qpd.bin": ["qpd", "--protocol", "scain", "--n", "41", "--phi", "0.25pi", "--stage", "D",
                "--format", "raw"],
    "cavity.csv": ["cavity", "--n", "1e7", "--coop-range", "1e-4:1:5", "--log"],
    "excess.csv": ["excess-noise", "--n", "40", "--en-range", "0.01:1e3:5", "--log"],
    "parity.json": ["parity-average", "--even", "40", "--odd", "6.4031"],
}


def test_cli_runs_without_scipy(tmp_path):
    # a finder that refuses scipy proves the dependency gone, not just unimported
    code = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from catspin.cli import main\n"
        "commands = json.loads(sys.argv[1])\n"
        "print(json.dumps({out: main(argv + ['--out', sys.argv[2] + '/' + out])\n"
        "                  for out, argv in commands.items()}))\n"
    )
    run = _run_python(code, json.dumps(_NO_SCIPY_COMMANDS), str(tmp_path))
    assert json.loads(run.stdout.splitlines()[-1]) == dict.fromkeys(_NO_SCIPY_COMMANDS, 0)
    for out in _NO_SCIPY_COMMANDS:
        assert (tmp_path / out).stat().st_size > 0, out


class TestParsing:
    def test_pi_literals(self):
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("-0.05pi") == pytest.approx(-math.pi / 20)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("0.78") == pytest.approx(0.78)

    def test_bad_angle(self):
        with pytest.raises(UsageError):
            parse_angle("halfpi")

    def test_range(self):
        start, stop, count = parse_range("-0.05pi:0.05pi:1001")
        assert start == pytest.approx(-math.pi / 20)
        assert stop == pytest.approx(math.pi / 20)
        assert count == 1001

    def test_bad_range(self):
        with pytest.raises(UsageError):
            parse_range("0:1")

    def test_fringe_example_config(self):
        config = parse_config(
            "fringe --protocol scain --n 40 --mu 0.5pi --ara x --xi -1 "
            "--phi-range -0.05pi:0.05pi:1001 --out f.csv".split()
        )
        assert config.command == "fringe"
        assert config.options["n"] == 40
        assert config.options["mu"] == pytest.approx(math.pi / 2)
        assert config.options["xi"] == -1

    def test_sensitivity_example_config(self):
        config = parse_config(
            "sensitivity --protocol scain --n 41 --mu-range 0:0.5pi:101 "
            "--out s.csv".split()
        )
        assert config.command == "sensitivity"
        assert config.options["n"] == 41

    def test_zero_atoms_is_usage_error(self, tmp_path, capsys):
        rc = main(["fringe", "--n", "0", "--phi-range", "0:1:3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    def test_mu_over_range_rejected(self, tmp_path):
        rc = main(["fringe", "--n", "4", "--mu", "0.9pi", "--phi-range", "0:1:3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_mu_scan_over_range_rejected(self, tmp_path):
        rc = main(["sensitivity", "--n", "4", "--mu-range", "0:0.9pi:5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_conflicting_detection_options(self, tmp_path):
        rc = main(["fringe", "--n", "4", "--detection", "cd", "--csd-index", "2",
                   "--phi-range", "0:1:3", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_unknown_flag(self):
        rc = main(["fringe", "--frequency", "12"])
        assert rc == EXIT_USAGE

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ara": "y", "xi": 1}))
        config = parse_config(
            ["--config", str(cfg), "fringe", "--n", "4", "--xi", "-1",
             "--phi-range", "0:1:3", "--out", "o.csv"]
        )
        assert config.options["ara"] == "y"  # from file
        assert config.options["xi"] == -1  # flag overrides file

    @pytest.mark.parametrize("switch", [True, False])
    def test_config_values_read_as_flag_text(self, tmp_path, switch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "2", "mu": 0.5, "normalize_hl": switch,
                                   "coop_range": "not a flag of sensitivity"}))
        config = parse_config(["--config", str(cfg), "sensitivity", "--n", "4",
                               "--mu-range", "0:0.5pi:3", "--out", "s.csv"])
        assert config.options["gamma"] == 2.0 and config.options["mu"] == 0.5
        assert config.options["normalize_hl"] is switch
        assert "coop_range" not in config.options


class TestFringeCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["fringe", "--protocol", "scain", "--n", "8", "--mu", "0.5pi",
                   "--ara", "x", "--xi", "-1", "--phi-range", "-0.2:0.2:41",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["phi", "signal", "sds", "pgs", "lambda"]
        assert len(rows) == 42
        mid = rows[21]  # phi = 0: degenerate-free law check
        assert float(mid[1]) == pytest.approx(-4.0, abs=1e-9)
        # decimal points, no locale artifacts
        assert all("," not in cell for row in rows for cell in row)

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        args = ["fringe", "--protocol", "scain", "--n", "6", "--mu", "0.4pi",
                "--phi-range", "-1:1:301"]
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "1"]) == 0
        assert main(args + ["--out", str(c), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_pool_above_threshold_is_byte_identical(self, tmp_path, many_cpus):
        # N = 358 fits one slab of 729 samples and runs serially; N = 359
        # takes two slabs, so the pool runs them on up to 2 workers
        for n, slabs in (("358", 1), ("359", 2)):
            commands = {
                "f": ["fringe", "--n", n, "--mu", "0.5pi", "--xi", "-1",
                      "--phi-range", "-0.1pi:0.1pi:201"],
                "s": ["sensitivity", "--n", n, "--mu-range", "0.45pi:0.5pi:2", "--xi", "1",
                      "--normalize-hl"],
            }
            for name, args in commands.items():
                outs = []
                for threads in ("1", "2", "4"):
                    out = tmp_path / f"{name}{n}-{threads}.csv"
                    assert main(args + ["--threads", threads, "--out", str(out)]) == 0
                    manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
                    assert manifest["pool_workers"] == min(int(threads), slabs)
                    outs.append(out.read_bytes())
                assert outs[0] == outs[1] == outs[2]

    def test_manifest_records_pool_workers(self, tmp_path, monkeypatch, many_cpus):
        out = tmp_path / "f.csv"
        args = ["fringe", "--n", "6", "--phi-range", "0:1:5", "--out", str(out)]
        assert main(args + ["--threads", str(10**6)]) == 0  # one slab: serial
        assert json.loads((tmp_path / "f.csv.manifest.json").read_text())["pool_workers"] == 1
        slab_rows(monkeypatch, 6, 2)  # 4 slabs
        assert main(args + ["--threads", "3"]) == 0
        assert json.loads((tmp_path / "f.csv.manifest.json").read_text())["pool_workers"] == 3

    def test_manifest_records_blas_threads(self, tmp_path, monkeypatch):
        # 1 where a CD scan has more than one slab and pins BLAS (N >= 359),
        # the process's own count elsewhere, null where numpy's OpenBLAS is
        # not found
        own = observables.blas_threads()
        commands = {
            "f": ["fringe", "--phi-range", "-0.01:0.01:5"],
            "s": ["sensitivity", "--mu-range", "0.5pi:0.5pi:2", "--phi-window", "0.001:0.01:5"],
        }

        def recorded(name, n):
            out = tmp_path / f"{name}.csv"
            assert main(commands[name] + ["--n", n, "--out", str(out)]) == 0
            return json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["blas_threads"]

        for name in commands:
            assert recorded(name, "600") == (None if own is None else 1)
            assert recorded(name, "400") == (None if own is None else 1)
            assert recorded(name, "358") == own
            assert recorded(name, "6") == own
            assert observables.blas_threads() == own
        monkeypatch.setattr(observables, "_openblas", lambda: None)
        for name in commands:
            assert recorded(name, "600") is None and recorded(name, "6") is None

    def test_explicit_threads_capped_at_the_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        slab_rows(monkeypatch, 6, 2)  # 4 slabs
        out = tmp_path / "f.csv"
        args = ["fringe", "--n", "6", "--phi-range", "0:1:5", "--out", str(out)]
        assert main(args + ["--threads", "4"]) == 0
        assert json.loads((tmp_path / "f.csv.manifest.json").read_text())["pool_workers"] == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "f.csv"
        main(["fringe", "--n", "4", "--phi-range", "0:1:5", "--out", str(out)])
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["command"] == "fringe"
        assert manifest["options"]["n"] == 4
        assert "catspin" in manifest["versions"]
        assert "wall_time_s" in manifest

    def test_no_temp_leftovers(self, tmp_path):
        out = tmp_path / "f.csv"
        main(["fringe", "--n", "4", "--phi-range", "0:1:5", "--out", str(out)])
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp-" in p]
        assert leftovers == []

    def test_temp_removed_on_any_exception(self, tmp_path):
        def fail(fh):
            fh.write("partial")
            raise ZeroDivisionError("mid-write")

        path = str(tmp_path / "f.out")
        with pytest.raises(ZeroDivisionError):
            _atomic_write(path, fail)
        with pytest.raises(TypeError):
            _atomic_write_bytes(path, "text, not bytes")
        assert os.listdir(tmp_path) == []

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CATSPIN_THREADS", "2")
        out = tmp_path / "f.csv"
        assert main(["fringe", "--n", "4", "--phi-range", "0:1:5",
                     "--out", str(out)]) == 0

    def test_fringe_csv_matches_magnified_cosine_law(self, tmp_path):
        out = tmp_path / "law.csv"
        rc = main(["fringe", "--protocol", "scain", "--n", "40", "--mu", "0.5pi",
                   "--ara", "x", "--xi", "-1", "--phi-range", "-0.05pi:0.05pi:201",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)[1:]
        for row in rows:
            phi, signal = float(row[0]), float(row[1])
            assert signal == pytest.approx(-20 * math.cos(40 * phi), abs=1e-9)

    def test_lambda_cell_empty_at_degenerate_points(self, tmp_path):
        # odd N, redo correction, monitored state empty: every lambda cell blank
        out = tmp_path / "flat.csv"
        rc = main(["fringe", "--protocol", "scain", "--n", "5", "--mu", "0.5pi",
                   "--xi", "1", "--detection", "csd", "--csd-index", "0",
                   "--phi-range", "-0.3:0.3:11", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert all(row[4] == "" for row in rows[1:])


class TestScanBoundary:
    @pytest.mark.parametrize("extra", [
        ["--detection", "csd", "--csd-index", "5", "--phi-range", "0:1:5"],
        ["--detection", "csd", "--csd-index", "-6", "--phi-range", "0:1:5"],
        ["--phi-range", "1:-1:5"],
    ])
    def test_usage_error_without_traceback_or_artifact(self, tmp_path, capsys, extra):
        out = tmp_path / "f.csv"
        assert main(["fringe", "--n", "4", *extra, "--out", str(out)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["fringe", "--phi-range", "0:1e308:3"],
        ["fringe", "--phi-range", "0:1e308:3", "--detection", "csd"],
        ["collective", "--phi", "1e308", "--stage", "J"],
        ["qpd", "--phi", "1e308", "--stage", "J"],
        ["qpd", "--phi", "1e308", "--stage", "J", "--format", "raw"],
    ])
    def test_phase_beyond_the_float_range_is_an_error(self, tmp_path, capsys, argv):
        # a finite phi whose phase 2N phi overflows would write nan cells
        out = tmp_path / "q.out"
        assert main([*argv, "--n", "40", "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "2N |phi| must be finite" in err and "Traceback" not in err
        assert "warning:" not in err
        assert os.listdir(tmp_path) == []

    def test_csd_index_extremes_accepted(self, tmp_path):
        for index in ("4", "-5"):
            out = tmp_path / f"f{index}.csv"
            assert main(["fringe", "--n", "4", "--detection", "csd", "--csd-index", index,
                         "--phi-range", "0:1:5", "--out", str(out)]) == 0


class TestSensitivityCommand:
    def test_scan_output(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sensitivity", "--protocol", "scain", "--n", "8",
                   "--mu-range", "0:0.5pi:3", "--xi", "-1",
                   "--phi-window", "0.01:1.5:301", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["mu", "lambda", "phi_star"]
        # mu = pi/2, even N: Heisenberg limit
        assert float(rows[3][1]) == pytest.approx(8.0, rel=1e-6)

    def test_gamma_scale(self, tmp_path):
        base, scaled = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sensitivity", "--n", "6", "--mu-range", "0.5pi:0.5pi:2",
                "--phi-window", "0.05:1.5:101"]
        main(args + ["--out", str(base)])
        main(args + ["--gamma", "2.0", "--out", str(scaled)])
        lam_base = float(read_csv(base)[1][1])
        lam_scaled = float(read_csv(scaled)[1][1])
        assert lam_scaled == pytest.approx(lam_base / 2.0, rel=1e-12)


class TestQpdCommand:
    def test_stage_d_cat(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main(["qpd", "--protocol", "scain", "--n", "40", "--stage", "D",
                   "--grid", "21x24", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["theta", "phi", "q"]
        field = np.array([float(r[2]) for r in rows[1:]]).reshape(21, 24)
        # lobes at both poles, each half weight
        assert field[0].max() == pytest.approx(0.5, abs=1e-9)
        assert field[-1].max() == pytest.approx(0.5, abs=1e-9)

    def test_stage_d_two_collective_states(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["collective", "--protocol", "scain", "--n", "40",
                   "--stage", "D", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "m", "population"]
        pops = np.array([float(r[2]) for r in rows[1:]])
        assert np.sum(pops > 1e-12) == 2
        assert pops[0] == pytest.approx(0.5, abs=1e-12)
        assert pops[40] == pytest.approx(0.5, abs=1e-12)

    def test_csv_rows_row_major(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["qpd", "--n", "40", "--stage", "D", "--grid", "3x4", "--out", str(out)]) == 0
        grid = default_grid(3, 4)
        rows = np.array(read_csv(out)[1:], dtype=float)
        assert len(rows) == 12
        assert rows[0, 0] == grid.thetas[0] and rows[0, 1] == grid.phis[0]
        assert rows[4, 0] == grid.thetas[1] and rows[4, 1] == grid.phis[0]

    def test_raw_format_with_sidecar(self, tmp_path):
        out = tmp_path / "q.bin"
        rc = main(["qpd", "--protocol", "scain", "--n", "6", "--stage", "B",
                   "--grid", "9x12", "--format", "raw", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "q.bin.json").read_text())
        assert meta == {"n_theta": 9, "n_phi": 12, "n_atoms": 6, "stage_label": "B"}
        data = np.frombuffer(out.read_bytes(), dtype="<f8")
        assert data.size == 9 * 12
        assert data.max() <= 1.0 + 1e-12

    def test_raw_format_writes_one_manifest(self, tmp_path):
        # the .bin.json sidecar shares the .bin's manifest
        out = tmp_path / "q.bin"
        assert main(["qpd", "--n", "4", "--stage", "B", "--grid", "3x4", "--format", "raw",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["q.bin", "q.bin.json", "q.bin.manifest.json"]
        manifest = json.loads((tmp_path / "q.bin.manifest.json").read_text())
        assert manifest["options"]["grid"] == [3, 4]

    @pytest.mark.parametrize("fmt, name", [("csv", "q.csv"), ("raw", "q.bin")])
    def test_manifest_records_husimi_residual(self, tmp_path, fmt, name):
        # the quadrature less the rule's value on the stage's Dicke populations
        out = tmp_path / name
        assert main(["qpd", "--n", "40", "--stage", "H", "--grid", "91x60", "--format", fmt,
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert set(manifest["health"]) == {"husimi_residual"}
        assert abs(manifest["health"]["husimi_residual"]) <= 1e-14

    def test_raw_bytes_match_write_field_raw(self, tmp_path):
        out = tmp_path / "q.bin"
        argv = ["qpd", "--protocol", "scac", "--n", "5", "--stage", "c", "--grid", "7x10"]
        assert main([*argv, "--format", "raw", "--out", str(out)]) == 0
        values, _ = read_field_raw(out)
        data, meta = raw_layout(QpdField(default_grid(7, 10), values), 5, "C")
        assert data == out.read_bytes()
        sidecar = json.dumps(meta, indent=2) + "\n"
        assert sidecar.encode() == (tmp_path / "q.bin.json").read_bytes()

    @pytest.mark.parametrize("n, grid", [
        ("4", "100000000x100000000"),  # was killed by the kernel, exit 137
        ("4000", "2x1000000"),  # a (N + 1) x n_phi phase table of 4e9 elements
        ("40", "4096x4097"),  # one element row past the bound
        ("40", "16777217x2"),
    ])
    def test_grid_over_the_element_bound_is_a_usage_error(self, tmp_path, monkeypatch, n, grid):
        # rejected at parse time: nothing of the grid is built
        monkeypatch.setattr("catspin.cli.default_grid", None)
        argv = ["qpd", "--n", n, "--stage", "B", "--grid", grid, "--out", str(tmp_path / "q.csv")]
        with pytest.raises(UsageError, match="--grid"):
            parse_config(argv)
        assert main(argv) == EXIT_USAGE
        assert os.listdir(tmp_path) == []

    def test_grid_at_the_element_bound_parses(self, tmp_path):
        argv = ["qpd", "--n", "40", "--stage", "B", "--out", str(tmp_path / "q.csv")]
        assert parse_config(argv + ["--grid", "4096x4096"]).options["grid"] == (4096, 4096)
        assert parse_config(argv + ["--n", "4000", "--grid", "4001x4193"]).options["n"] == 4000

    def test_stage_beyond_protocol(self, tmp_path):
        rc = main(["qpd", "--protocol", "crain", "--n", "4", "--stage", "Z",
                   "--out", str(tmp_path / "q.csv")])
        assert rc == EXIT_USAGE


class TestCavityCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "cav.csv"
        rc = main(["cavity", "--n", "1e7", "--coop-range", "1e-4:1:61", "--log",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["cooperativity", "theta", "f_exact_db",
                           "f_approx_db", "f_ideal_db"]
        by_coop = {float(r[0]): r for r in rows[1:]}
        near = min(by_coop, key=lambda c: abs(c - 0.01))
        assert near == pytest.approx(0.01, rel=1e-9)
        assert abs(float(by_coop[near][2]) - 70.0) < 1.0

    def test_sweep_keeps_rows_past_the_budget(self, tmp_path):
        # the README recipe at N = 1e4: theta >= 1 for C <= 1.78e-4
        out = tmp_path / "cav.csv"
        assert main(["cavity", "--n", "1e4", "--coop-range", "1e-4:10:61", "--log",
                     "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert len(rows) == 61
        assert [float(r[0]) <= 1.78e-4 for r in rows] == [r[1:4] == ["", "", ""] for r in rows]
        assert all(float(r[0]) > 0 and float(r[4]) == 40.0 for r in rows)
        manifest = json.loads((tmp_path / "cav.csv.manifest.json").read_text())
        assert manifest["invalid_rows"] == 4

    def test_budget_invalid_exits_two(self, tmp_path, capsys):
        rc = main(["cavity", "--n", "100", "--coop-range", "1e-9:1e-8:3",
                   "--log", "--out", str(tmp_path / "cav.csv")])
        assert rc == EXIT_RUNTIME
        assert "theta" in capsys.readouterr().err
        assert not (tmp_path / "cav.csv").exists()

    def test_report_mode(self, tmp_path):
        params = {
            "kappa": 1e7, "delta_tilde": 100.0, "xi_sq": 3.9e15,
            "cooperativity": 900.0, "gamma_sp": 3.8e7, "delta_opt": 2.15e10,
        }
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(params))
        out = tmp_path / "report.json"
        rc = main(["cavity", "--params", str(pfile), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) >= {"chi", "t_sc", "scattering_rate",
                               "steady_state_amplitude"}

    def test_design_mode(self, tmp_path):
        out = tmp_path / "design.json"
        rc = main(["cavity", "--power", "1e-3", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert 0.5e8 <= report["chi"] <= 2e8

    def test_requires_exactly_one_mode(self, tmp_path):
        rc = main(["cavity", "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_USAGE


# a cavity params file whose kappa is the text filled in
_CAVITY_PARAMS = ('{"kappa": %s, "delta_tilde": 1, "xi_sq": 1, "cooperativity": 1, '
                  '"gamma_sp": 1, "delta_opt": 1}')


class TestExplicitZeroAndFileTypes:
    """An explicit 0 is honoured (and rejected where it has no meaning),
    non-finite or non-positive values are rejected where they have none, and
    config-file values of the wrong type or outside a flag's choices are
    usage errors."""

    @staticmethod
    def assert_clean_failure(tmp_path, capsys, argv, codes):
        assert main(argv) in codes
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert [p for p in os.listdir(tmp_path) if p != "cfg.json"] == []
        return err

    @pytest.mark.parametrize("argv", [
        ["--n", "1e4", "--coop-range", "1:10:3", "--delta-tilde", "0"],
        ["--power", "1e-3", "--delta-tilde", "0"],
        ["--power", "0"],
        ["--mode-side", "0"],
        ["--mirror-t", "0"],
        ["--mode-side", "-2e-5"],
        ["--mirror-t", "-1e-5"],
        ["--n", "1e300", "--coop-range", "1:10:3"],
        ["--power", "1e308"],
    ])
    def test_cavity_zero_flags(self, tmp_path, capsys, argv):
        out = str(tmp_path / "cav.out")
        self.assert_clean_failure(
            tmp_path, capsys, ["cavity", *argv, "--out", out], (EXIT_USAGE, EXIT_RUNTIME))

    @pytest.mark.parametrize("argv", [
        ["fringe", "--n", "4", "--phi-range", "0:1:5", "--gamma", "0"],
        ["fringe", "--n", "4", "--phi-range", "0:1:5", "--gamma", "-1"],
        ["fringe", "--n", "4", "--phi-range", "0:1:5", "--gamma", "nan"],
        ["sensitivity", "--n", "4", "--mu-range", "0:0.5pi:3", "--gamma", "inf"],
        ["collective", "--n", "4", "--stage", "J", "--phi", "nan"],
        ["qpd", "--n", "4", "--stage", "A", "--grid", "3x4", "--phi", "inf"],
        ["sensitivity", "--n", "4", "--mu-range", "0:0.5pi:3", "--phi-window", "nan:1:5"],
        ["sensitivity", "--n", "4", "--mu-range", "0:0.5pi:3", "--phi-window", "1:0:5"],
        ["cavity", "--n", "nan", "--coop-range", "1:10:3"],
        ["qpd", "--n", "4", "--stage", "A", "--grid", "1x1"],
        ["fringe", "--n", "4", "--phi-range", "0:1:5", "--threads", "0"],
        ["fringe", "--n", "4", "--phi-range", "0:1:5", "--threads", "-1"],
        ["sensitivity", "--n", "4", "--mu-range", "0:0.5pi:3", "--threads", "0"],
        ["cavity", "--n", "1e4", "--coop-range", "0:1:3"],
        ["cavity", "--n", "1e4", "--coop-range", "-1:1:3"],
    ])
    def test_out_of_domain_values(self, tmp_path, capsys, argv):
        out = str(tmp_path / "x.out")
        self.assert_clean_failure(tmp_path, capsys, [*argv, "--out", out], (EXIT_USAGE,))

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_bad_thread_env_is_usage_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("CATSPIN_THREADS", value)
        argv = ["fringe", "--n", "4", "--phi-range", "0:1:5", "--out", str(tmp_path / "f.csv")]
        self.assert_clean_failure(tmp_path, capsys, argv, (EXIT_USAGE,))

    def test_zero_threads_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 0}))
        argv = ["--config", str(cfg), "fringe", "--n", "4", "--phi-range", "0:1:5",
                "--out", str(tmp_path / "f.csv")]
        self.assert_clean_failure(tmp_path, capsys, argv, (EXIT_USAGE,))

    @pytest.mark.parametrize("argv, text, message", [
        (["--config", "missing.json", "fringe", "--n", "4", "--phi-range", "0:1:5"], None,
         "cannot read config file"),
        (["--config", "cfg.json", "fringe", "--n", "4", "--phi-range", "0:1:5"], "[1, 2]",
         "must hold a JSON object"),
        ([], None, "missing command"),
        (["cavity", "--coop-range", "1e-4:1:3"], None, "cavity sweep needs --n"),
        (["excess-noise", "--n", "10", "--en-range", "-1:5:3", "--log"], None,
         "--log sweep needs positive bounds"),
        (["cavity", "--params", "missing.json"], None, "cannot read cavity params"),
        (["cavity", "--params", "cfg.json"], "{", "cannot read cavity params"),
        (["cavity", "--params", "cfg.json"], "[1, 2]", "cannot read cavity params"),
        (["cavity", "--params", "cfg.json"], _CAVITY_PARAMS % "NaN",
         "cannot read cavity params: kappa must be finite"),
        (["cavity", "--params", "cfg.json"], _CAVITY_PARAMS % "-1",
         "cannot read cavity params: kappa must be nonnegative"),
        (["cavity", "--params", "cfg.json"], _CAVITY_PARAMS % "0",
         "cannot read cavity params: kappa must be positive"),
    ], ids=["config-missing", "config-list", "no-command", "sweep-without-n", "log-nonpositive",
            "params-missing", "params-malformed", "params-list", "params-nan", "params-negative",
            "params-kappa-zero"])
    def test_file_and_command_errors(self, tmp_path, capsys, monkeypatch, argv, text, message):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "cfg.json").write_text(text)
        out = ["--out", str(tmp_path / "x.out")] if argv else []
        err = self.assert_clean_failure(tmp_path, capsys, [*argv, *out], (EXIT_USAGE,))
        assert err.startswith("usage error: ") and message in err

    def test_allocation_failure_is_runtime_error(self, tmp_path, capsys):
        # 1e15 points ask numpy for 7 PiB, a request that fails at once
        argv = ["fringe", "--n", "4", "--phi-range", "0:1:1000000000000000",
                "--out", str(tmp_path / "x.csv")]
        err = self.assert_clean_failure(tmp_path, capsys, argv, (EXIT_RUNTIME,))
        assert err.startswith("error: Unable to allocate")

    def test_cavity_warning_is_one_stderr_line(self, tmp_path, capsys):
        rc = main(["cavity", "--n", "8", "--coop-range", "1e-4:10:7",
                   "--out", str(tmp_path / "cav.csv")])
        assert rc == 0  # one row past the budget's validity, six valid
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("warning: collective cooperativity")
        assert all(line.startswith(("warning: ", "error: ")) for line in lines)
        assert not any(".py" in line or "UserWarning" in line for line in lines)

    def test_warnings_turned_into_errors_stay_one_line(self, tmp_path, capsys):
        # -W error or PYTHONWARNINGS=error does not make a library warning a traceback
        out = tmp_path / "cav.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cavity", "--n", "1e4", "--coop-range", "1e-4:10:61", "--log",
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err.startswith("warning: 4 of 61 rows left empty")
            assert main(["cavity", "--n", "5", "--coop-range", "1e-3:1e-2:3",
                         "--out", str(tmp_path / "small.csv")]) == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["warning"] * 3 + ["error"]
        assert len(read_csv(out)) == 62

    @pytest.mark.parametrize("argv", [["--mode-side", "0"], ["--mirror-t", "0"]])
    def test_nonpositive_geometry_is_usage_error(self, tmp_path, argv):
        assert main(["cavity", *argv, "--out", str(tmp_path / "d.json")]) == EXIT_USAGE

    def test_zero_detuning_reaches_the_budget(self, capsys, tmp_path):
        main(["cavity", "--n", "1e4", "--coop-range", "1:10:3", "--delta-tilde", "0",
              "--out", str(tmp_path / "cav.csv")])
        assert "detuning" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        {"grid": 5},
        {"phi": [1]},
        {"mu": None},
        {"csd_index": "a", "detection": "csd"},
        {"fmt": "xml", "detection": "foo"},
        {"fmt": "xml"},
        {"protocol": "scian"},
        {"ara": "z"},
        {"xi": 2},
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, options):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options))
        argv = ["--config", str(cfg), "qpd", "--n", "4", "--stage", "A",
                "--out", str(tmp_path / "q.csv")]
        self.assert_clean_failure(tmp_path, capsys, argv, (EXIT_USAGE,))


class TestExcessNoiseCommand:
    def test_curve_columns(self, tmp_path):
        out = tmp_path / "en.csv"
        rc = main(["excess-noise", "--n", "10000", "--en-range", "0.1:10000:31",
                   "--log", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["delta_s_en", "crain", "tact", "esp",
                           "cd_scain", "csd_scain"]
        first = rows[1]
        # orderings at tiny excess noise: cd-scain at HL, crain/esp in between
        assert float(first[4]) > float(first[3]) > float(first[1])


class TestOutDirectory:
    """An --out whose directory does not exist is a usage error, found before
    any work; a directory that vanishes mid-run fails at the write."""

    @pytest.mark.parametrize("argv", list(_NO_SCIPY_COMMANDS.values()),
                             ids=list(_NO_SCIPY_COMMANDS))
    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.out"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"usage error: argument --out: directory {str(out.parent)!r} does not exist\n"
        assert captured.out == ""  # parity-average prints nothing either
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("from_file", [False, True])
    def test_failure_comes_before_the_scan(self, tmp_path, capsys, monkeypatch, from_file):
        calls = []
        monkeypatch.setattr("catspin.cli.sensitivity_scan_mu",
                            lambda *args, **kwargs: calls.append(args))
        out = str(tmp_path / "missing" / "s.csv")
        argv = ["sensitivity", "--n", "400", "--mu-range", "0.4pi:0.5pi:3"]
        if from_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"out": out}))
            argv = ["--config", str(cfg), *argv]
        else:
            argv += ["--out", out]
        assert main(argv) == EXIT_USAGE
        assert calls == []
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == (["cfg.json"] if from_file else [])

    def test_directory_removed_mid_run_exits_two(self, tmp_path, capsys, monkeypatch):
        folder = tmp_path / "gone"
        folder.mkdir()
        scan = observables.sensitivity_scan_mu

        def scan_then_remove(*args, **kwargs):
            result = scan(*args, **kwargs)
            folder.rmdir()
            return result

        monkeypatch.setattr("catspin.cli.sensitivity_scan_mu", scan_then_remove)
        assert main(["sensitivity", "--n", "4", "--mu-range", "0:0.5pi:2",
                     "--out", str(folder / "s.csv")]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    def test_bare_file_name_is_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["parity-average", "--even", "1", "--odd", "2", "--out", "p.json"]) == 0
        assert (tmp_path / "p.json").exists()


class TestParityAverageCommand:
    def test_overflow_is_runtime_error(self, capsys):
        assert main(["parity-average", "--even", "1e308", "--odd", "1e308"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_prints_value(self, capsys):
        rc = main(["parity-average", "--even", "40", "--odd", "6.4031"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(28.644, abs=1e-3)

    def test_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "pa.json"
        rc = main(["parity-average", "--even", "10", "--odd", "0",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["parity_average"] == pytest.approx(10 / math.sqrt(2))


def fmt(value: float) -> str:
    """The cell format of the per-row writer that the columnar one replaced."""
    return format(float(value), ".17g")


class TestFormatting:
    def test_seventeen_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["fringe", "--n", "4", "--phi-range", "0:pi:2", "--out", str(out)]) == 0
        assert read_csv(out)[2][0] == "3.1415926535897931"
        assert main(["parity-average", "--even", "1", "--odd", "0"]) == 0
        assert float(capsys.readouterr().out) == math.sqrt(0.5)  # round trip

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_percent_template_is_format(self, x):
        # the CSV writer's '%.17g' cells are fmt()'s format(x, '.17g') cells
        assert "%.17g" % x == format(x, ".17g") == fmt(x)

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                   1e16, 1e17, sys.float_info.max, -sys.float_info.max])
    def test_percent_template_at_the_edges(self, x):
        assert "%.17g" % x == format(x, ".17g") == fmt(x)


# --- the columnar CSV writer against the parent's per-row path -------------------


def _parent_csv(header, rows) -> bytes:
    """csv.writer over fmt()-formatted rows: how every CSV was written before
    the columnar writer, kept as its reference."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


def _spec(protocol="scain", mu="0.5pi", xi=-1, ara="x", detection="cd", csd_index=None):
    det = Detection("csd", index=csd_index) if detection == "csd" else None
    params = ProtocolParams(mu=parse_angle(mu), ara=ara, xi=xi, detection=det)
    return builtin(protocol, params)


def _parent_fringe(n, phi_range, gamma=1.0, **spec):
    ops = cached_ops(n)
    fringe = fringe_scan(_spec(**spec), ops.dims, ops, np.linspace(*parse_range(phi_range)))
    rows = []
    for phi, signal, sds, pgs in zip(fringe.phi, fringe.signal, fringe.sds, fringe.pgs):
        lam = None if sds < noise_floor(n) else abs(pgs) / sds  # point_sensitivity
        rows.append([fmt(phi), fmt(signal), fmt(sds), fmt(pgs),
                     "" if lam is None else fmt(lam / gamma)])
    return _parent_csv(["phi", "signal", "sds", "pgs", "lambda"], rows)


def _parent_sensitivity(n, mu_range, phi_window=None, normalize_hl=False, gamma=1.0, **spec):
    ops = cached_ops(n)
    window = None if phi_window is None else np.linspace(*parse_range(phi_window))
    sweep = sensitivity_scan_mu(_spec(**spec), ops.dims, ops,
                                np.linspace(*parse_range(mu_range)), window)
    hl = n if normalize_hl else 1.0
    return _parent_csv(["mu", "lambda", "phi_star"], (
        [fmt(mu), "" if math.isnan(lam) else fmt(lam / hl / gamma),
         "" if math.isnan(phi_star) else fmt(phi_star)]
        for mu, lam, phi_star in zip(sweep.mu, sweep.lam, sweep.phi_star)))


def _stage_state(n, phi, stage, **spec):
    ops = cached_ops(n)
    return run(_spec(**spec), ops.dims, ops, parse_angle(phi), n_pulses=ord(stage) - ord("A"))


def _parent_qpd(n, phi, stage, **spec):
    field = qpd_field(_stage_state(n, phi, stage, **spec), default_grid())
    rows = ([fmt(theta), fmt(phi), fmt(field.values[i, j])]  # field_to_csv_rows
            for i, theta in enumerate(field.grid.thetas)
            for j, phi in enumerate(field.grid.phis))
    return _parent_csv(["theta", "phi", "q"], rows)


def _parent_collective(n, phi, stage, **spec):
    state = _stage_state(n, phi, stage, **spec)
    dist = state.populations()
    return _parent_csv(["index", "m", "population"], (
        [str(i), fmt(mm), fmt(p)] for i, (mm, p) in enumerate(zip(state.dims.m_values(), dist))))


def _parent_cavity(n, coop_range):
    rows = []
    for coop in np.geomspace(*parse_range(coop_range, angle=False)):
        try:
            b = improvement_factor(n, float(coop), optimal_detuning(n, float(coop)))
            rows.append([fmt(coop), fmt(b.theta_frac), fmt(b.f_db), fmt(b.f_approx_db)])
        except BudgetError:
            rows.append([fmt(coop), "", "", ""])
    ideal_db = fmt(10.0 * math.log10(n))
    return _parent_csv(["cooperativity", "theta", "f_exact_db", "f_approx_db", "f_ideal_db"],
                       (row + [ideal_db] for row in rows))


def _parent_excess_noise(n, en_range):
    en = np.geomspace(*parse_range(en_range, angle=False))
    table = noise_model_table(n)
    curves = [excess_noise_curve(row, n, en) for row in table.values()]
    header = ["delta_s_en"] + [name.replace("-", "_") for name in table]
    return _parent_csv(header, (
        [fmt(e)] + [fmt(curve[i]) for curve in curves] for i, e in enumerate(en)))


_WRITER_CASES = {
    # Dicke states at every point: three empty lambda cells
    "fringe-empty-lambda": (["fringe", "--n", "40", "--phi-range", "-pi:pi:3"],
                            lambda: _parent_fringe(40, "-pi:pi:3")),
    "fringe-odd-gamma": (["fringe", "--n", "41", "--mu", "0.25pi", "--ara", "y",
                          "--phi-range", "-0.1pi:0.1pi:201", "--gamma", "2.5"],
                         lambda: _parent_fringe(41, "-0.1pi:0.1pi:201", 2.5, mu="0.25pi",
                                                ara="y")),
    "fringe-csd": (["fringe", "--protocol", "scac", "--n", "40", "--detection", "csd",
                    "--csd-index", "-1", "--xi", "1", "--phi-range", "-pi:pi:401"],
                   lambda: _parent_fringe(40, "-pi:pi:401", protocol="scac", xi=1,
                                          detection="csd", csd_index=-1)),
    # a window of phi = 0 alone: every row has empty lambda and phi_star cells
    "sensitivity-undefined": (["sensitivity", "--n", "40", "--mu-range", "0:0.5pi:3",
                               "--phi-window", "0:0:2"],
                              lambda: _parent_sensitivity(40, "0:0.5pi:3", "0:0:2")),
    "sensitivity-hl": (["sensitivity", "--n", "41", "--xi", "1", "--mu-range", "0:0.5pi:11",
                        "--normalize-hl", "--gamma", "3"],
                       lambda: _parent_sensitivity(41, "0:0.5pi:11", normalize_hl=True,
                                                   gamma=3.0, xi=1)),
    "qpd-default-grid": (["qpd", "--n", "41", "--phi", "0.25pi", "--stage", "D"],
                         lambda: _parent_qpd(41, "0.25pi", "D")),
    "collective-odd": (["collective", "--n", "41", "--phi", "0.25pi", "--stage", "J"],
                       lambda: _parent_collective(41, "0.25pi", "J")),
    # 4 of the 61 rows lie past the budget and keep empty theta and f cells
    "cavity-empty-rows": (["cavity", "--n", "1e4", "--coop-range", "1e-4:10:61", "--log"],
                          lambda: _parent_cavity(1e4, "1e-4:10:61")),
    "excess-noise": (["excess-noise", "--n", "10000", "--en-range", "0.01:1e7:241", "--log"],
                     lambda: _parent_excess_noise(10000, "0.01:1e7:241")),
}


class TestColumnarWriter:
    @pytest.mark.parametrize("chunk", [1 << 10, 2])
    def test_nan_cells_are_empty(self, tmp_path, monkeypatch, chunk):
        # each row its own pattern of empty cells, across chunk edges too
        monkeypatch.setattr("catspin.cli._CSV_CHUNK", chunk)
        out = tmp_path / "w.csv"
        nan, inf = math.nan, math.inf
        assert _write_csv(str(out), ["k", "a", "b"], [
            np.arange(5), [0.1, nan, inf, nan, -0.0], [nan, -inf, 2.5, nan, 1e300]]) == [str(out)]
        assert out.read_bytes() == (b"k,a,b\r\n0,0.10000000000000001,\r\n1,,-inf\r\n"
                                    b"2,inf,2.5\r\n3,,\r\n4,-0,1.0000000000000001e+300\r\n")

    @pytest.mark.parametrize("case", sorted(_WRITER_CASES))
    def test_bytes_match_the_per_row_writer(self, tmp_path, case):
        argv, parent = _WRITER_CASES[case]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == parent()

    @pytest.mark.parametrize("argv, health", [
        (["fringe", "--n", "40", "--phi-range", "-pi:pi:3"],
         {"undefined_lambda": 3, "rounding_band_points": 3, "csd_sum_points": 0}),
        (["sensitivity", "--n", "40", "--mu-range", "0:0.5pi:3", "--phi-window", "0:0:2"],
         {"undefined_lambda": 3, "rounding_band_points": 6, "csd_sum_points": 0}),
        (["fringe", "--n", "40", "--detection", "csd", "--csd-index", "0",
          "--phi-range", "-0.0008:0.0008:5"],
         {"undefined_lambda": 1, "rounding_band_points": 0, "csd_sum_points": 3}),
    ])
    def test_manifest_health_counts(self, tmp_path, capsys, argv, health):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""  # no warning, from an all-nan reduction say
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["health"] == health
        header, *rows = read_csv(out)
        empty = sum(row[header.index("lambda")] == "" for row in rows)
        assert manifest["health"]["undefined_lambda"] == empty


# --- argv gate ------------------------------------------------------------------

# Small value pools, (valid, invalid) per flag: N <= 8 and counts <= 50 keep
# every example cheap, and the invalid side holds 0, -1, nan, inf, bad
# letters and bad ranges.
_BAD_NUMBERS = ["0", "-1", "1e308", "nan", "inf", "-inf", "x", ""]
_BAD_ANGLES = ["0.9pi", "nan", "inf", "xpi", ""]
_BAD_RANGES = ["1:0:5", "nan:1:5", "0:inf:5", "0:1:1", "0:1:0", "0:1:-3", "0:1:x", "0:1",
               "a:b:c"]
_ANGLE_RANGES = ["0:1:5", "-pi:pi:50", "0:0.5pi:3", "0:0:3", "-0.1pi:0.1pi:7"]
_POSITIVE_RANGES = ["1e-4:10:7", "0.01:1e7:50", "1:2:2"]
_FLAG_VALUES = {
    "--protocol": (["crain", "scain", "cac", "cosac", "scac"], ["bogus"]),
    "--n": (["1", "2", "5", "8"], ["0", "-1", "1e308", "nan", "1.5", "x"]),
    "--mu": (["0", "0.5pi", "0.3", "0.25pi"], ["-1", *_BAD_ANGLES]),
    "--ara": (["x", "y"], ["z"]),
    "--xi": (["1", "-1"], ["0", "x"]),
    "--detection": (["cd", "csd"], ["foo"]),
    "--csd-index": (["0", "-1", "1"], ["8", "-10", "x"]),
    "--phi-range": (_ANGLE_RANGES, _BAD_RANGES),
    "--mu-range": (["0:0.5pi:3", "0.1:0.2:2", "0.5pi:0.5pi:2"], _BAD_RANGES),
    "--phi-window": (_ANGLE_RANGES, _BAD_RANGES),
    "--threads": (["1", "2"], ["x", "0", "-1"]),
    "--gamma": (["1", "2.5", "1e-3"], _BAD_NUMBERS),
    "--phi": (["0", "-1", "0.5pi", "-pi", "0.3"], _BAD_ANGLES),
    "--stage": (["A", "c", "J"], ["Z", "", "AB", "1"]),
    "--grid": (["3x4", "2x50", "5x5"], ["1x1", "0x0", "-1x3", "3x", "axb", "nan"]),
    "--format": (["csv", "raw"], ["xml"]),
    "--coop-range": (_POSITIVE_RANGES, [*_BAD_RANGES, "0:1:3", "-1:1:3"]),
    "--en-range": (_POSITIVE_RANGES, _BAD_RANGES),
    "--delta-tilde": (["1", "2.5", "1e-3"], _BAD_NUMBERS),
    "--power": (["1e-3", "2e-3"], _BAD_NUMBERS),
    "--mode-side": (["2e-5"], _BAD_NUMBERS),
    "--mirror-t": (["1e-5"], _BAD_NUMBERS),
    "--params": ([], ["missing.json"]),
    "--even": (["40", "0", "1.5"], _BAD_NUMBERS),
    "--odd": (["6.4", "0"], _BAD_NUMBERS),
}
_PROTOCOL_FLAGS = ["--protocol", "--n", "--mu", "--ara", "--xi", "--detection", "--csd-index"]
_COMMAND_FLAGS = {
    "fringe": _PROTOCOL_FLAGS + ["--phi-range", "--threads", "--gamma"],
    "sensitivity": _PROTOCOL_FLAGS + ["--mu-range", "--phi-window", "--normalize-hl",
                                      "--threads", "--gamma"],
    "qpd": _PROTOCOL_FLAGS + ["--phi", "--stage", "--grid", "--format"],
    "collective": _PROTOCOL_FLAGS + ["--phi", "--stage"],
    "cavity": ["--n", "--coop-range", "--log", "--delta-tilde", "--params", "--power",
               "--mode-side", "--mirror-t"],
    "excess-noise": ["--n", "--en-range", "--log"],
    "parity-average": ["--even", "--odd"],
    "nope": ["--n"],
}


_REQUIRED = {"--n", "--phi-range", "--mu-range", "--stage", "--en-range", "--even", "--odd"}
_DESTS = {"--format": "fmt"}  # every other flag stores into its name, '-' read as '_'


def _dest(flag):
    return _DESTS.get(flag, flag[2:].replace("-", "_"))


@st.composite
def _argv(draw):
    """A command with a random subset of its flags (required ones usually
    present), all values valid except at most one."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    # hypothesis favours small integers, so 0 means present
    flags = [f for f in _COMMAND_FLAGS[command]
             if draw(st.integers(0, 5 if f in _REQUIRED else 1)) < (5 if f in _REQUIRED else 1)]
    bad = draw(st.sampled_from([None, None, *flags]))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in _FLAG_VALUES:
            valid, invalid = _FLAG_VALUES[flag]
            argv.append(draw(st.sampled_from(invalid if flag == bad or not valid else valid)))
    if draw(st.integers(0, 5)) < 5:
        argv += ["--out", "out.dat"]
    return argv


def _local(token, out_dir):
    return os.path.join(out_dir, token) if token in ("out.dat", "missing.json") else token


def _run_clean(argv, out_dir):
    """main(argv) with its files in out_dir; its exit code and data files."""
    os.mkdir(out_dir)
    argv = [_local(a, out_dir) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # an escaping exception fails the example
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    # library warnings too reach stderr as single prefixed lines
    assert all(line.startswith(("usage error: ", "error: ", "warning: "))
               for line in err.getvalue().splitlines())
    assert [p for p in os.listdir(out_dir) if ".tmp-" in p] == []
    return code, {name: (Path(out_dir) / name).read_bytes() for name in os.listdir(out_dir)
                  if not name.endswith(".manifest.json")}


class TestArgvGate:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argv(), data=st.data())
    def test_every_argv_exits_cleanly(self, argv, data):
        pairs = []  # [flag, value]; a switch has None, and no value starts with '--'
        for token in argv[1:]:
            if token.startswith("--"):
                pairs.append([token, None])
            else:
                pairs[-1][1] = token
        optional = [f for f, _ in pairs if f not in _REQUIRED and f != "--out"]
        moved = data.draw(st.sets(st.sampled_from(optional))) if optional else set()
        with tempfile.TemporaryDirectory() as tmp:
            code, files = _run_clean(argv, os.path.join(tmp, "flags"))
            # the same options, some read from a config file as their flag text
            file_dir = os.path.join(tmp, "file")
            cfg = {_dest(f): True if v is None else _local(v, file_dir)
                   for f, v in pairs if f in moved}
            Path(tmp, "cfg.json").write_text(json.dumps(cfg))
            rest = [t for f, v in pairs if f not in moved for t in (f, v) if t is not None]
            argv2 = ["--config", os.path.join(tmp, "cfg.json"), argv[0], *rest]
            code2, files2 = _run_clean(argv2, file_dir)
            assert code2 == code
            if code == 0:
                assert files2 == files

    def test_manifest_options_are_the_commands_flags(self, tmp_path):
        for out, argv in _NO_SCIPY_COMMANDS.items():
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
            options = json.loads((tmp_path / f"{out}.manifest.json").read_text())["options"]
            flags = _COMMAND_FLAGS[argv[0]] + ["--out"]
            assert set(options) == {_dest(f) for f in flags}, argv[0]
