"""Command-line front end: deterministic scans written as CSV/JSON/raw artifacts.

Every command writes its outputs atomically (temp file + rename) and drops a
JSON run manifest beside each artifact.  Data files carry no timestamps, so
repeated runs are byte-identical; the manifest holds the wall-clock record.

Angles accept `0.5pi`-style literals (multiples of pi) as well as plain
radians; ranges are `start:stop:count`.  Exit codes: 0 ok, 1 usage error,
2 runtime/budget error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

import catspin
from catspin.cavity import (
    BudgetError,
    CavityParams,
    chi_cavity_design,
    improvement_factor,
    optimal_detuning,
    scattering_rate,
    squeezing_rate_chi,
    squeezing_time,
    steady_state_amplitude,
)
from catspin.dicke import DimensionError, EnsembleDims, build_operator_set
from catspin.husimi import default_grid, field_to_csv_rows, qpd_field, raw_layout
from catspin.observables import (
    collective_distribution,
    excess_noise_curve,
    fringe_scan,
    noise_model_table,
    parity_average,
    point_sensitivity,
    sensitivity_scan_mu,
)
from catspin.protocols import Detection, ProtocolParams, builtin, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

THREADS_ENV = "CATSPIN_THREADS"

NOISE_PROTOCOL_ORDER = ("crain", "tact", "esp", "cd-scain", "csd-scain")


class UsageError(Exception):
    """Bad flags or out-of-range values; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def fmt(value: float) -> str:
    """17-significant-digit float formatting; '.' decimal, locale-free."""
    return format(float(value), ".17g")


def finite(text: str) -> float:
    """float(text), refusing nan and infinities; the type of every real flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_angle(text: str) -> float:
    """Parse '0.5pi' as 0.5*pi, otherwise plain radians; both finite."""
    text = text.strip().lower()
    try:
        if text.endswith("pi"):
            head = text[:-2]
            factor = 1.0 if head in ("", "+") else (-1.0 if head == "-" else finite(head))
            return factor * math.pi
        return finite(text)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_range(text: str, angle: bool = True) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range {text!r} must be start:stop:count")
    convert = parse_angle if angle else finite
    try:
        start, stop, count = convert(parts[0]), convert(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"cannot parse range {text!r}") from None
    if count < 2:
        raise UsageError(f"range {text!r} needs at least 2 points")
    return start, stop, count


def _write_via_temp(path: str, binary: bool, writer_func):
    """writer_func(fh) into a temp file renamed over path; the temp file is
    removed whatever exception interrupts it."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb" if binary else "w", newline=None if binary else "") as fh:
            writer_func(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_write(path: str, writer_func):
    _write_via_temp(path, False, writer_func)


def _atomic_write_bytes(path: str, data: bytes):
    _write_via_temp(path, True, lambda fh: fh.write(data))


def _write_csv(path: str, header: list[str], rows) -> list[str]:
    """Write a header and an iterable of formatted rows atomically."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)
    return [path]


def _write_json(path: str, doc: dict) -> list[str]:
    """Strict JSON: a non-finite number is an error, not NaN or Infinity."""
    text = json.dumps(doc, indent=2, default=str, allow_nan=False) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))
    return [path]


def write_manifest(path: str, command: str, options: dict, wall_time: float,
                   record: dict | None = None):
    manifest = {
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        **(record or {}),
        "versions": {
            "catspin": catspin.__version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall_time,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(path + ".manifest.json", manifest)


# --- configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """One validated command invocation; all computation is seed-free."""

    command: str
    options: dict


_COMMON_DEFAULTS = {
    "protocol": "scain",
    "mu": math.pi / 2,
    "ara": "x",
    "xi": -1,
    "detection": "cd",
    "csd_index": None,
    "threads": None,
    "gamma": 1.0,
}


# what a config file may give each option, as JSON types; true/false is
# not taken for a number
_FILE_OPTION_TYPES = (
    ("a string", (str,), "protocol ara detection phi_range mu_range phi_window stage grid "
                         "fmt coop_range params en_range out"),
    ("a number or an angle string", (int, float, str), "mu phi"),
    ("an integer", (int,), "xi csd_index threads"),
    ("a number", (int, float), "n gamma delta_tilde power mode_side mirror_t even odd"),
    ("true or false", (bool,), "normalize_hl log"),
)

# design-mode knobs of `cavity`; unset ones take the reference cavity's value
_DESIGN_KNOBS = ("delta_tilde", "power", "mode_side", "mirror_t")


def _check_file_options(parser: _Parser, command: str, file_options: dict):
    """File values must have the JSON type of their option (numbers finite)
    and, where the command's flag has choices, be one of them."""
    for kind, types, keys in _FILE_OPTION_TYPES:
        for key in (k for k in keys.split() if k in file_options):
            value = file_options[key]
            if (not isinstance(value, types) or (isinstance(value, bool) and bool not in types)
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise UsageError(f"config option {key!r} must be {kind}, got {value!r}")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in commands.choices[command]._actions:
        value = file_options.get(action.dest)
        if action.choices is not None and value is not None and value not in action.choices:
            raise UsageError(f"config option {action.dest!r} must be one of "
                             f"{list(action.choices)}, got {value!r}")


def _add_protocol_flags(sub):
    sub.add_argument("--protocol", choices=["crain", "scain", "cac", "cosac", "scac"])
    sub.add_argument("--n", type=int, required=True, help="number of atoms")
    sub.add_argument("--mu", type=str, help="squeezing strength, e.g. 0.5pi")
    sub.add_argument("--ara", choices=["x", "y"], help="auxiliary rotation axis")
    sub.add_argument("--xi", type=int, choices=[1, -1], help="corrective rotation sign")
    sub.add_argument("--detection", choices=["cd", "csd"])
    sub.add_argument("--csd-index", type=int, dest="csd_index")


def _build_parser() -> _Parser:
    parser = _Parser(prog="catspin", description=__doc__)
    parser.add_argument("--config", help="JSON file with default options")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("fringe", help="signal/SDS/PGS over a phi grid")
    _add_protocol_flags(p)
    p.add_argument("--phi-range", dest="phi_range", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int)
    p.add_argument("--gamma", type=finite, help="divide lambda by this linewidth factor")

    p = subs.add_parser("sensitivity", help="best Lambda per mu over the fringe window")
    _add_protocol_flags(p)
    p.add_argument("--mu-range", dest="mu_range", required=True)
    p.add_argument("--phi-window", dest="phi_window")
    p.add_argument("--normalize-hl", dest="normalize_hl", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int)
    p.add_argument("--gamma", type=finite)

    p = subs.add_parser("qpd", help="Husimi field of a protocol stage")
    _add_protocol_flags(p)
    p.add_argument("--phi", type=str, help="dark-zone scan phase")
    p.add_argument("--stage", required=True, help="stage letter A..")
    p.add_argument("--grid", help="THETAxPHI point counts, e.g. 181x361")
    p.add_argument("--format", choices=["csv", "raw"], dest="fmt")
    p.add_argument("--out", required=True)

    p = subs.add_parser("collective", help="Dicke-state populations of a stage")
    _add_protocol_flags(p)
    p.add_argument("--phi", type=str)
    p.add_argument("--stage", required=True)
    p.add_argument("--out", required=True)

    p = subs.add_parser("cavity", help="squeezing-cavity rates and budgets")
    p.add_argument("--n", type=finite, help="number of atoms")
    p.add_argument("--coop-range", dest="coop_range", help="cooperativity sweep a:b:count")
    p.add_argument("--log", action="store_true", default=None, help="geometric sweep spacing")
    p.add_argument("--delta-tilde", dest="delta_tilde", type=finite,
                   help="probe detuning / cavity half width (default: optimal)")
    p.add_argument("--params", help="JSON file of cavity parameters (report mode)")
    p.add_argument("--power", type=finite, help="design-mode probe power (W)")
    p.add_argument("--mode-side", dest="mode_side", type=finite)
    p.add_argument("--mirror-t", dest="mirror_t", type=finite)
    p.add_argument("--out", required=True)

    p = subs.add_parser("excess-noise", help="Lambda vs excess noise per protocol")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--en-range", dest="en_range", required=True)
    p.add_argument("--log", action="store_true", default=None)
    p.add_argument("--out", required=True)

    p = subs.add_parser("parity-average", help="RMS-average even/odd sensitivities")
    p.add_argument("--even", type=finite, required=True)
    p.add_argument("--odd", type=finite, required=True)
    p.add_argument("--out")

    return parser


# flags whose values may legitimately start with '-' (angles, ranges);
# argparse would otherwise read them as options
_DASH_VALUE_FLAGS = {
    "--mu", "--phi", "--phi-range", "--mu-range", "--phi-window",
    "--en-range", "--coop-range", "--even", "--odd", "--delta-tilde",
    "--mode-side", "--mirror-t",
}


def _join_dash_values(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags, merging defaults < config file < explicit flags."""
    parser = _build_parser()
    args = parser.parse_args(_join_dash_values(argv))
    if args.command is None:
        raise UsageError("missing command")

    options = dict(_COMMON_DEFAULTS)
    file_options = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_options = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_options, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        _check_file_options(parser, args.command, file_options)
    options.update(file_options)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            options[key] = value

    for key in ("mu", "phi"):
        if isinstance(options.get(key), str):
            options[key] = parse_angle(options[key])

    config = RunConfig(command=args.command, options=options)
    _validate(config)
    return config


def _threads(opts) -> int | None:
    """--threads, else a non-empty CATSPIN_THREADS, as a positive integer, or
    None for neither; the scan caps it at its sub-grids (pool_size)."""
    value = opts.get("threads")
    if value is None:
        value = os.environ.get(THREADS_ENV) or None
    try:
        if value is None or int(value) >= 1:
            return None if value is None else int(value)
    except (TypeError, ValueError):
        pass
    raise UsageError(f"--threads / {THREADS_ENV} must be a positive integer, got {value!r}")


def _validate(config: RunConfig):
    opts = config.options
    if "n" in opts and opts.get("n") is not None:
        n = opts["n"]
        if n < 1:
            raise UsageError(f"--n must be >= 1, got {n}")
    if config.command in ("fringe", "sensitivity", "qpd", "collective"):
        if int(opts["n"]) != opts["n"]:
            raise UsageError("--n must be an integer atom count")
        mu = opts.get("mu", math.pi / 2)
        if not 0.0 <= mu <= math.pi / 2 + 1e-12:
            raise UsageError(f"--mu must lie in [0, 0.5pi], got {mu}")
        if opts.get("csd_index") is not None:
            if opts.get("detection") != "csd":
                raise UsageError("--csd-index only applies with --detection csd")
            n = int(opts["n"])
            if not -(n + 1) <= opts["csd_index"] <= n:
                raise UsageError(
                    f"--csd-index must lie in [{-(n + 1)}, {n}] for N={n}"
                )
    if config.command in ("fringe", "sensitivity"):
        _threads(opts)
        if not opts["gamma"] > 0:
            raise UsageError(f"--gamma must be > 0, got {opts['gamma']}")
        key = "phi_range" if config.command == "fringe" else "phi_window"
        lo, hi, _ = parse_range(opts[key]) if opts.get(key) else (0.0, 0.0, 0)
        if lo > hi:
            raise UsageError(f"--{key.replace('_', '-')} must be ascending")
    if config.command == "sensitivity":
        lo, hi, _ = parse_range(opts["mu_range"])
        if not (0.0 <= lo <= hi <= math.pi / 2 + 1e-12):
            raise UsageError("--mu-range must lie within [0, 0.5pi]")
    if config.command == "cavity":
        design = any(opts.get(key) is not None for key in _DESIGN_KNOBS[1:])
        modes = [opts.get("coop_range") is not None, opts.get("params") is not None, design]
        if sum(modes) != 1:
            raise UsageError(
                "cavity needs exactly one of --coop-range (sweep), --params "
                "(report) or design knobs (--power/--mode-side/--mirror-t)"
            )
        if opts.get("coop_range") is not None and opts.get("n") is None:
            raise UsageError("cavity sweep needs --n")
        for key in ("mode_side", "mirror_t"):
            if opts.get(key) is not None and not opts[key] > 0:
                raise UsageError(f"--{key.replace('_', '-')} must be positive, got {opts[key]}")


# --- command implementations ----------------------------------------------------


def _protocol_setup(opts):
    n = int(opts["n"])
    dims = EnsembleDims(n)
    ops = build_operator_set(dims)
    detection = None
    if opts.get("detection") == "csd":
        detection = Detection("csd", index=opts.get("csd_index"))
    params = ProtocolParams(
        mu=float(opts.get("mu", math.pi / 2)),
        ara=opts.get("ara", "x"),
        xi=int(opts.get("xi", -1)),
        detection=detection,
    )
    spec = builtin(opts.get("protocol", "scain"), params)
    return dims, ops, spec


def _cmd_fringe(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    start, stop, count = parse_range(opts["phi_range"])
    phis = np.linspace(start, stop, count)
    threads = _threads(opts)
    report = {}
    points = fringe_scan(spec, dims, ops, phis, threads=threads, report=report)
    gamma = float(opts.get("gamma", 1.0))
    return _write_csv(opts["out"], ["phi", "signal", "sds", "pgs", "lambda"], (
        [fmt(pt.phi), fmt(pt.signal), fmt(pt.sds), fmt(pt.pgs),
         "" if (lam := point_sensitivity(pt, dims)) is None else fmt(lam / gamma)]
        for pt in points)), report


def _cmd_sensitivity(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    start, stop, count = parse_range(opts["mu_range"])
    mus = np.linspace(start, stop, count)
    threads, window, report = _threads(opts), None, {}
    if opts.get("phi_window"):
        a, b, c = parse_range(opts["phi_window"])
        window = np.linspace(a, b, c)
    results = sensitivity_scan_mu(
        spec, dims, ops, mus,
        phi_window=window,
        normalize_hl=bool(opts.get("normalize_hl")),
        threads=threads,
        report=report,
    )
    gamma = float(opts.get("gamma", 1.0))
    return _write_csv(opts["out"], ["mu", "lambda", "phi_star"], (
        [fmt(res.mu), "" if res.lam is None else fmt(res.lam / gamma),
         "" if math.isnan(res.phi_star) else fmt(res.phi_star)] for res in results)), report


def _stage_pulse_count(stage: str, n_pulses: int) -> int:
    stage = stage.strip().upper()
    if len(stage) != 1 or not "A" <= stage <= "Z":
        raise UsageError(f"--stage must be a single letter, got {stage!r}")
    count = ord(stage) - ord("A")
    if count > n_pulses:
        last = chr(ord("A") + n_pulses)
        raise UsageError(f"stage {stage} beyond this protocol (A..{last})")
    return count


def _cmd_qpd(opts) -> list[str]:
    dims, ops, spec = _protocol_setup(opts)
    n_pulses = _stage_pulse_count(opts["stage"], len(spec.pulses))
    grid = default_grid()
    if opts.get("grid"):
        try:
            n_theta, n_phi = (int(x) for x in opts["grid"].lower().split("x"))
            grid = default_grid(n_theta, n_phi)
        except ValueError:
            raise UsageError(f"--grid must be THETAxPHI, each >= 2, got {opts['grid']!r}") from None
    state = run(spec, dims, ops, float(opts.get("phi") or 0.0), n_pulses=n_pulses)
    field = qpd_field(state, grid)
    out = opts["out"]
    stage = opts["stage"].strip().upper()

    if opts.get("fmt") == "raw":
        data, meta = raw_layout(field, dims.n_atoms, stage)
        _atomic_write_bytes(out, data)
        return [out, *_write_json(out + ".json", meta)]
    return _write_csv(out, ["theta", "phi", "q"], (
        [fmt(theta), fmt(phi), fmt(q)] for theta, phi, q in field_to_csv_rows(field)))


def _cmd_collective(opts) -> list[str]:
    dims, ops, spec = _protocol_setup(opts)
    n_pulses = _stage_pulse_count(opts["stage"], len(spec.pulses))
    state = run(spec, dims, ops, float(opts.get("phi") or 0.0), n_pulses=n_pulses)
    dist = collective_distribution(state)
    return _write_csv(opts["out"], ["index", "m", "population"], (
        [str(i), fmt(mm), fmt(p)] for i, (mm, p) in enumerate(zip(dims.m_values(), dist))))


def _sweep(text: str, log) -> np.ndarray:
    """A linear start:stop:count grid, or a geometric one with --log."""
    start, stop, count = parse_range(text, angle=False)
    if not log:
        return np.linspace(start, stop, count)
    if start <= 0 or stop <= 0:
        raise UsageError("--log sweep needs positive bounds")
    return np.geomspace(start, stop, count)


def _cmd_cavity(opts) -> list[str]:
    out = opts["out"]
    if opts.get("coop_range") is not None:
        n = float(opts["n"])
        rows = []
        for coop in _sweep(opts["coop_range"], opts.get("log")):
            delta = opts.get("delta_tilde")
            if delta is None:
                delta = optimal_detuning(n, float(coop))
            rows.append((coop, improvement_factor(n, float(coop), float(delta))))
        ideal_db = fmt(10.0 * math.log10(n))
        return _write_csv(
            out, ["cooperativity", "theta", "f_exact_db", "f_approx_db", "f_ideal_db"],
            ([fmt(coop), fmt(b.theta_frac), fmt(b.f_db), fmt(b.f_approx_db), ideal_db]
             for coop, b in rows))

    if opts.get("params") is not None:
        try:
            with open(opts["params"]) as fh:
                params = CavityParams.from_json(fh.read())
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            raise UsageError(f"cannot read cavity params: {exc}") from exc
        zeta = steady_state_amplitude(params)
        chi = squeezing_rate_chi(params)
        report = {
            "steady_state_amplitude": {"re": zeta.real, "im": zeta.imag},
            "intracavity_photons": abs(zeta) ** 2,
            "chi": chi,
            "t_sc": squeezing_time(abs(chi)),
            "scattering_rate": scattering_rate(params, abs(chi)),
            "cooperativity_consistency": params.cooperativity_consistency(),
        }
        return _write_json(out, report)

    # design mode: engineering knobs around the reference cavity
    chi = chi_cavity_design(
        **{key: float(opts[key]) for key in _DESIGN_KNOBS if opts.get(key) is not None}
    )
    return _write_json(out, {"chi": chi, "t_sc": squeezing_time(abs(chi))})


def _cmd_excess_noise(opts) -> list[str]:
    n = int(opts["n"])
    en = _sweep(opts["en_range"], opts.get("log"))
    table = noise_model_table(n)
    curves = [excess_noise_curve(table[name], n, en) for name in NOISE_PROTOCOL_ORDER]
    header = ["delta_s_en"] + [p.replace("-", "_") for p in NOISE_PROTOCOL_ORDER]
    return _write_csv(opts["out"], header, (
        [fmt(e)] + [fmt(curve[i]) for curve in curves] for i, e in enumerate(en)))


def _cmd_parity_average(opts) -> list[str]:
    value = parity_average(float(opts["even"]), float(opts["odd"]))
    print(fmt(value))
    return _write_json(opts["out"], {"parity_average": value}) if opts.get("out") else []


_COMMANDS = {
    "fringe": _cmd_fringe,
    "sensitivity": _cmd_sensitivity,
    "qpd": _cmd_qpd,
    "collective": _cmd_collective,
    "cavity": _cmd_cavity,
    "excess-noise": _cmd_excess_noise,
    "parity-average": _cmd_parity_average,
}


def execute(config: RunConfig) -> int:
    """Run one validated command; writes artifacts and their manifests, with
    the extra manifest keys a scan command returns beside its artifacts."""
    t0 = time.perf_counter()
    artifacts = _COMMANDS[config.command](config.options)
    artifacts, record = artifacts if isinstance(artifacts, tuple) else (artifacts, {})
    wall = time.perf_counter() - t0
    for path in artifacts:
        write_manifest(path, config.command, config.options, wall, record)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():  # a library warning is one stderr line, without a path
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = parse_config(argv)
            return execute(config)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (ArithmeticError, BudgetError, DimensionError, RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
