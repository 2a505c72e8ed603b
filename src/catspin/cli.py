"""Command-line front end: deterministic scans written as CSV/JSON/raw artifacts.

Every command writes its outputs atomically (temp file + rename) and drops a
JSON run manifest beside each artifact.  Data files carry no timestamps, so
repeated runs are byte-identical; the manifest holds the wall-clock record.
A CSV cell is a float in '%.17g' (17 significant digits, '.' decimal,
locale-free), an integer index in '%d', or empty where the value is nan
(undefined); every line, the header's too, ends in CRLF.

Angles accept `0.5pi`-style literals (multiples of pi) as well as plain
radians; ranges are `start:stop:count`.  Exit codes: 0 ok, 1 usage error,
2 runtime/budget error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace

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
from catspin.dicke import EnsembleDims, build_operator_set
from catspin.husimi import default_grid, qpd_field, quadrature_residual, raw_layout
from catspin.observables import (
    excess_noise_curve,
    fringe_scan,
    noise_model_table,
    parity_average,
    sensitivity_scan_mu,
)
from catspin.protocols import PROTOCOL_IDS, Detection, ProtocolParams, builtin, run
from catspin.threads import blas_threads, budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

THREADS_ENV = "CATSPIN_THREADS"


class UsageError(argparse.ArgumentTypeError):
    """Bad flags or out-of-range values; exits with code 1.  Raised by a
    flag's type, argparse reports it under the flag's name."""


class _Parser(argparse.ArgumentParser):
    """Keeps the action of each flag by its dest, so that a config file can
    be read as the command's flags."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest != argparse.SUPPRESS:  # not --help
            self.flags[action.dest] = action
        return action


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


sweep_range = functools.partial(parse_range, angle=False)


def _checked(convert, ok, rule: str):
    """A flag's type: convert(text), refused unless ok(value)."""

    @functools.wraps(convert)  # argparse's 'invalid <name> value'
    def check(text):
        value = convert(text)
        if not ok(value):
            raise UsageError(f"{rule}, got {text!r}")
        return value

    return check


_MU_MAX = math.pi / 2 + 1e-12  # squeezing strengths lie in [0, 0.5pi]
_count = _checked(int, lambda value: value >= 1, "must be >= 1")
_positive = _checked(finite, lambda value: value > 0, "must be > 0")
_mu = _checked(parse_angle, lambda mu: 0.0 <= mu <= _MU_MAX, "must lie in [0, 0.5pi]")
_ascending = _checked(parse_range, lambda r: r[0] <= r[1], "must be ascending")


def _out_path(text: str) -> str:
    """An artifact path whose directory exists, checked before any work; a
    directory that vanishes mid-run still fails at the write (exit 2)."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"directory {folder!r} does not exist")
    return text


# Elements of the largest array qpd_field allocates: n_theta x max(n_phi, N + 1)
# for the weighted coefficients and the field, min(N + 1, n_phi) x n_phi for
# its phase table.  A complex array of 2^24 elements holds 256 MiB; a raw
# 4096 x 4096 field at N = 40, at the bound, would peak near 0.45 GiB,
# extrapolated from the 60 and 134 MiB measured at 1024 x 1024 and 2048 x
# 2048.  A larger grid is a usage error rather than an allocation that can
# fill memory before any MemoryError.  The default 181 x 361 grid at the
# N = 4000 cap takes 1.4 M.
_GRID_ELEMENTS = 1 << 24


def grid(text: str) -> tuple[int, ...]:
    """'THETAxPHI' point counts as a tuple of ints."""
    return tuple(int(count) for count in text.lower().split("x"))


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


# CSV rows formatted per write: bounds the text and cell lists held at once
_CSV_CHUNK = 1 << 10


def _write_csv(path: str, header: list[str], columns) -> list[str]:
    """Write a header and one row per element of the equal-length columns
    atomically: '%d' cells for an integer column, '%.17g' for the others.
    A nan cell is empty: '%.17g' prints every nan as 'nan', a text that no
    other float ('inf', '-0', '1e+300') holds, so the rows drop it."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\r\n"

    def write(fh):
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            rows = zip(*(c[start : start + _CSV_CHUNK].tolist() for c in columns))
            fh.write("".join(map(row.__mod__, rows)).replace("nan", ""))

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


# design-mode knobs of `cavity`; unset ones take the reference cavity's value
_DESIGN_KNOBS = ("delta_tilde", "power", "mode_side", "mirror_t")


def _add_protocol_flags(sub):
    sub.add_argument("--protocol", choices=PROTOCOL_IDS, default="scain")
    sub.add_argument("--n", type=_count, required=True, help="number of atoms")
    sub.add_argument("--mu", type=_mu, default="0.5pi", help="squeezing strength, e.g. 0.5pi")
    sub.add_argument("--ara", choices=["x", "y"], default="x", help="auxiliary rotation axis")
    sub.add_argument("--xi", type=int, choices=[1, -1], default=-1,
                     help="corrective rotation sign")
    sub.add_argument("--detection", choices=["cd", "csd"],
                     help="detection (default: the protocol's own, csd for cosac, else cd)")
    sub.add_argument("--csd-index", type=int, dest="csd_index")


def _add_scan_flags(sub, threads_env):
    sub.add_argument("--threads", type=_count, default=threads_env or None,
                     help=f"thread pool cap (default: ${THREADS_ENV}, else 2)")
    sub.add_argument("--gamma", type=_positive, default=1.0,
                     help="divide lambda by this linewidth factor")


@functools.cache
def _build_parser(threads_env: str | None) -> tuple[_Parser, dict]:
    """The parser and its command parsers by name, built once for each text
    of $CATSPIN_THREADS, the default of --threads."""
    parser = _Parser(prog="catspin", description=__doc__)
    parser.add_argument("--config", help="JSON file of options, read as flags")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("fringe", help="signal/SDS/PGS over a phi grid")
    _add_protocol_flags(p)
    p.add_argument("--phi-range", dest="phi_range", type=_ascending, required=True)
    p.add_argument("--out", type=_out_path, required=True)
    _add_scan_flags(p, threads_env)

    p = subs.add_parser("sensitivity", help="best Lambda per mu over the fringe window")
    _add_protocol_flags(p)
    p.add_argument("--mu-range", dest="mu_range", required=True, type=_checked(
        parse_range, lambda r: 0.0 <= r[0] <= r[1] <= _MU_MAX, "must lie within [0, 0.5pi]"))
    p.add_argument("--phi-window", dest="phi_window", type=_ascending)
    p.add_argument("--normalize-hl", dest="normalize_hl", action="store_true")
    p.add_argument("--out", type=_out_path, required=True)
    _add_scan_flags(p, threads_env)

    p = subs.add_parser("qpd", help="Husimi field of a protocol stage")
    _add_protocol_flags(p)
    p.add_argument("--phi", type=parse_angle, default=0.0, help="dark-zone scan phase")
    p.add_argument("--stage", required=True, help="stage letter A..")
    p.add_argument("--grid", help="THETAxPHI point counts, e.g. 181x361", type=_checked(
        grid, lambda counts: len(counts) == 2 and min(counts) >= 2, "must be THETAxPHI, each >= 2"))
    p.add_argument("--format", choices=["csv", "raw"], dest="fmt", default="csv")
    p.add_argument("--out", type=_out_path, required=True)

    p = subs.add_parser("collective", help="Dicke-state populations of a stage")
    _add_protocol_flags(p)
    p.add_argument("--phi", type=parse_angle, default=0.0)
    p.add_argument("--stage", required=True)
    p.add_argument("--out", type=_out_path, required=True)

    p = subs.add_parser("cavity", help="squeezing-cavity rates and budgets")
    p.add_argument("--n", type=_checked(finite, lambda n: n >= 1, "must be >= 1"),
                   help="number of atoms")
    p.add_argument("--coop-range", dest="coop_range", type=_checked(
        sweep_range, lambda r: r[0] > 0 and r[1] > 0, "bounds must be > 0"),
                   help="cooperativity sweep a:b:count")
    p.add_argument("--log", action="store_true", help="geometric sweep spacing")
    p.add_argument("--delta-tilde", dest="delta_tilde", type=finite,
                   help="probe detuning / cavity half width (default: optimal)")
    p.add_argument("--params", help="JSON file of cavity parameters (report mode)")
    p.add_argument("--power", type=finite, help="design-mode probe power (W)")
    p.add_argument("--mode-side", dest="mode_side", type=_positive)
    p.add_argument("--mirror-t", dest="mirror_t", type=_positive)
    p.add_argument("--out", type=_out_path, required=True)

    p = subs.add_parser("excess-noise", help="Lambda vs excess noise per protocol")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--en-range", dest="en_range", type=sweep_range, required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--out", type=_out_path, required=True)

    p = subs.add_parser("parity-average", help="RMS-average even/odd sensitivities")
    p.add_argument("--even", type=finite, required=True)
    p.add_argument("--odd", type=finite, required=True)
    p.add_argument("--out", type=_out_path)

    return parser, subs.choices


def _join_dash_values(argv: list[str]) -> list[str]:
    """A token with a single leading dash after a --flag is that flag's value
    (an angle, a range, a negative number), not an option."""
    out = []
    for token in argv:
        if (token.startswith("-") and not token.startswith("--") and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _file_flags(path: str, flags: dict) -> list[str]:
    """The JSON object in a config file as --flag=value tokens.  Each value is
    its flag's text (a string or a number), a switch takes true or false, and
    a key that names no flag of the command (no dest in flags) is ignored."""
    try:
        with open(path) as fh:
            file_options = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_options, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    tokens = []
    for key, value in file_options.items():
        if key not in flags:
            continue
        flag, switch = flags[key].option_strings[-1], flags[key].nargs == 0
        if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
            kind = "true or false" if switch else "a string or a number"
            raise UsageError(f"config option {key!r} must be {kind}, got {value!r}")
        if value is not False:
            tokens.append(flag if switch else f"{flag}={value}")
    return tokens


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags; the options of a --config file are read as flags placed
    right after the command word, so explicit flags override them."""
    parser, commands = _build_parser(os.environ.get(THREADS_ENV))
    argv = _join_dash_values(argv)
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("missing command")
    if args.config:  # after the command word, which a --config value may spell too
        at = next(i for i, token in enumerate(argv)
                  if token == args.command and argv[i - 1:i] != ["--config"]) + 1
        file_flags = _file_flags(args.config, commands[args.command].flags)
        args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])

    options = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    _validate(args.command, options)
    return RunConfig(command=args.command, options=options)


def _validate(command: str, opts: dict):
    """The rules that join two options; each option's own domain is checked
    by its flag's type."""
    if "detection" in opts and opts["detection"] is None:  # the protocol's own: CSD for cosac
        opts["detection"] = builtin(opts["protocol"]).detection.kind
    if opts.get("csd_index") is not None:
        if opts["detection"] != "csd":
            raise UsageError("--csd-index only applies with --detection csd")
        n = opts["n"]
        if not -(n + 1) <= opts["csd_index"] <= n:
            raise UsageError(f"--csd-index must lie in [{-(n + 1)}, {n}] for N={n}")
    if opts.get("grid") is not None:
        (n_theta, n_phi), dim = opts["grid"], opts["n"] + 1
        if max(n_theta, min(dim, n_phi)) * max(n_phi, dim) > _GRID_ELEMENTS:
            raise UsageError(f"--grid {n_theta}x{n_phi} at N={opts['n']} needs arrays over "
                             f"{_GRID_ELEMENTS} elements")
    if command == "cavity":
        design = any(opts[key] is not None for key in _DESIGN_KNOBS[1:])
        if sum([opts["coop_range"] is not None, opts["params"] is not None, design]) != 1:
            raise UsageError(
                "cavity needs exactly one of --coop-range (sweep), --params "
                "(report) or design knobs (--power/--mode-side/--mirror-t)"
            )
        if opts["coop_range"] is not None and opts["n"] is None:
            raise UsageError("cavity sweep needs --n")


# --- command implementations ----------------------------------------------------


def _protocol_setup(opts):
    dims = EnsembleDims(opts["n"])
    ops = build_operator_set(dims)
    detection = Detection("csd", index=opts["csd_index"]) if opts["detection"] == "csd" else None
    params = ProtocolParams(mu=opts["mu"], ara=opts["ara"], xi=opts["xi"], detection=detection)
    spec = builtin(opts["protocol"], params)
    if spec.detection.kind != opts["detection"]:  # CD on cosac; CAC keeps its own CD, which adds j
        spec = builtin(opts["protocol"], replace(params, detection=Detection("cd")))
    return dims, ops, spec


def _cmd_fringe(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    phis = np.linspace(*opts["phi_range"])
    report = {}
    fringe = fringe_scan(spec, dims, ops, phis, threads=opts["threads"], report=report)
    lam = fringe.sensitivity(dims)
    report["health"]["undefined_lambda"] = int(np.count_nonzero(np.isnan(lam)))
    return _write_csv(opts["out"], ["phi", "signal", "sds", "pgs", "lambda"], [
        fringe.phi, fringe.signal, fringe.sds, fringe.pgs, lam / opts["gamma"]]), report


def _cmd_sensitivity(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    mus = np.linspace(*opts["mu_range"])
    window = None if opts["phi_window"] is None else np.linspace(*opts["phi_window"])
    report = {}
    sweep = sensitivity_scan_mu(spec, dims, ops, mus, phi_window=window,
                                threads=opts["threads"], report=report)
    report["health"]["undefined_lambda"] = int(np.count_nonzero(np.isnan(sweep.lam)))
    hl = dims.n_atoms if opts["normalize_hl"] else 1.0  # as a fraction of the Heisenberg limit
    return _write_csv(opts["out"], ["mu", "lambda", "phi_star"], [
        sweep.mu, sweep.lam / hl / opts["gamma"], sweep.phi_star]), report


def _stage_pulse_count(stage: str, n_pulses: int) -> int:
    stage = stage.strip().upper()
    if len(stage) != 1 or not "A" <= stage <= "Z":
        raise UsageError(f"--stage must be a single letter, got {stage!r}")
    count = ord(stage) - ord("A")
    if count > n_pulses:
        last = chr(ord("A") + n_pulses)
        raise UsageError(f"stage {stage} beyond this protocol (A..{last})")
    return count


def _cmd_qpd(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    n_pulses = _stage_pulse_count(opts["stage"], len(spec.pulses))
    state = run(spec, dims, ops, opts["phi"], n_pulses=n_pulses)
    field = qpd_field(state, default_grid(*(opts["grid"] or ())))
    out = opts["out"]
    record = {"health": {"husimi_residual": quadrature_residual(field, dims.n_atoms)}}
    if opts["fmt"] == "raw":
        data, meta = raw_layout(field, dims.n_atoms, opts["stage"].strip().upper())
        _atomic_write_bytes(out, data)
        _write_json(out + ".json", meta)  # the sidecar shares the .bin's manifest
        return [out], record
    thetas, phis = field.grid.thetas, field.grid.phis
    return _write_csv(out, ["theta", "phi", "q"], [  # row-major: theta outer, phi inner
        np.repeat(thetas, phis.size), np.tile(phis, thetas.size), field.values.ravel()]), record


def _cmd_collective(opts) -> tuple[list[str], dict]:
    dims, ops, spec = _protocol_setup(opts)
    n_pulses = _stage_pulse_count(opts["stage"], len(spec.pulses))
    state = run(spec, dims, ops, opts["phi"], n_pulses=n_pulses)
    return _write_csv(opts["out"], ["index", "m", "population"], [
        np.arange(dims.dim), dims.m_values(), state.populations()]), {}


def _sweep(bounds: tuple[float, float, int], log: bool) -> np.ndarray:
    """A linear start:stop:count grid, or a geometric one with --log."""
    start, stop, count = bounds
    if not log:
        return np.linspace(start, stop, count)
    if start <= 0 or stop <= 0:
        raise UsageError("--log sweep needs positive bounds")
    return np.geomspace(start, stop, count)


def _cmd_cavity(opts) -> tuple[list[str], dict]:
    out = opts["out"]
    if opts["coop_range"] is not None:
        n, coops, errors = opts["n"], _sweep(opts["coop_range"], opts["log"]), []
        budget = np.full((coops.size, 3), np.nan)  # theta, f_exact_db, f_approx_db
        for row, coop in enumerate(coops.tolist()):
            delta = opts["delta_tilde"]
            if delta is None:
                delta = optimal_detuning(n, coop)
            try:  # a row past the budget's validity keeps nan (empty) theta and f cells
                b = improvement_factor(n, coop, float(delta))
                budget[row] = b.theta_frac, b.f_db, b.f_approx_db
            except BudgetError as exc:
                errors.append(exc)
        if len(errors) == coops.size:
            raise errors[0]
        if errors:
            warnings.warn(f"{len(errors)} of {coops.size} rows left empty, first: {errors[0]}")
        columns = [coops, *budget.T, np.full(coops.size, 10.0 * math.log10(n))]
        return _write_csv(out, ["cooperativity", "theta", "f_exact_db", "f_approx_db",
                                "f_ideal_db"], columns), {"invalid_rows": len(errors)}

    if opts["params"] is not None:
        try:
            with open(opts["params"]) as fh:
                params = CavityParams.from_json(fh.read())
        except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
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
        return _write_json(out, report), {}

    # design mode: engineering knobs around the reference cavity
    chi = chi_cavity_design(**{key: opts[key] for key in _DESIGN_KNOBS if opts[key] is not None})
    return _write_json(out, {"chi": chi, "t_sc": squeezing_time(abs(chi))}), {}


def _cmd_excess_noise(opts) -> tuple[list[str], dict]:
    n = opts["n"]
    en = _sweep(opts["en_range"], opts["log"])
    table = noise_model_table(n)
    curves = [excess_noise_curve(row, n, en) for row in table.values()]
    header = ["delta_s_en"] + [name.replace("-", "_") for name in table]
    return _write_csv(opts["out"], header, [en, *curves]), {}


def _cmd_parity_average(opts) -> tuple[list[str], dict]:
    value = parity_average(opts["even"], opts["odd"])
    print("%.17g" % value)
    return (_write_json(opts["out"], {"parity_average": value}) if opts["out"] else []), {}


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
    """Run one validated command in one threads.budget of its --threads;
    writes artifacts and their manifests, with the threads the command ran
    on and the extra manifest keys it returns beside its artifacts."""
    t0 = time.perf_counter()
    with budget(config.options.get("threads")) as pool:
        artifacts, record = _COMMANDS[config.command](config.options)
        record = {"pool_workers": pool.used, "blas_threads": blas_threads(), **record}
    wall = time.perf_counter() - t0
    for path in artifacts:
        write_manifest(path, config.command, config.options, wall, record)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with warnings.catch_warnings():  # a library warning is one stderr line, without a path,
        warnings.simplefilter("default")  # also where the interpreter's filters raise it
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = parse_config(argv)
            return execute(config)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # BudgetError is a RuntimeError, DimensionError a ValueError
        except (ArithmeticError, MemoryError, RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
