"""Command-line front end: run the pipelines, emit CSV/JSON artifacts.

Every subcommand resolves a chain (from a JSON spec file or a named
model), writes its outputs into the chosen directory, and drops a run
manifest next to them recording the resolved configuration, an input
digest, the output list, and versions.  Outputs are byte-identical for
identical configurations, RNG seeds included.

A subcommand's handler only computes: it returns its configuration, its
outputs (JSON documents and CSV tables by file name) and its exit code,
and _run_job writes them.  So outputs are written only after the job has
computed everything, and a refused run writes nothing and creates no
directory.

density and transition tabulate their value at --t-count points from
--t-min to --t-max.  On the default, evenly spaced grid the values come
from densities' grid kernel (_grid_sum), which evaluates at t_min + m h,
within rounding of the np.linspace point in the t column; a --log-grid
goes through spectral_sum.

CSV numbers are written as '%.17g' % x: 17 significant digits, which
read back to the same float (0.1 is written 0.10000000000000001), and
nan, inf and -inf spelled that way.  Tables of floats go through the
vectorized formatter in _floatfmt, _CSV_BLOCK rows at a time; its bytes
are those of '%' and do not depend on the block size.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure
(a failed check or a result flagged unreliable).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from fractions import Fraction

import numpy as np

try:
    # CPython's own SHA-256, as random.py takes its SHA-512: hashlib would
    # load OpenSSL (3.5 MB) to hash a 1 KB config
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, _lapack
from ._floatfmt import FLOAT_FMT, format_rows
from .cmatrix import build_c_matrix, verify_columns
from .densities import (
    InitialDistribution,
    _grid_sum,
    finite_evaluator,
    rw_evaluator,
    spectral_sum,
    time_grid,
)
from .htransform import (
    asymmetric_rw,
    rw_gamma_eigenfunctions,
    transform_cmatrix,
    transformed_evaluator,
)
from .model import _as_int, _as_rate, apply_DpiDs, apply_Q, load_spec, spec_from_dict
from .reproduce import derivative_bound_sequence, recover_initial
from .simulate import (
    SimConfig,
    empirical_hitting,
    expected_jumps,
    ks_statistic,
    sample_path,
)
from .spectral import orthogonality_defect, stieltjes_check

_CSV_BLOCK = 1024  # rows per write of an all-float table, which keeps its memory flat
_KS_CRIT_1PCT = 1.6276  # sqrt(-ln(0.005)/2), asymptotic 1% point
# Expected jumps one simulation may take over all its paths: about 10 s of
# the sampler at 9-11 million jumps a second (2 vCPU, 1e5 paths at N = 10
# and 30).
_JUMP_BUDGET = 1e8


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_rate(text):
    """Rate flag: int stays exact, "p/q" is read as in a JSON spec, else float.

    A refusal is an ArgumentTypeError, whose message argparse prints after
    the flag's name; any other exception would print this function's name.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return _as_rate(text, "rate") if "/" in text else float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_nu(text):
    """Compact "state:mass,..." list; rejected unless the masses sum to 1
    within 1e-9 (then normalized exactly)."""
    items = {}
    for part in text.split(","):
        state_s, sep, mass_s = part.partition(":")
        if not sep:
            raise ValueError(f"nu: expected state:mass, got {part!r}")
        try:
            state = int(state_s)
            mass = float(mass_s)
        except ValueError as exc:
            raise ValueError(f"nu: cannot parse {part!r}") from exc
        if not 0 < mass <= 1 + 1e-9:  # also refuses nan and inf before fsum meets them
            raise ValueError(f"nu: mass in {part!r} must lie in (0, 1]")
        if state in items:
            raise ValueError(f"nu: state {state} listed twice")
        items[state] = mass
    total = math.fsum(items.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"nu: masses sum to {total!r} (off by more than 1e-9); refusing to renormalize"
        )
    return InitialDistribution({s: m / total for s, m in items.items()})


def _add_model_flags(p):
    p.add_argument("--spec", metavar="FILE", help="JSON process spec")
    p.add_argument(
        "--model", choices=("symmetric_rw", "asymmetric_rw"), help="named rate family"
    )
    p.add_argument("--kappa", type=_parse_rate, help="rate of the symmetric walk")
    p.add_argument(
        "--lambda", dest="lam_rate", type=_parse_rate, help="birth rate (asymmetric walk)"
    )
    p.add_argument("--mu", dest="mu_rate", type=_parse_rate, help="death rate (asymmetric walk)")
    p.add_argument("--N", dest="n_states", type=int, help="number of interior states")
    p.add_argument("--out-dir", help="output directory (default $BDHIT_OUTDIR or .)")


def _resolve_spec(args, parser):
    if args.spec is not None:
        if not os.path.exists(args.spec):
            raise ValueError(f"spec file not found: {args.spec}")
        return load_spec(args.spec)
    if args.model is None:
        parser.error("need --spec FILE or --model NAME")
    flags = {"kappa": args.kappa, "lambda": args.lam_rate, "mu": args.mu_rate, "N": args.n_states}
    return spec_from_dict(
        {"model": args.model, **{k: v for k, v in flags.items() if v is not None}}
    )


def _out_dir(args):
    d = args.out_dir or os.environ.get("BDHIT_OUTDIR") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _fmt(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return FLOAT_FMT % float(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path, doc):
    """Write doc, already converted by _jsonable, with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, columns):
    """CSV of equal-length columns under a header line.

    A table of numpy float columns is widened to float64, interleaved by
    numpy and formatted by format_rows _CSV_BLOCK rows at a time, which
    keeps memory flat on long grids; its bytes are those of FLOAT_FMT
    whatever the block size.  Any other table is formatted cell by cell
    with _fmt, a None becoming an empty cell.  A table with no rows is its
    header.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if all(isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns):
            data = np.column_stack(columns).astype(np.float64, copy=False)
            for start in range(0, len(data), _CSV_BLOCK):
                fh.write(format_rows(data[start:start + _CSV_BLOCK]))
        else:
            for cells in zip(*columns):
                line = ",".join("" if v is None else _fmt(v) for v in cells) + "\n"
                fh.write(line.encode("utf-8"))


def _cmatrix_table(c):
    """Rows 0..max_index of a C-matrix as (row, col, value) columns."""
    cells = [(i, j, v) for i, row in enumerate(c.rows) for j, v in enumerate(row)]
    return ("row", "col", "value"), tuple(zip(*cells))


def _run_job(args, parser):
    """Run the subcommand's handler, then write its outputs and the manifest.

    A handler computes everything and returns (config, outputs, exit
    code), outputs mapping each file name to a JSON document (a dict) or
    a (header, columns) table.  Only then is the output directory made
    and written, so a refused job writes nothing.
    """
    started = time.monotonic()
    config, outputs, code = args.func(args, parser)
    out = _out_dir(args)
    for name, content in outputs.items():
        path = os.path.join(out, name)
        if isinstance(content, dict):
            _write_json(path, _jsonable(content))
        else:
            _write_table(path, *content)
    config = _jsonable(config)  # the one conversion: hashed and written as is
    digest = sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    manifest = {
        "command": args.command,
        "config": config,
        "input_digest": digest,
        "outputs": sorted(outputs),
        "versions": {
            "bdhit": __version__,
            "numpy": np.__version__,
            "lapack": _lapack.SOURCE,
            "python": sys.version.split()[0],
        },
        "wall_clock_s": round(time.monotonic() - started, 6),
    }
    _write_json(os.path.join(out, f"{args.command}_manifest.json"), manifest)
    return code


# ---------------------------------------------------------------- subcommands


def _rows(args, default):
    """The --rows flag, or default when it is not given; refused below 1."""
    if args.rows is None:
        return default
    return _as_int(args.rows, "--rows", 1)


def _cmd_cmatrix(args, parser):
    spec = _resolve_spec(args, parser)
    rows = _rows(args, min(spec.n_states, 16))
    c = build_c_matrix(spec, rows)
    cfg = {"spec": spec.to_dict(), "rows": c.max_index, "rational": c.rational}
    return cfg, {"cmatrix.csv": _cmatrix_table(c)}, 0


def _continuous_kappa(args, parser):
    """The walk rate --continuous reads; refused unless the model is the walk."""
    if args.model != "symmetric_rw" or args.kappa is None:
        parser.error("--continuous needs --model symmetric_rw --kappa K")
    return args.kappa


def _cmd_spectrum(args, parser):
    if args.continuous:
        # one state: theta and the weights do not depend on the table width
        ev = rw_evaluator(_continuous_kappa(args, parser), n_nodes=args.nodes, n_states=1)
        cfg = {
            "model": "symmetric_rw",
            "kappa": args.kappa,
            "continuous": True,
            "nodes": args.nodes,
        }
    else:
        spec = _resolve_spec(args, parser)
        ev = finite_evaluator(spec)
        cfg = {"spec": spec.to_dict(), "continuous": False}
    return cfg, {"spectrum.csv": (("theta", "weight"), (ev.theta, ev.weights))}, 0


def _grid_series(args, ev, t_min, start, target, column):
    """(grid config, (t, column) table) over the grid flags: a log grid
    through spectral_sum, an evenly spaced one through the grid kernel."""
    grid = time_grid(t_min, args.t_max, args.t_count, log=args.log_grid)
    if args.log_grid:
        values = spectral_sum(ev, grid, start, target)
    else:
        values = _grid_sum(ev, grid[0], grid[-1], len(grid), start, target)
    cfg = {
        "t_min": float(grid[0]),
        "t_max": args.t_max,
        "t_count": args.t_count,
        "log": args.log_grid,
    }
    return cfg, (("t", column), (grid, values))


def _cmd_density(args, parser):
    t_min = args.t_min
    nu = _parse_nu(args.nu) if args.nu else None
    start = args.state if nu is None else nu
    if args.continuous:
        kappa = _continuous_kappa(args, parser)
        # the table reaches the deepest state read, unless --N sets it
        top = args.state if nu is None else nu.max_state
        ev = rw_evaluator(kappa, n_nodes=args.nodes, n_states=args.n_states or max(top, 1))
        cfg_spec = {"model": "symmetric_rw", "kappa": args.kappa, "continuous": True}
        t_min = max(t_min, 1e-8)  # termwise evaluation is unsafe at t = 0 for the walk
    else:
        spec = _resolve_spec(args, parser)
        ev = finite_evaluator(spec)
        cfg_spec = spec.to_dict()
    grid_cfg, table = _grid_series(args, ev, t_min, start, "absorption", "f")
    cfg = {
        "spec": cfg_spec,
        "state": None if nu is not None else args.state,
        "nu": dict(nu.items) if nu is not None else None,
        "grid": grid_cfg,
    }
    return cfg, {"density.csv": table}, 0


def _cmd_transition(args, parser):
    spec = _resolve_spec(args, parser)
    ev = finite_evaluator(spec)
    target = ("state", args.to_state)
    grid_cfg, table = _grid_series(args, ev, args.t_min, args.from_state, target, "p")
    cfg = {
        "spec": spec.to_dict(),
        "from": args.from_state,
        "to": args.to_state,
        "grid": grid_cfg,
    }
    return cfg, {"transition.csv": table}, 0


def _is_numbers(line):
    """True when every comma-separated field parses as a float ("nan" and "1e-3" do)."""
    try:
        for field in line.split(","):
            float(field)
    except ValueError:
        return False
    return True


def _read_samples_csv(path):
    """(t, f) rows of a samples file, under an optional header line.

    A file with no rows, or with a value that is not finite, is refused
    here: a NaN or inf sample would reach the fit and come back as a
    result flagged ill-conditioned, which names the wrong cause.
    """
    if not os.path.exists(path):
        raise ValueError(f"samples file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    skip = 1 if lines and not _is_numbers(lines[0]) else 0
    body = [line for line in lines[skip:] if line.split("#", 1)[0].strip()]
    if not body:
        raise ValueError(f"samples: no rows in {path}")
    data = np.loadtxt(body, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"samples: expected two columns (t, f), got {data.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        t, f = data[bad[0]].tolist()
        raise ValueError(
            f"samples: data row {bad[0] + 1} of {path} is not finite (t={t!r}, f={f!r})"
        )
    return data


def _cmd_reproduce(args, parser):
    spec = _resolve_spec(args, parser)
    nu = _parse_nu(args.nu) if args.nu else None
    ev = finite_evaluator(spec, c_rows=max(args.j_max, 16))
    if args.samples is not None:
        samples = _read_samples_csv(args.samples)
        mode = "numeric"
    elif args.mode == "numeric":
        if nu is None:
            parser.error("numeric mode needs --samples FILE or --nu to synthesize from")
        samples = lambda t: spectral_sum(ev, t, nu)  # noqa: E731
        mode = "numeric"
    else:
        mode = args.mode
        samples = None
    report = recover_initial(
        ev,
        nu=nu,
        samples=samples,
        j_max=args.j_max,
        mode=mode,
        t0=args.t0,
        window_factor=args.window_factor,
        force=args.force,
    )
    blank = (None,) * len(report.states)
    table = ("j", "recovered", "reference", "abs_error"), (
        report.states,
        report.recovered,
        blank if report.reference is None else report.reference,
        blank if report.abs_error is None else report.abs_error,
    )
    cfg = {
        "spec": spec.to_dict(),
        "mode": mode,
        "j_max": args.j_max,
        "t0": args.t0,
        "window_factor": args.window_factor,
        "nu": dict(nu.items) if nu is not None else None,
        "samples": args.samples,
    }
    outputs = {"reproduce.json": report.to_dict(), "reproduce.csv": table}
    if not report.reliable:
        print("reproduce: result flagged unreliable (ill-conditioned fit)", file=sys.stderr)
        return cfg, outputs, 2
    return cfg, outputs, 0


def _cmd_htransform(args, parser):
    target_form = args.target_lambda is not None or args.target_mu is not None
    if target_form:
        if args.target_lambda is None or args.target_mu is None or args.n_states is None:
            parser.error("target form needs --target-lambda, --target-mu and --N")
        spec2, ht = asymmetric_rw(args.target_lambda, args.target_mu, args.n_states)
        cfg = {
            "target_lambda": args.target_lambda,
            "target_mu": args.target_mu,
            "N": args.n_states,
            "gamma": ht.gamma,
        }
    else:
        if args.gamma is None:
            parser.error("need --gamma G (with a symmetric_rw base) or --target-lambda/--target-mu")
        if args.model != "symmetric_rw" or args.kappa is None or args.n_states is None:
            parser.error("--gamma needs --model symmetric_rw --kappa K --N n")
        plus, minus = rw_gamma_eigenfunctions(args.kappa, args.gamma, args.n_states)
        ht = minus if args.branch == "minus" else plus
        cfg = {
            "model": "symmetric_rw",
            "kappa": args.kappa,
            "N": args.n_states,
            "gamma": args.gamma,
            "branch": args.branch,
        }
    rows = _rows(args, min(ht.n_states, 12))
    if target_form:
        # the target chain's own rows, exact when its rates are
        c2 = build_c_matrix(spec2, rows)
    else:
        c2 = transform_cmatrix(build_c_matrix(ht.base, rows), ht)
    outputs = {
        "htransform_spec.json": {**c2.spec.to_dict(), "gamma": ht.gamma, "k_values": ht.k_values},
        "htransform_cmatrix.csv": _cmatrix_table(c2),
    }
    return cfg, outputs, 0


def _cmd_simulate(args, parser):
    spec = _resolve_spec(args, parser)
    nu = _parse_nu(args.nu)
    config = SimConfig(
        n_paths=args.paths, t_horizon=args.horizon, seed=args.seed, initial=nu
    )
    too_long = _over_budget(spec, nu, config.n_paths, config.t_horizon)
    if too_long:
        raise ValueError(f"simulate: {too_long}; lower --paths or --horizon")
    sample = empirical_hitting(spec, config)
    ev = None if sample.n_censored else finite_evaluator(spec)
    ks, critical = _ks_gate(ev, sample, nu)
    passed = ks is not None and ks < critical
    summary = {
        "n_paths": config.n_paths,
        "n_absorbed": int(len(sample.times)),
        "n_censored": sample.n_censored,
        "mean_hitting_time": float(np.mean(sample.times)) if len(sample.times) else None,
        "ks_statistic": ks,
        "ks_critical_1pct": critical,
        "passed": passed,
    }
    cfg = {
        "spec": spec.to_dict(),
        "paths": args.paths,
        "horizon": args.horizon,
        "seed": args.seed,
        "nu": dict(nu.items),
    }
    outputs = {
        "simulate_samples.csv": (("t_hit",), (sample.times,)),
        "simulate_summary.json": summary,
    }
    if sample.n_censored:
        print(
            f"simulate: {sample.n_censored} paths censored at the horizon; "
            "no KS comparison possible",
            file=sys.stderr,
        )
    return cfg, outputs, 0 if passed else 2  # censored paths leave passed False


def _over_budget(spec, nu, n_paths, horizon):
    """Why simulating n_paths paths from nu would overrun _JUMP_BUDGET, or None.

    A path makes expected_jumps(spec, nu) jumps on average before it is
    absorbed, and at most horizon * max(lambda_i + mu_i) on average
    before the horizon censors it.
    """
    fastest = float(np.max(spec.lam_array() + spec.mu_array()))
    per_path = min(expected_jumps(spec, nu), horizon * fastest)
    total = n_paths * per_path
    if total <= _JUMP_BUDGET:
        return None
    return (
        f"{n_paths} paths x {per_path:.3g} expected jumps each = {total:.3g} jumps, "
        f"over the budget of {_JUMP_BUDGET:.3g}"
    )


def _ks_gate(ev, sample, nu):
    """(D, critical) for the KS test of sample against ev's hitting CDF from nu.

    D comes from one spectral_sum call over every sample time; it is None,
    and ev is not read, when paths were censored.  critical is the
    asymptotic 1% point for the sample size.
    """
    critical = _KS_CRIT_1PCT / math.sqrt(sample.n_paths)
    if sample.n_censored:
        return None, critical
    return ks_statistic(sample, lambda t: spectral_sum(ev, t, nu, transform="cdf")), critical


# ------------------------------------------------------------------- verify


def _is_constant_symmetric(spec):
    kappa = spec.mu[0]
    return all(r == kappa for r in spec.mu) and all(
        r == kappa for r in spec.lam[:-1]
    )


def _verify_battery(spec):
    """Yield (name, passed, detail) for the cross-module property checks.

    passed is None for a check skipped, with the reason as its detail: the
    two simulations are skipped when their expected jumps overrun
    _JUMP_BUDGET.  A check that raises ValueError or ArithmeticError fails,
    with "raised <type>: <message>" as its detail, and the battery goes on.
    """
    for name, check in _verify_checks(spec):
        try:
            passed, detail = check()
        except (ValueError, ArithmeticError) as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, passed, detail


def _verify_checks(spec):
    """Yield (name, check) in battery order; check() gives (passed, detail)."""
    n = spec.n_states
    rows = min(n, 10)
    ev = finite_evaluator(spec, c_rows=rows)
    c = ev.c
    pi = c.pi
    s = c.s
    lam = spec.lam_array()
    mu = spec.mu_array()
    theta_min = float(ev.theta[0])
    nu = InitialDistribution({1: 1.0})

    def balance():
        defect = max(
            abs(float(pi[i + 1]) * mu[i] - float(pi[i]) * lam[i - 1])
            for i in range(1, n)
        ) if n > 1 else 0.0
        scale = float(np.max(ev.pi * mu))
        return defect <= 1e-12 * scale, f"defect {defect:g}"

    yield "speed-measure-balance", balance

    def factorization():
        # a fixed test vector from numpy alone: a seeded generator would
        # import numpy.random on the first verify job; the golden angle
        # keeps the entries spread over [-1, 1] at every length
        f = np.sin(1.0 + 2.399963229728653 * np.arange(n + 1))
        q1 = np.asarray(apply_Q(spec, f))
        q2 = np.asarray(apply_DpiDs(spec, pi, s, f))
        d = float(np.max(np.abs(q1 - q2)))
        sc = float(np.max(np.abs(q1))) + 1.0
        return d <= 1e-10 * sc, f"max diff {d:g}"

    yield "generator-factorization", factorization

    def harmonic():
        qs = np.asarray(apply_Q(spec, s.array()))
        d = float(np.max(np.abs(qs[: n - 1]))) if n > 1 else 0.0
        sc = float(np.max(mu * np.abs(s.array()).max() + 1.0))
        return d <= 1e-10 * sc, f"max |Qs| {d:g} on 1..{n - 1}"

    yield "scale-harmonic", harmonic

    def recursion():
        d = verify_columns(c)
        sc = float(max(abs(float(v)) for row in c.rows for v in row)) + 1.0
        return d <= 1e-10 * sc, f"defect {d:g}"

    yield "cmatrix-column-recursion", recursion

    def atoms():
        ok = bool(np.all(np.diff(ev.theta) > 0) and ev.theta[0] > 0)
        return ok, f"theta[0] {ev.theta[0]:g}"

    yield "spectrum-atoms-positive-ascending", atoms

    def orthogonality():
        m = min(rows, 6)
        d = max(
            orthogonality_defect(ev, i, j)
            for i in range(1, m + 1)
            for j in range(i, m + 1)
        )
        return d <= 1e-9, f"max defect {d:g}"

    yield "eigenfunction-orthogonality", orthogonality

    def total_mass():
        # the hitting CDF at t = inf, from every state
        mass = spectral_sum(ev, (np.inf,), range(1, n + 1), transform="cdf")
        d = float(np.max(np.abs(mass - 1.0)))
        return d <= 1e-9, f"max defect {d:g}"

    yield "density-total-mass", total_mass

    def cdf_limits():
        t_big = 40.0 / theta_min
        cdf_vals = spectral_sum(ev, np.linspace(0.0, t_big, 20), nu, transform="cdf")
        mono = bool(np.all(cdf_vals[1:] >= cdf_vals[:-1] - 1e-12))
        ok = cdf_vals[0] == 0.0 and abs(cdf_vals[-1] - 1.0) <= 1e-6 and mono
        return ok, f"F(0) {cdf_vals[0]:g}, F(T) {cdf_vals[-1]:.9f}"

    yield "hitting-cdf-limits", cdf_limits

    def link():
        ts = (0.3, 1.0, 2.5)
        mu1 = float(spec.mu[0])
        starts = range(1, min(3, n) + 1)
        f = spectral_sum(ev, ts, starts)
        d = float(np.max(np.abs(f - mu1 * spectral_sum(ev, ts, starts, ("state", 1)))))
        return d <= 1e-12, f"max diff {d:g}"

    yield "density-transition-link", link

    def reproduction():
        k_sup = min(3, n)
        nu2 = InitialDistribution({i: 1.0 / k_sup for i in range(1, k_sup + 1)})
        report = recover_initial(ev, nu=nu2, j_max=min(4, n), mode="spectral")
        d = report.max_abs_error
        return d <= 1e-9, f"max error {d:g}"

    yield "spectral-reproduction", reproduction

    def derivative_bounds():
        k_max = min(4, rows - 1)
        alpha = derivative_bound_sequence(c, k_max)
        worst = 0.0
        starts = range(1, min(n, 8) + 1)
        for k in range(k_max + 1):
            v = np.abs(spectral_sum(ev, (0.05, 0.3, 1.0, 3.0), starts, transform=k))
            worst = max(worst, float(v.max()) - float(alpha[k]) * (1 + 1e-12))
        return worst <= 1e-12, f"max excess {worst:g}"

    yield "derivative-bounds", derivative_bounds

    if _is_constant_symmetric(spec):
        kappa = float(spec.mu[0])

        def stieltjes():
            ratios = [stieltjes_check(spec, th, max(n, 200)) for th in (0.5, 1.0, 4.0)]
            d = max(abs(numeric - closed) for numeric, closed in ratios)
            return d <= 1e-6, f"max diff {d:g}"

        yield "stieltjes-ratio", stieltjes

        gamma = kappa / 2
        try:
            plus, _ = rw_gamma_eigenfunctions(spec.mu[0], gamma, n)
            ev2 = transformed_evaluator(ev, plus)
        except (ValueError, OverflowError) as exc:
            # the tilted chain is out of reach (its speed measure leaves float
            # range from N = 513 on the kappa = 1 walk): both of its checks
            # fail, and the battery goes on
            refused = False, f"tilted evaluator refused: {exc}"
            yield "htransform-cmatrix-commutation", lambda: refused
            yield "htransform-density-conjugacy", lambda: refused
        else:
            def commutation():
                c2 = ev2.c
                c2_direct = build_c_matrix(c2.spec, c.max_index, rational=False)
                d = 0.0
                for i in range(c.max_index + 1):
                    for j in range(i + 1):
                        a = float(c2.rows[i][j])
                        b = float(c2_direct.rows[i][j])
                        d = max(d, abs(a - b) / max(1.0, abs(b)))
                return d <= 1e-10, f"max rel diff {d:g}"

            yield "htransform-cmatrix-commutation", commutation

            def conjugacy():
                x, t = min(2, n), 0.7
                lhs = spectral_sum(ev2, (t,), x)[0]
                # f'_x(t) = exp(-gamma t) f_x(t) / k(x)
                f = spectral_sum(ev, (t,), x)[0]
                rhs = math.exp(-float(plus.gamma) * t) * f / float(plus.k_values[x])
                d = abs(lhs - rhs) / max(abs(rhs), 1e-300)
                return d <= 1e-9, f"rel diff {d:g}"

            yield "htransform-density-conjugacy", conjugacy

    def monte_carlo_ks():
        horizon = 80.0 / theta_min
        too_long = _over_budget(spec, nu, 2000, horizon)
        if too_long:
            return None, too_long
        config = SimConfig(n_paths=2000, t_horizon=horizon, seed=20260816, initial=nu)
        sample = empirical_hitting(spec, config)
        if sample.n_censored:
            return False, f"{sample.n_censored} paths censored"
        ks, crit = _ks_gate(ev, sample, nu)
        return ks < crit, f"D {ks:.5f} vs critical {crit:.5f}"

    yield "monte-carlo-ks", monte_carlo_ks

    def determinism():
        horizon = 80.0 / theta_min
        too_long = _over_budget(spec, nu, 1, horizon)
        if too_long:
            return None, too_long
        traj_a, hit_a = sample_path(spec, 1, 99, horizon)
        traj_b, hit_b = sample_path(spec, 1, 99, horizon)
        return (traj_a, hit_a) == (traj_b, hit_b), "replayed path"

    yield "simulation-determinism", determinism


def _cmd_verify(args, parser):
    spec = _resolve_spec(args, parser)
    results = []
    for name, passed, detail in _verify_battery(spec):
        if passed is not None:
            passed = bool(passed)
        results.append({"name": name, "passed": passed, "detail": detail})
        line = f"{'SKIP' if passed is None else 'PASS' if passed else 'FAIL'} {name}"
        if not passed:
            line += f" ({detail})"
        print(line)
    doc = {"spec": spec.to_dict(), "results": results}
    code = 2 if any(r["passed"] is False for r in results) else 0
    return {"spec": spec.to_dict()}, {"verify.json": doc}, code


# --------------------------------------------------------------------- main


def _arg(*flags, **kwargs):
    return flags, kwargs


_GRID_ARGS = (
    _arg("--t-min", type=float, default=0.01),
    _arg("--t-max", type=float, default=5.0),
    _arg("--t-count", type=int, default=200),
    _arg("--log-grid", action="store_true"),
)

# name, help, arguments after the model flags, handler: the one description
# of each subcommand
_COMMANDS = (
    ("cmatrix", "emit C-matrix rows as CSV", (
        _arg("--rows", type=int, help="last row to build (default min(N, 16))"),
    ), _cmd_cmatrix),
    ("spectrum", "emit spectral atoms or quadrature nodes", (
        _arg("--continuous", action="store_true", help="walk quadrature instead of atoms"),
        _arg("--nodes", type=int, default=128, help="quadrature node count"),
    ), _cmd_spectrum),
    ("density", "absorption density over a time grid", (
        *_GRID_ARGS,
        _arg("--state", type=int, default=1, help="start state"),
        _arg("--nu", help="initial distribution state:mass,..."),
        _arg("--continuous", action="store_true"),
        _arg("--nodes", type=int, default=128),
    ), _cmd_density),
    ("transition", "transition probability over a time grid", (
        *_GRID_ARGS,
        _arg("--from", dest="from_state", type=int, required=True),
        _arg("--to", dest="to_state", type=int, required=True),
    ), _cmd_transition),
    ("reproduce", "recover the initial distribution", (
        _arg("--nu", help="initial distribution state:mass,..."),
        _arg("--samples", help="CSV of (t, f) samples for blind numeric mode"),
        _arg("--mode", choices=("spectral", "numeric"), default="spectral"),
        _arg("--j-max", type=int, default=4),
        _arg("--t0", type=float, default=0.005),
        _arg("--window-factor", type=float, default=0.4),
        _arg("--force", action="store_true", help="allow j_max beyond 6"),
    ), _cmd_reproduce),
    ("htransform", "transform rates and C-matrix by an eigenfunction", (
        _arg("--gamma", type=_parse_rate, help="eigenvalue shift"),
        _arg("--branch", choices=("plus", "minus"), default="plus"),
        _arg("--target-lambda", type=_parse_rate, help="target birth rate"),
        _arg("--target-mu", type=_parse_rate, help="target death rate"),
        _arg("--rows", type=int, help="C-matrix rows (default min(N, 12))"),
    ), _cmd_htransform),
    ("simulate", "Monte Carlo absorption times plus KS summary", (
        _arg("--nu", default="1:1"),
        _arg("--paths", type=int, default=10000),
        _arg("--horizon", type=float, default=200.0),
        _arg("--seed", type=int, default=0),
    ), _cmd_simulate),
    ("verify", "run the cross-module property checks", (), _cmd_verify),
)


def _build_parser(argv):
    """The bdhit parser, with only the subparser that argv[0] names.

    Every add_argument costs a HelpFormatter, so a job pays for one
    subcommand, not eight.  When argv[0] names no subcommand (no command,
    an option such as -h or --version, an unknown name) all eight are
    built, so help and the invalid-choice error list them.  A command after
    an option is never valid, so argv[0] is the only place to look.  The
    usage line lists all eight names either way.
    """
    named = [cmd for cmd in _COMMANDS if argv and cmd[0] == argv[0]]
    parser = _Parser(
        prog="bdhit",
        description="Initial-distribution recovery for absorbed birth-and-death chains",
    )
    parser.add_argument("--version", action="version", version=f"bdhit {__version__}")
    # with one subparser the metavar keeps all eight names in the usage line;
    # with all eight there is none, so the invalid-choice error names "command"
    metavar = "{%s}" % ",".join(cmd[0] for cmd in _COMMANDS) if named else None
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, metavar=metavar)
    for name, help_text, arguments, func in named or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_model_flags(p)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _warning_line(show):
    """A showwarning that prints a UserWarning as one 'warning: ...' line.

    Other categories go to show.  Filters act before showwarning, so a
    warning the caller's filters ignore or raise never reaches it.
    """

    def show_line(message, category, *args, **kwargs):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *args, **kwargs)

    return show_line


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line(warnings.showwarning)
            return _run_job(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
