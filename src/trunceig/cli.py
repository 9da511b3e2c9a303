"""Command-line driver.

Commands operate on a kernel (or a saved problem instance) and return CSV,
which main alone writes to stdout or into --output.  A CSV cell is empty
where a column has no value, true/false for a flag, the digits of an
integer, and a float with 9 significant digits; JSON floats are Python's
shortest round-trip repr, so identical inputs and seeds give byte-identical
output.  Commands that draw noise take a single --seed; a sweep derives the
seed for its i-th row as seed + i.  A subcommand's --config FILE holds option
defaults: main reads it after the subcommand's own parse, never for --help, and
parses argv again, so flags still win.

Exit codes, all mapped in main: 0 success, 2 argument, config or parse error
(including a size above spectral.MAX_ORDER, or a discretization that did not
resolve or converge), 3 infeasible synthesis request, 4 I/O failure (an
unreadable --config file included).

Each command imports the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .errors import InfeasibleSpecError

__all__ = ["main"]

# The largest --n-modes: simulate, the costliest command, peaks near 700 MB there.
MAX_MODES = 10**6


def _csv(header: str, *columns) -> str:
    """The header line, then one line per row of the columns: arrays or lists of Python
    scalars, of equal length, or None for empty cells (at least one column is not None).
    Each column's kind is read once, from its first cell: bools give true/false, integers
    their digits, and anything else a float with 9 significant digits."""

    def cells(column):
        if isinstance(column, np.ndarray):  # a memoryview yields Python scalars, and faster
            column = memoryview(column)
        first = next(iter(column), None)
        if isinstance(first, bool):
            return ("true" if x else "false" for x in column)
        if isinstance(first, int):
            return map(str, column)
        return map("{:.9g}".format, column)

    rows = zip(*(itertools.repeat("") if c is None else cells(c) for c in columns))
    return "\n".join([header, *map(",".join, rows), ""])  # "" ends the last line, with no copy


def _float_list(text: str) -> list[float]:
    values = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("expected finite numbers")
    return values


def _pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise ValueError("expected two comma-separated numbers")
    return values[0], values[1]


def _system(spec, args) -> np.ndarray:
    """Kept eigenvalues of a parsed kernel, by non-increasing magnitude: a
    tabulated kernel on its own grid, any other on --n-nodes Gauss-Legendre
    nodes, and at least the kernel's min_nodes of them.  No command reads an
    eigenfunction, so none is computed.  eigvalsh's backward error is n u ||A||
    (u = 2^-52), so a lambda_1 past max_eigenvalue by more than that is the grid's."""
    from . import spectral

    if spec.min_nodes is not None and args.n_nodes < spec.min_nodes:
        raise ValueError(f"{args.n_nodes} quadrature nodes cannot resolve the kernel: "
                         f"it needs at least {spec.min_nodes:g}")
    grid = spec.grid or spectral.gauss_legendre(args.n_nodes, spec.a, spec.b)
    lam = spectral.spectral_eigenvalues(spec.kernel, grid)
    top, bound = (float(lam[0]) if lam.size else 0.0), spec.max_eigenvalue
    if bound is not None and top - bound > grid.size * math.ulp(1.0) * top:
        raise ValueError(f"{grid.size} quadrature nodes do not resolve the kernel: "
                         f"lambda_1 exceeds its bound {bound:g} by {top - bound:.3g}")
    return lam


def _rule_inputs(args) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and constraint weights for the rule commands.

    A kernel with closed-form eigenvalues (the triangular one) uses them over
    --n-modes modes; other kernels are discretized by _system and keep their
    first --n-modes positive retained eigenvalues.
    """
    from . import kernels, regularize

    spec = kernels.parse_kernel(args.kernel)
    if spec.analytic_eigenvalue is not None:
        lam = spec.analytic_eigenvalue(np.arange(1, args.n_modes + 1, dtype=float))
    else:
        lam = _system(spec, args)
        lam = lam[lam > 0][: args.n_modes]
        if lam.size == 0:
            raise ValueError("kernel has no positive retained eigenvalues")
    return lam, regularize.parse_constraint(args.constraint, lam.size)


def cmd_spectrum(args) -> str:
    from . import kernels

    spec = kernels.parse_kernel(args.kernel)
    lam = _system(spec, args)[: args.n_modes]
    k = np.arange(1, lam.size + 1)
    analytic = rel_err = None
    if spec.analytic_eigenvalue is not None:
        analytic = spec.analytic_eigenvalue(k)
        rel_err = np.abs(lam - analytic) / analytic
    return _csv("k,lambda,lambda_analytic,rel_err", k, lam, analytic, rel_err)


def cmd_truncate(args) -> str:
    from . import regularize

    lam, beta = _rule_inputs(args)
    eps_grid = _float_list(args.eps_grid)
    cutoffs = [(regularize.truncation_identity(lam, eps, args.E),
                regularize.truncation_weighted(lam, beta, eps, args.E)) for eps in eps_grid]
    return _csv("eps,k1,k2", eps_grid, *zip(*cutoffs))


def cmd_solve(args) -> str:
    from . import regularize

    with open(args.instance, "r", encoding="utf-8") as handle:
        instance = regularize.ProblemInstance.from_json(handle.read())
    rec = regularize.truncated_solution(instance, args.rule)
    return _csv("k,lambda_k,beta_k,f_k,gbar_k,fhat_k", range(1, instance.n_modes + 1),
                instance.eigenvalues, instance.betas, instance.f_true, instance.g_noisy,
                rec.coefficients)


def _build_instance(lam, beta, eps, args, seed):
    from . import regularize

    if args.f_coeffs is not None:
        law = {"f_coeffs": _float_list(args.f_coeffs)}
    else:
        law = {"f_decay": _pair(args.f_decay)}
    return regularize.synthesize_problem(
        lam, beta, eps, args.E,
        noise_mode=args.noise_mode, seed=seed, tight=args.tight, **law,
    )


def cmd_sweep(args) -> str:
    from . import infotheory, regularize, stability

    lam, beta = _rule_inputs(args)
    pfun = stability.parse_pfunction(args.p)
    v = 1.0 / np.arange(1, lam.size + 1, dtype=float)

    def row(seed, eps):
        instance = _build_instance(lam, beta, eps, args, seed)
        rec1 = regularize.truncated_solution(instance, "k1")
        rec2 = regularize.truncated_solution(instance, "k2")
        err_f2 = regularize._norm(instance.f_true - rec2.coefficients)
        _, weak_bound = regularize.weak_pairing(instance, rec1, v)
        bound_m = math.sqrt(2.0) * stability.stability_bound(eps, args.E, pfun)
        report6 = regularize.weighted_rule_residuals(instance, rec2)
        report7 = regularize.identity_rule_residuals(instance, rec1)
        flow = infotheory.information_flow_comparison(lam, beta, eps, args.E)
        return (eps, rec1.cutoff, rec2.cutoff, weak_bound, err_f2, bound_m, report6.ok,
                report7.ok, flow.report_k1.entropy_bits, flow.report_k2.entropy_bits)

    header = (
        "eps,k1,k2,err_f1_weak_bound,err_f2,bound_sqrt2_M,"
        "lemma6_ok,lemma7_ok,H_bits_k1,H_bits_k2"
    )
    return _csv(header, *zip(*map(row, itertools.count(args.seed), _float_list(args.eps_grid))))


def cmd_entropy(args) -> str:
    from . import infotheory

    lam, beta = _rule_inputs(args)

    def row(eps):
        flow = infotheory.information_flow_comparison(lam, beta, eps, args.E)
        return (eps, flow.report_k1.cutoff, flow.report_k1.entropy_bits, flow.report_k2.cutoff,
                flow.report_k2.entropy_bits, flow.bit_difference)

    return _csv("eps,k1,bits_k1,k2,bits_k2,bit_diff", *zip(*map(row, _float_list(args.eps_grid))))


def cmd_stability(args) -> str:
    from . import stability

    lam, beta = _rule_inputs(args)
    pfun = stability.parse_pfunction(args.p)
    eps_grid = _float_list(args.eps_grid)
    ok, _ = stability.check_condition(lam, beta, pfun)  # free of eps
    bounds = [stability.stability_bound(eps, args.E, pfun) for eps in eps_grid]
    sups = stability.stability_sup_exact(lam, beta, eps_grid, args.E)
    text = _csv("eps,bound,exact_sup,condition_ok", eps_grid, bounds, sups, [ok] * len(sups))
    try:
        fit = stability.classify_continuity(eps_grid, sups)
        text += (
            f"# classification: model={fit.model} exponent={fit.exponent:.9g} "
            f"residual={fit.residual:.9g}\n"
        )
    except ValueError as exc:
        text += f"# classification: unavailable ({exc})\n"
    return text


def cmd_cover(args) -> str:
    from . import infotheory

    with warnings.catch_warnings():  # an empty file is rejected by FinitePointSet
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        points = np.loadtxt(args.points, delimiter=",", dtype=float, ndmin=2)
    point_set = infotheory.FinitePointSet(points)
    n_cover, _ = infotheory.covering_number_exact(point_set, args.eps)
    m_pack, _ = infotheory.packing_number_exact(point_set, args.eps)
    holds = n_cover <= m_pack
    return f"N={n_cover}, M={m_pack}, holds={'true' if holds else 'false'}\n"


def cmd_simulate(args) -> str:
    lam, beta = _rule_inputs(args)
    instance = _build_instance(lam, beta, args.eps, args, args.seed)
    return instance.to_json()


def _count(text: str) -> int:
    """A mode count: an integer in [1, MAX_MODES]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_MODES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_MODES}, got {value}")
    return value


def _config_text(key, value, default):
    """A --config value as command-line text, so that the option's type=
    converts and checks it.  Where the default is a bool (--tight), whose
    action applies no type=, the value must be a JSON boolean and stays one."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"config value {key!r} must be true or false, "
                             f"got {json.dumps(value)}")
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return json.dumps(value)


def _add_kernel_options(sub, modes_default=100):
    sub.add_argument("--kernel", default="triangular",
                     help="'triangular', 'sinc:c=10[,a=-1,b=1]', or 'tabulated:FILE'")
    sub.add_argument("--n-nodes", type=int, default=200,
                     help="quadrature nodes for discretized kernels")
    sub.add_argument("--n-modes", type=_count, default=modes_default,
                     help="number of modes to use (triangular: analytic modes)")


def _add_problem_options(sub):
    sub.add_argument("--constraint", default="identity",
                     help="'identity', 'derivative', 'power:p=1[,scale=s]', "
                          "'prolate:c=1', or 'sinc_log:c=10'")
    sub.add_argument("--E", type=float, default=1.0, help="constraint budget")


def _add_synthesis_options(sub):
    sub.add_argument("--f-decay", default="1,2",
                     help="solution decay law c,q giving f_k = c k^-q")
    sub.add_argument("--f-coeffs", default=None,
                     help="explicit solution coefficients (comma separated)")
    sub.add_argument("--noise-mode", default="flat",
                     choices=["flat", "range_compatible"])
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tight", action=argparse.BooleanOptionalAction, default=True,
                     help="rescale f so the constraint budget holds with equality")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="trunceig",
        description="Truncated-expansion regularization diagnostics",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def new_command(name, func, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--output", default=None, help="output path (default stdout)")
        sub.add_argument("--config", default=None,
                         help="JSON file with option defaults (underscored keys)")
        sub.set_defaults(func=func)
        return sub

    sub = new_command("spectrum", cmd_spectrum, "numeric spectrum of a kernel")
    _add_kernel_options(sub, modes_default=None)

    sub = new_command("truncate", cmd_truncate, "truncation points on an eps grid")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    sub.add_argument("--eps-grid", default="1e-2,1e-3,1e-4")

    sub = new_command("solve", cmd_solve, "invert a saved problem instance")
    sub.add_argument("--instance", required=True, help="instance JSON path")
    sub.add_argument("--rule", default="k2", choices=["k1", "k2"])

    sub = new_command("sweep", cmd_sweep, "error/bit diagnostics over an eps grid")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    _add_synthesis_options(sub)
    sub.add_argument("--eps-grid", default="1e-2,1e-3,1e-4,1e-5,1e-6")
    sub.add_argument("--p", default="power:gamma=0.3333333333333333",
                     help="comparison function for the stability column")

    sub = new_command("entropy", cmd_entropy, "bit counts kept by each rule")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    sub.add_argument("--eps-grid", default="1e-2,1e-3,1e-4")

    sub = new_command("stability", cmd_stability, "analytic bound vs exact supremum")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    sub.add_argument("--eps-grid", default="1e-2,1e-3,1e-4,1e-5,1e-6,1e-7")
    sub.add_argument("--p", default="power:gamma=0.3333333333333333")

    sub = new_command("cover", cmd_cover, "exact covering/packing numbers of a point file")
    sub.add_argument("--points", required=True, help="CSV file, one point per row")
    sub.add_argument("--eps", type=float, required=True)

    sub = new_command("simulate", cmd_simulate, "synthesize and save a problem instance")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    _add_synthesis_options(sub)
    sub.add_argument("--eps", type=float, default=1e-3, help="noise bound")

    return parser, commands.choices


def _apply_config(path, commands) -> None:
    """Make the JSON object of the --config file at path the option defaults of every
    subcommand: an OSError where the file cannot be read, a ValueError where it is not a
    JSON object or a key or value is not an option's."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            defaults = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"bad config JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValueError("config must be a JSON object")
    options = {action.dest for sub in commands.values() for action in sub._actions}
    unknown = [key for key in defaults if key not in options]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    for sub in commands.values():
        sub.set_defaults(**{key: _config_text(key, value, sub.get_default(key))
                            for key, value in defaults.items()})


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # the file's values become defaults, and flags still win
            _apply_config(args.config, commands)
            args = parser.parse_args(argv)
        text = args.func(args)
        with (nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8")) as handle:
            handle.write(text)
        return 0
    except SystemExit as exc:  # argparse's exit, after it printed help or a usage error
        return int(exc.code or 0)
    except InfeasibleSpecError as exc:
        print(f"error: infeasible request: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
