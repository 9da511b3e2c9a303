"""Command-line driver.

Commands operate on a kernel (or a saved problem instance) and return CSV,
which main alone writes to stdout or into --output.  Floats are rendered
with 9 significant digits in CSV and as Python's shortest round-trip repr in
JSON, so identical inputs and seeds give byte-identical output.
Commands that draw noise take a single --seed; a sweep derives the seed for
its i-th row as seed + i.

Exit codes: 0 success, 2 argument or parse error (including a size above
spectral.MAX_ORDER, or a discretization that did not resolve or converge),
3 infeasible synthesis request, 4 I/O failure.

Each command imports the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .errors import ConvergenceError, InfeasibleSpecError, ResolutionError

__all__ = ["main"]

# The largest --n-modes: simulate, the costliest command, peaks near 700 MB there.
MAX_MODES = 10**6


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.9g}"


def _csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


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
    eigenfunction, so none is computed."""
    from . import spectral

    if spec.min_nodes is not None and args.n_nodes < spec.min_nodes:
        raise ResolutionError(f"{args.n_nodes} quadrature nodes cannot resolve the kernel: "
                              f"it needs at least {spec.min_nodes:g}")
    grid = spec.grid or spectral.gauss_legendre(args.n_nodes, spec.a, spec.b)
    return spectral.spectral_eigenvalues(spec.kernel, grid)


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
    if spec.analytic_eigenvalue is None:
        rows = zip(k, lam, [None] * lam.size, [None] * lam.size)
    else:
        analytic = spec.analytic_eigenvalue(k)
        rows = zip(k, lam, analytic, np.abs(lam - analytic) / analytic)
    return _csv(rows, "k,lambda,lambda_analytic,rel_err")


def cmd_truncate(args) -> str:
    from . import regularize

    lam, beta = _rule_inputs(args)
    rows = []
    for eps in _float_list(args.eps_grid):
        k1 = regularize.truncation_identity(lam, eps, args.E)
        k2 = regularize.truncation_weighted(lam, beta, eps, args.E)
        rows.append((eps, k1, k2))
    return _csv(rows, "eps,k1,k2")


def cmd_solve(args) -> str:
    from . import regularize

    with open(args.instance, "r", encoding="utf-8") as handle:
        instance = regularize.ProblemInstance.from_json(handle.read())
    rec = regularize.truncated_solution(instance, args.rule)
    rows = zip(range(1, instance.n_modes + 1), instance.eigenvalues, instance.betas,
               instance.f_true, instance.g_noisy, rec.coefficients)
    return _csv(rows, "k,lambda_k,beta_k,f_k,gbar_k,fhat_k")


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
    rows = []
    for i, eps in enumerate(_float_list(args.eps_grid)):
        instance = _build_instance(lam, beta, eps, args, args.seed + i)
        rec1 = regularize.truncated_solution(instance, "k1")
        rec2 = regularize.truncated_solution(instance, "k2")
        err_f2 = regularize._norm(instance.f_true - rec2.coefficients)
        _, weak_bound = regularize.weak_pairing(instance, rec1, v)
        bound_m = math.sqrt(2.0) * stability.stability_bound(eps, args.E, pfun)
        report6 = regularize.weighted_rule_residuals(instance, rec2)
        report7 = regularize.identity_rule_residuals(instance, rec1)
        flow = infotheory.information_flow_comparison(lam, beta, eps, args.E)
        rows.append(
            (
                eps,
                rec1.cutoff,
                rec2.cutoff,
                weak_bound,
                err_f2,
                bound_m,
                report6.ok,
                report7.ok,
                flow.report_k1.entropy_bits,
                flow.report_k2.entropy_bits,
            )
        )
    header = (
        "eps,k1,k2,err_f1_weak_bound,err_f2,bound_sqrt2_M,"
        "lemma6_ok,lemma7_ok,H_bits_k1,H_bits_k2"
    )
    return _csv(rows, header)


def cmd_entropy(args) -> str:
    from . import infotheory

    lam, beta = _rule_inputs(args)
    rows = []
    for eps in _float_list(args.eps_grid):
        flow = infotheory.information_flow_comparison(lam, beta, eps, args.E)
        rows.append(
            (
                eps,
                flow.report_k1.cutoff,
                flow.report_k1.entropy_bits,
                flow.report_k2.cutoff,
                flow.report_k2.entropy_bits,
                flow.bit_difference,
            )
        )
    return _csv(rows, "eps,k1,bits_k1,k2,bits_k2,bit_diff")


def cmd_stability(args) -> str:
    from . import stability

    lam, beta = _rule_inputs(args)
    pfun = stability.parse_pfunction(args.p)
    eps_grid = _float_list(args.eps_grid)
    ok, _ = stability.check_condition(lam, beta, pfun)  # free of eps
    rows = []
    sups = []
    for eps in eps_grid:
        bound = stability.stability_bound(eps, args.E, pfun)
        sup = stability.stability_sup_exact(lam, beta, eps, args.E)
        rows.append((eps, bound, sup, ok))
        sups.append(sup)
    text = _csv(rows, "eps,bound,exact_sup,condition_ok")
    try:
        fit = stability.classify_continuity(np.asarray(eps_grid), np.asarray(sups))
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


def main(argv=None) -> int:
    parser, commands = _build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is not None:
        try:
            with open(known.config, "r", encoding="utf-8") as handle:
                defaults = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"error: bad config JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
        options = {action.dest for sub in commands.values() for action in sub._actions}
        unknown = [key for key in defaults if key not in options]
        if unknown:
            print(f"error: unknown config key {unknown[0]!r}", file=sys.stderr)
            return 2
        for sub in commands.values():
            try:
                sub.set_defaults(**{key: _config_text(key, value, sub.get_default(key))
                                    for key, value in defaults.items()})
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        text = args.func(args)
        with (nullcontext(sys.stdout) if args.output is None
              else open(args.output, "w", encoding="utf-8")) as handle:
            handle.write(text)
        return 0
    except InfeasibleSpecError as exc:
        print(f"error: infeasible request: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ResolutionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
