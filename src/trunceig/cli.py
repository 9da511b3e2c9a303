"""Command-line driver.

Commands operate on a kernel (or a saved problem instance) and emit CSV on
stdout or into --output.  Floats are rendered with 9 significant digits in
CSV and as Python's shortest round-trip repr in JSON, so identical inputs and
seeds give byte-identical output.
Commands that draw noise take a single --seed; a sweep derives the seed for
its i-th row as seed + i.

Exit codes: 0 success, 2 argument or parse error (including a size above
spectral.MAX_ORDER, or a discretization that did not resolve or converge),
3 infeasible synthesis request, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import infotheory, kernels, regularize, spectral, stability
from .errors import ConvergenceError, InfeasibleSpecError, ResolutionError

__all__ = ["main"]


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


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


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
    nodes.  No command reads an eigenfunction, so none is computed."""
    if spec.kind == "tabulated":
        grid = spec.table.grid
    else:
        grid = spectral.gauss_legendre(int(args.n_nodes), spec.a, spec.b)
    return spectral.spectral_eigenvalues(spec.kernel(), grid)


def _eigen_sequence(args) -> np.ndarray:
    """Eigenvalue sequence for rule-based commands.

    The triangular kernel uses its closed-form eigenvalues 1/(k pi)^2 over
    --n-modes modes; other kernels are discretized by _system and keep their
    retained positive eigenvalues.
    """
    spec = kernels.parse_kernel(args.kernel)
    if spec.kind == "triangular":
        k = np.arange(1, int(args.n_modes) + 1, dtype=float)
        return 1.0 / (k * math.pi) ** 2
    lam = _system(spec, args)
    lam = lam[lam > 0]
    if lam.size == 0:
        raise ValueError("kernel has no positive retained eigenvalues")
    if args.n_modes is not None:
        lam = lam[: int(args.n_modes)]
    return lam


def cmd_spectrum(args) -> int:
    spec = kernels.parse_kernel(args.kernel)
    eigenvalues = _system(spec, args)
    count = eigenvalues.size
    if args.n_modes is not None:
        count = min(count, int(args.n_modes))
    rows = []
    for k in range(1, count + 1):
        lam = float(eigenvalues[k - 1])
        analytic = spec.analytic_eigenvalue(k)
        if analytic is None:
            rows.append((k, lam, None, None))
        else:
            rows.append((k, lam, analytic, abs(lam - analytic) / analytic))
    _write(args.output, _csv(rows, "k,lambda,lambda_analytic,rel_err"))
    return 0


def cmd_truncate(args) -> int:
    lam = _eigen_sequence(args)
    beta = regularize.parse_constraint(args.constraint, lam.size)
    E = float(args.E)
    rows = []
    for eps in _float_list(args.eps_grid):
        k1 = regularize.truncation_identity(lam, eps, E)
        k2 = regularize.truncation_weighted(lam, beta, eps, E)
        rows.append((eps, k1, k2))
    _write(args.output, _csv(rows, "eps,k1,k2"))
    return 0


def cmd_solve(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as handle:
        instance = regularize.ProblemInstance.from_json(handle.read())
    rec = regularize.truncated_solution(instance, args.rule)
    rows = zip(range(1, instance.n_modes + 1), instance.eigenvalues, instance.betas,
               instance.f_true, instance.g_noisy, rec.coefficients)
    _write(args.output, _csv(rows, "k,lambda_k,beta_k,f_k,gbar_k,fhat_k"))
    return 0


def _build_instance(lam, beta, eps, args, seed):
    if args.f_coeffs is not None:
        law = {"f_coeffs": _float_list(args.f_coeffs)}
    else:
        law = {"f_decay": _pair(args.f_decay)}
    return regularize.synthesize_problem(
        lam, beta, eps, float(args.E),
        noise_mode=args.noise_mode, seed=seed, tight=args.tight, **law,
    )


def cmd_sweep(args) -> int:
    lam = _eigen_sequence(args)
    beta = regularize.parse_constraint(args.constraint, lam.size)
    pfun = stability.parse_pfunction(args.p)
    E = float(args.E)
    k_vec = np.arange(1, lam.size + 1, dtype=float)
    v = 1.0 / k_vec
    rows = []
    for i, eps in enumerate(_float_list(args.eps_grid)):
        instance = _build_instance(lam, beta, eps, args, int(args.seed) + i)
        rec1 = regularize.truncated_solution(instance, "k1")
        rec2 = regularize.truncated_solution(instance, "k2")
        err_f2 = float(np.linalg.norm(instance.f_true - rec2.coefficients))
        _, weak_bound = regularize.weak_pairing(instance, rec1, v)
        bound_m = math.sqrt(2.0) * stability.stability_bound(eps, E, pfun)
        report6 = regularize.weighted_rule_residuals(instance, rec2)
        report7 = regularize.identity_rule_residuals(instance, rec1)
        flow = infotheory.information_flow_comparison(lam, beta, eps, E)
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
    _write(args.output, _csv(rows, header))
    return 0


def cmd_entropy(args) -> int:
    lam = _eigen_sequence(args)
    beta = regularize.parse_constraint(args.constraint, lam.size)
    E = float(args.E)
    rows = []
    for eps in _float_list(args.eps_grid):
        flow = infotheory.information_flow_comparison(lam, beta, eps, E)
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
    _write(args.output, _csv(rows, "eps,k1,bits_k1,k2,bits_k2,bit_diff"))
    return 0


def cmd_stability(args) -> int:
    lam = _eigen_sequence(args)
    K = lam.size if args.K is None else int(args.K)
    lam = lam[:K]  # the supremum and the condition read only the first K modes
    beta = regularize.parse_constraint(args.constraint, lam.size)
    pfun = stability.parse_pfunction(args.p)
    E = float(args.E)
    eps_grid = _float_list(args.eps_grid)
    rows = []
    sups = []
    for eps in eps_grid:
        report = stability.stability_report(lam, beta, pfun, eps, E, K)
        rows.append((eps, report.bound, report.exact_sup, report.condition_ok))
        sups.append(report.exact_sup)
    text = _csv(rows, "eps,bound,exact_sup,condition_ok")
    try:
        fit = stability.classify_continuity(np.asarray(eps_grid), np.asarray(sups))
        text += (
            f"# classification: model={fit.model} exponent={fit.exponent:.9g} "
            f"residual={fit.residual:.9g}\n"
        )
    except ValueError as exc:
        text += f"# classification: unavailable ({exc})\n"
    _write(args.output, text)
    return 0


def cmd_cover(args) -> int:
    points = np.atleast_2d(np.loadtxt(args.points, delimiter=",", dtype=float, ndmin=2))
    infotheory._check_budget(points.shape[0])  # before the quadratic distance matrix
    point_set = infotheory.FinitePointSet(points)
    eps = float(args.eps)
    n_cover, _ = infotheory.covering_number_exact(point_set, eps)
    m_pack, _ = infotheory.packing_number_exact(point_set, eps)
    holds = n_cover <= m_pack
    _write(args.output, f"N={n_cover}, M={m_pack}, holds={'true' if holds else 'false'}\n")
    return 0


def cmd_simulate(args) -> int:
    lam = _eigen_sequence(args)
    beta = regularize.parse_constraint(args.constraint, lam.size)
    instance = _build_instance(lam, beta, float(args.eps), args, int(args.seed))
    _write(args.output, instance.to_json())
    return 0


def _count(text: str) -> int:
    """A mode count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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


def _build_parser() -> argparse.ArgumentParser:
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
    sub.add_argument("--K", type=_count, default=None,
                     help="modes in the exact supremum")

    sub = new_command("cover", cmd_cover, "exact covering/packing numbers of a point file")
    sub.add_argument("--points", required=True, help="CSV file, one point per row")
    sub.add_argument("--eps", type=float, required=True)

    sub = new_command("simulate", cmd_simulate, "synthesize and save a problem instance")
    _add_kernel_options(sub)
    _add_problem_options(sub)
    _add_synthesis_options(sub)
    sub.add_argument("--eps", type=float, default=1e-3, help="noise bound")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    commands = parser._subparsers._group_actions[0].choices
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
        return args.func(args)
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
