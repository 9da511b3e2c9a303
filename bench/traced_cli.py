"""Run one trunceig CLI command with a span around each layer's public calls.

Usage: python traced_cli.py SPANS_PATH CLI_ARG...

Each wrapper is installed where its caller looks the name up: the CLI
reaches every module through attribute access, `spectral_system` finds
`nystrom_matrix` and `eigh` in the spectral module's globals, the kernels
module holds its own `eigh` binding, and infotheory binds the truncation
rules by name.  Spans (name, start, end, parent index) and counters stay in
memory and are written as JSON to SPANS_PATH when the command ends,
together with the time at which `import trunceig.cli` completed.  Times are
CLOCK_MONOTONIC seconds, which every process on the machine shares.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, measure=None):
        """Span around fn; measure(bound_arguments, result) adds counters."""
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.monotonic(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                self._open.pop()
            if measure:
                measure(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """Call counter without a span, for functions called per scalar."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    from trunceig import infotheory, kernels, regularize, spectral, stability

    def patch(module, attr, measure=None, name=None):
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))

    def kernel_evals(args, matrix):
        tracer.count("spectral.nystrom_matrix.kernel_evals", matrix.order**2)

    def kept(args, system):
        tracer.count("spectral.spectral_system.kept", system.n_modes)
        tracer.count("spectral.spectral_system.nodes", system.grid.size)

    def sup_bytes(args, result):
        K = args.get("K") or len(args["eigenvalues"])
        tracer.count("stability.stability_sup_exact.bytes_computed", 8 * K * K)

    def json_bytes(args, text):
        tracer.count("regularize.ProblemInstance.to_json.bytes", len(text.encode()))

    patch(spectral, "gauss_legendre")
    patch(spectral, "nystrom_matrix", kernel_evals)
    patch(spectral, "eigh")
    patch(spectral, "spectral_system", kept)
    patch(kernels, "parse_kernel")
    patch(kernels, "prolate_eigenvalues")
    patch(kernels, "eigh")
    patch(stability, "stability_sup_exact", sup_bytes)
    patch(stability, "check_condition")
    patch(stability, "classify_continuity")
    stability.p_eval = tracer.counted("stability.p_eval.calls", stability.p_eval)
    patch(infotheory, "packing_number_exact")
    patch(infotheory, "covering_number_exact")
    patch(infotheory, "information_flow_comparison")
    for rule in ("truncation_identity", "truncation_weighted"):
        wrapped = tracer.wrap("regularize.truncation", getattr(regularize, rule))
        setattr(regularize, rule, wrapped)
        setattr(infotheory, rule, wrapped)
    patch(regularize, "synthesize_problem")
    patch(regularize, "truncated_solution")
    patch(regularize, "weak_pairing")
    patch(regularize, "weighted_rule_residuals", name="regularize.residuals")
    patch(regularize, "identity_rule_residuals", name="regularize.residuals")
    instance = regularize.ProblemInstance
    instance.to_json = tracer.wrap(
        "regularize.ProblemInstance.to_json", instance.to_json, json_bytes)
    instance.from_json = classmethod(tracer.wrap(
        "regularize.ProblemInstance.from_json", instance.__dict__["from_json"].__func__))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import trunceig.cli

    imported = time.monotonic()
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", trunceig.cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"imported": imported, "spans": tracer.spans,
                       "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
