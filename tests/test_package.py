"""The package's re-exports resolve on first use, and a CLI command loads
only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import trunceig

MODULES = ["errors", "infotheory", "kernels", "regularize", "spectral", "stability"]


def test_all_is_the_module_lists_concatenated():
    names = [name for module in MODULES
             for name in importlib.import_module(f"trunceig.{module}").__all__]
    assert trunceig.__all__ == names
    assert len(set(names)) == len(names)


def test_each_name_is_the_object_of_its_module():
    for module_name in MODULES:
        module = importlib.import_module(f"trunceig.{module_name}")
        for name in module.__all__:
            assert getattr(trunceig, name) is getattr(module, name), name


def test_star_import_into_a_fresh_namespace():
    namespace = {}
    exec("from trunceig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(trunceig.__all__)
    for name in trunceig.__all__:
        assert namespace[name] is getattr(trunceig, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        trunceig.no_such_name
    assert not hasattr(trunceig, "no_such_name")


# Runs in a fresh interpreter: prints the trunceig modules loaded by
# `import trunceig.cli` and then by main(argv), and main's exit status.
LOADER = """
import json, sys
import trunceig.cli

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "trunceig")

imported = loaded()
status = trunceig.cli.main(sys.argv[1:])
print(json.dumps({"imported": imported, "status": status, "ran": loaded()}))
"""


@pytest.mark.parametrize("argv, added, absent", [
    (["spectrum", "--kernel", "triangular", "--n-nodes", "32", "--n-modes", "3"],
     {"kernels", "spectral"}, None),
    (["truncate", "--constraint", "derivative", "--n-modes", "20"],
     None, {"infotheory", "stability"}),
    (["cover", "--points", "{tmp}/points.csv", "--eps", "0.75"], None, {"stability"}),
], ids=["spectrum", "truncate", "cover"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, added, absent):
    (tmp_path / "points.csv").write_text("0,0\n1,0\n0,1\n1,1\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--output", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this trunceig
    result = subprocess.run([sys.executable, "-c", LOADER, *argv], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(result.stdout)
    assert report["status"] == 0, result.stderr
    assert report["imported"] == ["trunceig", "trunceig.cli", "trunceig.errors"]
    new = {name.removeprefix("trunceig.") for name in set(report["ran"]) - set(report["imported"])}
    if added is not None:
        assert new == added
    if absent is not None:
        assert new and not new & absent


def test_the_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # bench/traced_cli.py wraps library names where their callers look them
    # up; a renamed or deleted name makes its install() raise before the
    # command runs, and a caller that stops looking a name up loses its span.
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "traced_cli.py")
    spans = tmp_path / "spans.json"
    argv = ["spectrum", "--kernel", "triangular", "--n-nodes", "8", "--n-modes", "1"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this trunceig
    result = subprocess.run([sys.executable, tracer, str(spans), *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert names >= {"cli.main", "kernels.parse_kernel", "spectral.gauss_legendre",
                     "spectral.nystrom_matrix"}
