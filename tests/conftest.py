"""Shared discretizations, the acceptance scoreboard reporter, and warnings
as errors for every test here: a test that expects a warning asserts it."""

from pathlib import Path

import pytest

from trunceig import SincKernel, gauss_legendre, spectral_system, triangular_kernel

_acceptance_lines: list[str] = []


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def acceptance_report():
    """Record one PASS/FAIL line per acceptance criterion, then assert it."""

    def _report(num: int, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        _acceptance_lines.append(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    by_number = sorted(
        _acceptance_lines,
        key=lambda line: int(line.split("criterion", 1)[1].split(":", 1)[0]),
    )
    for line in by_number:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tri_sys_256():
    return spectral_system(triangular_kernel, gauss_legendre(256, 0.0, 1.0))


@pytest.fixture(scope="session")
def sinc_sys_400():
    return spectral_system(SincKernel(10.0), gauss_legendre(400, -1.0, 1.0))


@pytest.fixture(scope="session")
def sinc_sys_200():
    return spectral_system(SincKernel(1.0), gauss_legendre(200, -1.0, 1.0))
