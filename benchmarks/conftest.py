"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table/figure of the paper at laptop scale and
prints the same rows/series the paper reports.  ``benchmark.pedantic`` with a
single round is used throughout: the interesting output is the experiment's
result (and its wall-clock), not statistical timing of repeated runs.
"""

from __future__ import annotations

import operator

import pytest

from repro.experiments.common import SubstrateConfig, build_substrate


_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_MARGINS = pytest.StashKey[list]()


@pytest.fixture
def takeaway(request):
    """``takeaway(label, value, op, bound)`` asserts one figure takeaway,
    ``value op bound``, and prints its margin: how far ``value`` sits on the
    holding side of ``bound`` (negative when the takeaway fails)."""
    margins = request.config.stash.setdefault(_MARGINS, [])

    def check(label: str, value: float, op: str, bound: float) -> None:
        margin = value - bound if op in (">", ">=") else bound - value
        line = f"{label}: {value:.6g} {op} {bound:.6g} (margin {margin:+.6g})"
        print(f"  takeaway {line}")
        margins.append(line)
        assert _COMPARISONS[op](value, bound), f"takeaway failed: {line}"

    return check


def pytest_terminal_summary(terminalreporter, config):
    """List every takeaway's margin, also when output is captured."""
    margins = config.stash.get(_MARGINS, [])
    if margins:
        terminalreporter.section("takeaway margins")
        for line in margins:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def substrate():
    """The shared experiment substrate (population, logs, trained predictor)."""
    return build_substrate(SubstrateConfig())


@pytest.fixture(scope="session")
def ab_result(substrate):
    """The AA/AB campaign shared by the Figure 12–15 benchmarks."""
    from repro.experiments import fig12_ab_test

    return fig12_ab_test.run(substrate=substrate)
