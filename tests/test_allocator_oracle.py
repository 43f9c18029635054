"""Independent oracles for the path-aware allocators.

The equivalence gates prove that the engines agree; both call the same
:func:`repro.net.allocator.allocate_step`, so a wrong allocation would be
wrong identically in both.  This suite checks the allocators against
answers they do not compute themselves, on small tiered instances: edge
links behind one peering and one origin link that carry the same sessions
(identical route columns), sessions capped at small demands, and rows
without a route.

* :func:`low_lapsley` against a ``scipy.optimize`` (SLSQP) solve of
  max Σ w·log x subject to ``routes.T @ x <= c`` and ``0 <= x <= d``:
  every rate within ``ORACLE_TOL`` of the largest optimal rate, on every
  call that ends by its stopping rule rather than at ``max_iters``.  The
  prices it stopped at must also pass the KKT check on the full link set.
* :func:`path_water_fill` against a weighted max-min bottleneck
  certificate, on tiered instances and on flat ones (several links, one
  link per route).
* :func:`allocate_step` is padding-invariant: inactive rows inserted
  anywhere leave every active allocation bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import LinearConstraint, minimize

from repro import obs
from repro.net import EdgeLink, NetworkTopology
from repro.net.allocator import (
    LOW_LAPSLEY_TOL,
    _dual_ascent,
    allocate_step,
    low_lapsley,
    path_water_fill,
)

#: Largest distance of a Low–Lapsley rate from the solver's optimum, as a
#: fraction of the largest optimal rate.  The stopping rule leaves a KKT
#: residual of at most 1e-6 of capacity; SLSQP's own error on these
#: instances is below 2e-4.
ORACLE_TOL = 1e-3


@st.composite
def tiered_instances(draw):
    """``(demands, capacities, routes, weights)``: 1-3 edge links, then a
    peering and an origin link that every cache miss traverses."""
    edges = draw(st.integers(1, 3))
    sessions = draw(st.integers(1, 10))
    capacity = st.floats(200.0, 8000.0)
    capacities = [draw(capacity) for _ in range(edges + 2)]
    if draw(st.booleans()):
        capacities[-1] = capacities[-2]  # a tie between peer and origin
    routes = np.zeros((sessions, edges + 2), dtype=bool)
    demands = np.empty(sessions)
    weights = np.empty(sessions)
    for row in range(sessions):
        kind = draw(st.sampled_from(["routeless", "hit", "miss"]))
        if kind != "routeless":
            routes[row, draw(st.integers(0, edges - 1))] = True
        if kind == "miss":
            routes[row, -2:] = True
        # Rates are kbps: a demand is 0 or at least 1 (SLSQP does not
        # converge on variables scaled like 1e-200).
        demands[row] = draw(
            st.just(0.0) | st.floats(1.0, 300.0) | st.floats(300.0, 6000.0)
        )
        weights[row] = draw(st.floats(0.25, 4.0))
    return demands, np.asarray(capacities), routes, weights


def _scipy_optimum(demands, capacities, routes, weights):
    """Weighted proportional-fair optimum by SLSQP on the primal problem."""
    optimum = np.zeros_like(demands)
    free = routes.any(axis=1) & (demands > 0.0)
    if not free.any():
        return optimum
    demand, weight = demands[free], weights[free]
    matrix = routes[free].astype(float)
    unit = demand.max()  # solve in units of the largest demand
    upper, limit = demand / unit, capacities / unit
    share = weight / weight.sum()
    with np.errstate(divide="ignore"):
        start = upper * 0.5 * min(1.0, float((limit / (matrix.T @ upper)).min()))
    result = minimize(
        lambda x: -(share @ np.log(x)),
        start,
        jac=lambda x: -share / x,
        bounds=list(zip(upper * 1e-9, upper)),
        constraints=[LinearConstraint(matrix.T, -np.inf, limit)],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 2000},
    )
    optimum[free] = result.x * unit
    return optimum


def _cap_hits(demands, capacities, routes, weights):
    """``low_lapsley``'s answer and its ``allocator.low_lapsley.cap_hits``."""
    with obs.collect() as collector:
        rates = low_lapsley(demands, capacities, routes, weights)
    counters = collector.snapshot()["metrics"]["counters"]
    return rates, counters["allocator.low_lapsley.cap_hits"]


def _assert_feasible(rates, demands, capacities, routes):
    assert np.all(rates >= 0.0)
    assert np.all(rates <= demands)
    assert np.all(rates[~routes.any(axis=1)] == 0.0)
    assert np.all(routes.T.astype(float) @ rates <= capacities * (1 + 1e-9))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tiered_instances())
def test_low_lapsley_matches_the_solver(instance):
    demands, capacities, routes, weights = instance
    rates, cap_hits = _cap_hits(*instance)
    _assert_feasible(rates, demands, capacities, routes)
    if cap_hits:
        return
    optimum = _scipy_optimum(*instance)
    scale = max(float(optimum.max()), 1e-9)
    assert np.max(np.abs(rates - optimum)) <= ORACLE_TOL * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tiered_instances())
def test_low_lapsley_stops_on_a_checkable_kkt_residual(instance):
    demands, capacities, routes, weights = instance
    _, prices, _, converged = _dual_ascent(demands, capacities, routes, weights)
    if not converged:
        return
    assert np.all(prices >= 0.0)
    routed = routes.any(axis=1)
    with np.errstate(divide="ignore"):
        rates = np.where(
            routed, np.minimum(demands, weights / (routes.astype(float) @ prices)), 0.0
        )
    excess = (routes.T.astype(float) @ rates - capacities) / capacities
    assert np.all(excess <= LOW_LAPSLEY_TOL)  # primal feasibility
    assert np.all(np.abs(excess[prices > 0.0]) <= LOW_LAPSLEY_TOL)  # slackness


def test_low_lapsley_seldom_hits_its_iteration_cap():
    """On 300 seeded tiered instances at most 1% of calls stop at
    ``max_iters`` (known slow cases: two priced links whose sessions differ
    only by demand-capped ones), and every other call matches the solver."""
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(300):
        edges, sessions = int(rng.integers(1, 4)), int(rng.integers(1, 11))
        capacities = rng.uniform(200.0, 8000.0, edges + 2)
        kind = rng.integers(0, 3, sessions)  # routeless, hit, miss
        routes = np.zeros((sessions, edges + 2), dtype=bool)
        routes[kind > 0, rng.integers(0, edges, sessions)[kind > 0]] = True
        routes[kind == 2, -2:] = True
        demands = np.where(
            rng.random(sessions) < 0.3,
            rng.uniform(0.0, 300.0, sessions),
            rng.uniform(300.0, 6000.0, sessions),
        )
        weights = rng.uniform(0.25, 4.0, sessions)
        instance = (demands, capacities, routes, weights)
        rates, cap_hits = _cap_hits(*instance)
        hits += cap_hits
        if not cap_hits:
            optimum = _scipy_optimum(*instance)
            scale = max(float(optimum.max()), 1e-9)
            assert np.max(np.abs(rates - optimum)) <= ORACLE_TOL * scale
    assert hits <= 3


def _bottleneck_certificate(rates, demands, capacities, routes, weights):
    """Weighted max-min fairness: every routed session is at its demand, or
    crosses a full link on which no session has a larger rate per weight."""
    arrivals = routes.T.astype(float) @ rates
    full = arrivals >= capacities * (1 - 1e-9)
    level = rates / weights
    for row in np.flatnonzero(routes.any(axis=1)):
        if rates[row] >= demands[row] * (1 - 1e-9):
            continue
        assert any(
            level[row] >= level[routes[:, link]].max() * (1 - 1e-9)
            for link in np.flatnonzero(routes[row] & full)
        ), f"session {row} has no bottleneck link"


@st.composite
def flat_instances(draw):
    """``(demands, capacities, routes, weights)``: 1-4 links, one link per
    route, some rows without a route."""
    links = draw(st.integers(1, 4))
    sessions = draw(st.integers(1, 12))
    capacities = np.asarray([draw(st.floats(200.0, 8000.0)) for _ in range(links)])
    routes = np.zeros((sessions, links), dtype=bool)
    for row in range(sessions):
        link = draw(st.integers(-1, links - 1))  # -1: no route
        if link >= 0:
            routes[row, link] = True
    demands = np.asarray(
        [
            draw(st.just(0.0) | st.floats(1.0, 300.0) | st.floats(300.0, 6000.0))
            for _ in range(sessions)
        ]
    )
    weights = np.asarray([draw(st.floats(0.25, 4.0)) for _ in range(sessions)])
    return demands, capacities, routes, weights


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tiered_instances() | flat_instances())
@example(
    # A miss and a hit share a 9000 edge; peer and origin hold the miss to
    # 3000, and the hit is capped by its own demand: max-min fair is
    # [3000, 5000].  A fill that only ever lowers rates gives [3000, 4500].
    (
        np.asarray([5000.0, 5000.0]),
        np.asarray([9000.0, 3000.0, 3000.0]),
        np.asarray([[True, True, True], [True, False, False]]),
        np.ones(2),
    )
)
def test_path_water_fill_passes_the_bottleneck_certificate(instance):
    demands, capacities, routes, weights = instance
    rates = path_water_fill(*instance)
    _assert_feasible(rates, demands, capacities, routes)
    _bottleneck_certificate(rates, demands, capacities, routes, weights)


def _tree(capacities, allocator) -> NetworkTopology:
    *edges, peer, origin = capacities
    return NetworkTopology(
        name="oracle_tree",
        allocator=allocator,
        links=(
            *(
                EdgeLink(f"edge{i}", capacity, uplinks=("peer", "origin"))
                for i, capacity in enumerate(edges)
            ),
            EdgeLink("peer", peer, tier="peering"),
            EdgeLink("origin", origin, tier="origin"),
        ),
    )


@pytest.mark.parametrize("allocator", ["max_min_fair", "low_lapsley"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance=tiered_instances(), data=st.data())
def test_inactive_rows_anywhere_leave_allocations_bit_identical(
    allocator, instance, data
):
    demands, capacities, routes, weights = instance
    active = routes.any(axis=1)
    edges = capacities.shape[0] - 2
    link_index = np.argmax(routes[:, :edges], axis=1)
    full_path = routes[:, -1]
    topology = _tree(capacities, allocator)
    compact = allocate_step(
        topology, 0, link_index, demands, active, weights, full_path=full_path
    )
    # Inactive rows with arbitrary contents, inserted before any position.
    positions = data.draw(st.lists(st.integers(0, demands.shape[0]), max_size=6))

    def pad(values, filler):
        return np.insert(values, positions, data.draw(
            st.lists(filler, min_size=len(positions), max_size=len(positions))
        ))

    allocations = allocate_step(
        topology,
        0,
        pad(link_index, st.integers(0, edges - 1)),
        pad(demands, st.floats(0.0, 1e4)),
        pad(active, st.just(False)),
        pad(weights, st.floats(0.25, 4.0)),
        full_path=pad(full_path, st.booleans()),
    )
    origin = np.insert(np.arange(demands.shape[0]), positions, -1)
    kept = origin >= 0
    np.testing.assert_array_equal(allocations[kept], compact[origin[kept]])
    assert np.all(allocations[~kept] == 0.0)
