"""Vectorized weighted max-min fair bandwidth allocation.

The allocation model follows the classic fair-share picture of *Optimization
Flow Control* (Low & Lapsley): at every slot the sessions actively
downloading on a link split its usable capacity.  A session's **demand** is
the most it could pull on its own (its access-link bandwidth — the
pre-drawn trace value), so an uncongested link passes every demand through
unchanged and a congested one water-fills: small demands are served in full,
large ones are clipped to a common fair level ``lambda`` (scaled by the
session's weight) chosen so the link is exactly filled.

Everything is whole-batch array math — sorting plus cumulative sums, no
per-session Python loop — and, crucially, both simulation engines (the
event-ordered scalar reference and the lockstep vector engine) call the
*same* :func:`allocate_step` on identically ordered demand vectors, which is
what makes networked scalar and vector traces bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs


@dataclass(frozen=True)
class LinkUsageSample:
    """Per-slot, per-link utilization record (the telemetry unit).

    ``tier`` carries the link's tier (``"edge"``, ``"peering"``,
    ``"origin"``, …) so multi-tier telemetry consumers can aggregate per
    tier; flat topologies emit ``"edge"`` rows only.
    """

    step: int
    link_id: str
    capacity_kbps: float
    active_sessions: int
    demand_kbps: float
    allocated_kbps: float
    tier: str = "edge"

    @property
    def utilization(self) -> float:
        """Fraction of the link's usable capacity allocated this slot."""
        if self.capacity_kbps <= 0:
            return 0.0
        return self.allocated_kbps / self.capacity_kbps

    def as_payload(self) -> dict:
        """Plain-dict view (telemetry payload)."""
        return {
            "step": self.step,
            "link_id": self.link_id,
            "tier": self.tier,
            "capacity_kbps": self.capacity_kbps,
            "active_sessions": self.active_sessions,
            "demand_kbps": self.demand_kbps,
            "allocated_kbps": self.allocated_kbps,
            "utilization": self.utilization,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LinkUsageSample":
        """Inverse of :meth:`as_payload` (``utilization`` is derived)."""
        return cls(
            step=int(payload["step"]),
            link_id=str(payload["link_id"]),
            capacity_kbps=float(payload["capacity_kbps"]),
            active_sessions=int(payload["active_sessions"]),
            demand_kbps=float(payload["demand_kbps"]),
            allocated_kbps=float(payload["allocated_kbps"]),
            tier=str(payload.get("tier", "edge")),
        )


def max_min_fair(
    demands: np.ndarray, capacity: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Weighted max-min fair allocation of ``capacity`` across ``demands``.

    Returns one allocation per demand: ``min(d_i, lambda * w_i)`` with the
    water level ``lambda`` chosen so allocations sum to ``capacity`` when the
    link is congested, and ``d_i`` itself when total demand fits.  Weights
    default to 1 (plain max-min); a weight-2 session receives twice the fair
    share of a weight-1 session whenever both are capacity-limited.

    Vectorized water-filling: sort sessions by ``d_i / w_i``, locate the
    first index where saturating everyone cheaper exceeds the capacity
    (``searchsorted`` on a cumulative fill curve), and solve for ``lambda``
    on the remaining weight.
    """
    demands = np.asarray(demands, dtype=float)
    if demands.size == 0:
        return demands.copy()
    # NaN slips past a plain sign check (``nan < 0`` is False), so validate
    # finiteness explicitly — a NaN demand would otherwise silently poison
    # every allocation on the link.
    if not np.all(np.isfinite(demands)) or np.any(demands < 0):
        raise ValueError("demands must be finite and non-negative")
    if not np.isfinite(capacity) or capacity <= 0:
        raise ValueError("capacity must be finite and positive")
    if weights is None:
        weights = np.ones_like(demands)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != demands.shape:
            raise ValueError("weights must match demands")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be finite and positive")

    total_demand = float(demands.sum())
    if total_demand <= capacity:
        return demands.copy()

    ratio = demands / weights
    order = np.argsort(ratio, kind="stable")
    demand_sorted = demands[order]
    weight_sorted = weights[order]
    ratio_sorted = ratio[order]
    cum_demand = np.cumsum(demand_sorted)
    cum_weight = np.cumsum(weight_sorted)
    total_weight = cum_weight[-1]
    # fill[k]: capacity used if the water level sits at ratio_sorted[k] —
    # sessions 0..k saturated, the rest at level * weight.  Non-decreasing.
    fill = cum_demand + ratio_sorted * (total_weight - cum_weight)
    saturated = int(np.searchsorted(fill, capacity, side="left"))
    if saturated == demands.size:
        # Total demand exceeds capacity, yet the rounded cumulative fill ends
        # a few ulps below it: every session is demand-limited, and no
        # weight is left to raise a water level over.
        return demands.copy()
    served = cum_demand[saturated - 1] if saturated > 0 else 0.0
    remaining_weight = total_weight - (cum_weight[saturated - 1] if saturated > 0 else 0.0)
    level = (capacity - served) / remaining_weight
    return np.minimum(demands, level * weights)


def _session_routes(topology, link_index: np.ndarray, full_path) -> np.ndarray:
    """Boolean ``(num_sessions, num_links)`` route matrix of one slot's
    active sessions.

    Row *i* marks every link session *i* traverses this slot: its edge link
    always, plus the edge link's uplink chain when ``full_path[i]`` (an
    edge-cache miss).  ``full_path=None`` means every session traverses its
    full path; on a flat topology every route is the edge link alone.
    """
    routes = topology.path_matrix[link_index]
    if full_path is not None:
        hit = np.flatnonzero(~np.asarray(full_path, dtype=bool))
        routes[hit] = False
        routes[hit, link_index[hit]] = True
    return routes


def path_water_fill(
    demands: np.ndarray,
    capacities: np.ndarray,
    routes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Path-aware weighted max-min fair allocation (fixed-point sweeps).

    Starting from every session at its demand, sweep links in canonical
    (topology) order applying single-link water-filling to each link's
    current allocations; a sweep only ever *lowers* rates, and sweeping
    repeats until a full pass changes nothing.  A session's rate ends up
    bounded by the min of its links' fair shares; on single-link paths the
    first sweep is exactly the classic allocation.  Termination is bounded:
    each non-final sweep fills at least one link exactly to capacity, after
    which later (rate-lowering) sweeps can never congest it again.
    """
    alloc = np.where(routes.any(axis=1), demands, 0.0)
    num_links = capacities.shape[0]
    for _ in range(num_links + 1):
        changed = False
        for index in range(num_links):
            rows = routes[:, index]
            if not rows.any():
                continue
            current = alloc[rows]
            filled = max_min_fair(current, float(capacities[index]), weights[rows])
            if np.any(filled < current):
                alloc[rows] = filled
                changed = True
        if not changed:
            break
    return alloc


def low_lapsley(
    demands: np.ndarray,
    capacities: np.ndarray,
    routes: np.ndarray,
    weights: np.ndarray,
    *,
    gamma: float = 1.5,
    tol: float = 1e-6,
    max_iters: int = 200,
) -> np.ndarray:
    """Primal-dual optimization flow control (Low & Lapsley).

    Solves max Σ w_s·log x_s subject to ``routes.T @ x <= capacities`` and
    ``0 <= x <= demands`` (weighted proportional fairness).  Each link *l*
    carries a price ``p_l``; each session solves its local problem in closed
    form, ``x_s = min(d_s, w_s / q_s)`` with ``q_s`` the price sum along its
    route, and prices take projected steps along the dual gradient.

    **Reduction.**  Only links whose total demand exceeds their capacity can
    bind; the others keep price 0 and drop out.  Links that carry the same
    sessions (a peering and an origin link behind the same edges) are one
    constraint at the smaller capacity, so only that one is priced;
    otherwise both would rise together and a miss path would take every
    step twice.  Rows without a route receive 0.

    **Step rule.**  ``p_l ← max(0, p_l + gamma · (y_l − c_l) / H_l)`` with
    ``y_l`` the link's arrival rate and ``H_l = Σ_{s∋l} L_s · x_s² / w_s``:
    ``x_s² / w_s`` is session *s*'s curvature ``−dx_s/dq_s``, ``L_s`` the
    number of priced links on its route.  ``H_l`` is the row sum of the
    dual Hessian ``Rᵀ diag(x²/w) R``, so it bounds that Hessian link by
    link; Low & Lapsley's step condition ``gamma < 2 / (ᾱ·L̄·S̄)`` is the
    same bound with the largest curvature, path length and session count
    in place of each link's own, and the link-wise form keeps ``gamma < 2``.
    A session capped at its demand does not answer a falling price, so it
    counts in ``H_l`` only while the link is overloaded, with the curvature
    it would have at its cap; a link with no session left to answer a
    falling price drops straight to price 0.  Prices start at each link's
    total weight over its capacity times the longest route.

    **Stopping rule.**  Iteration stops once the KKT residual — overload
    ``(y_l − c_l) / c_l`` on every link, and slack ``(c_l − y_l) / c_l`` on
    every priced link — is at most ``tol``, or after ``max_iters`` steps (a
    *cap hit*, counted under ``allocator.low_lapsley.cap_hits``).  A final
    feasibility projection scales each session by the worst overload ratio
    on its route, so the result never exceeds any capacity.

    Callers pass the slot's active rows only (:func:`allocate_step` compacts
    them), which keeps the dense route matrix at the size of the slot's
    traffic.
    """
    rates, _, iterations, converged = _dual_ascent(
        demands, capacities, routes, weights, gamma, tol, max_iters
    )
    if obs.enabled():
        obs.counter_add("allocator.low_lapsley.iterations", iterations)
        obs.counter_add("allocator.low_lapsley.cap_hits", int(not converged))
    return rates


def _dual_ascent(demands, capacities, routes, weights, gamma, tol, max_iters):
    """:func:`low_lapsley`'s iteration: ``(rates, prices, iterations, converged)``.

    ``prices`` has one entry per link (0 on links that were never priced);
    ``rates`` are the projected rates :func:`low_lapsley` returns.
    """
    demands = np.where(routes.any(axis=1), demands, 0.0)
    prices = np.zeros(capacities.shape[0])
    # Which links to price: congestible ones, one per distinct session set
    # (the smallest capacity; the first in topology order on a tie).
    matrix = routes.astype(float)
    load = matrix.T @ demands
    priced: dict[bytes, int] = {}
    for index in np.flatnonzero(load > capacities):
        key = routes[:, index].tobytes()
        kept = priced.get(key)
        if kept is None or capacities[index] < capacities[kept]:
            priced[key] = int(index)
    if not priced:
        return demands, prices, 0, True
    links = np.sort(np.fromiter(priced.values(), dtype=int, count=len(priced)))
    matrix = matrix[:, links]
    caps = capacities[links]
    lengths = matrix.sum(axis=1)
    curvature_scale = lengths / weights
    price = (matrix.T @ weights) / (caps * lengths.max())
    converged = False
    # A session on no priced link has path price 0 and runs at its demand;
    # a link with nothing left to answer a falling price gets H = 0, and
    # fmax maps its -inf (or 0/0) step to price 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(max_iters + 1):
            rates = np.minimum(demands, weights / (matrix @ price))
            arrivals = matrix.T @ rates
            excess = arrivals - caps
            relative = excess / caps
            if np.where(price > 0.0, np.abs(relative), relative).max() <= tol:
                converged = True
                break
            if iterations == max_iters:
                break
            curvature = rates * rates * curvature_scale
            hessian_all = matrix.T @ curvature
            hessian_free = matrix.T @ np.where(rates < demands, curvature, 0.0)
            hessian = np.where(excess > 0.0, hessian_all, hessian_free)
            price = np.fmax(0.0, price + gamma * excess / hessian)
    prices[links] = price
    link_scale = np.where(arrivals > caps, caps / arrivals, 1.0)
    session_scale = np.where(matrix > 0.0, link_scale, 1.0).min(axis=1)
    return rates * session_scale, prices, iterations, converged


def allocate_step(
    topology,
    step: int,
    link_index: np.ndarray,
    demands: np.ndarray,
    active: np.ndarray,
    weights: np.ndarray | None = None,
    usage_out: list[LinkUsageSample] | None = None,
    full_path: np.ndarray | None = None,
) -> np.ndarray:
    """Allocate every link of ``topology`` for one slot.

    ``link_index``/``demands``/``active``/``weights``/``full_path`` are
    batch-order arrays (one row per session); inactive rows receive
    allocation 0 and take no capacity.  The active rows are gathered once,
    in ascending batch order, and every allocator works on those rows only;
    links are processed in topology order — the ordering contract that keeps
    the scalar and vector engines' allocations identical, and that makes
    inactive rows anywhere in the batch leave every allocation unchanged.
    When ``usage_out`` is given, one :class:`LinkUsageSample` per link (idle
    links included) is appended.

    On flat topologies running ``max_min_fair`` this is the historical
    independent per-link water-fill, bit for bit.  Multi-tier topologies
    (or ``topology.allocator == "low_lapsley"``) route through the
    path-aware allocators: ``full_path`` marks the sessions whose download
    misses the edge cache this slot and therefore traverses the edge link's
    whole uplink chain (``None`` → every session takes its full path).
    """
    capacities = topology.capacities_at(step)
    demands = np.asarray(demands, dtype=float)
    allocations = np.zeros_like(demands)
    rows = np.flatnonzero(active)
    link_demands = demands[rows]
    if not np.all(np.isfinite(link_demands)) or np.any(link_demands < 0):
        raise ValueError("demands must be finite and non-negative")
    if weights is None:
        link_weights = None
    else:
        link_weights = np.asarray(weights, dtype=float)[rows]
        if not np.all(np.isfinite(link_weights)) or np.any(link_weights <= 0):
            raise ValueError("weights must be finite and positive")
    routes = _session_routes(
        topology,
        np.asarray(link_index)[rows],
        None if full_path is None else np.asarray(full_path)[rows],
    )
    path_aware = topology.has_tiers or topology.allocator != "max_min_fair"
    with obs.span("allocator.water_fill"):
        if not path_aware:  # one link per route
            served = np.zeros_like(link_demands)
            for index in range(topology.num_links):
                members = routes[:, index]
                if members.any():
                    served[members] = max_min_fair(
                        link_demands[members],
                        float(capacities[index]),
                        None if link_weights is None else link_weights[members],
                    )
        else:
            if link_weights is None:
                link_weights = np.ones_like(link_demands)
            if topology.allocator == "low_lapsley":
                served = low_lapsley(link_demands, capacities, routes, link_weights)
            else:
                served = path_water_fill(
                    link_demands, capacities, routes, link_weights
                )
        allocations[rows] = served
        congested = 0
        for index, link in enumerate(topology.links):
            members = routes[:, index]
            capacity = float(capacities[index])
            count = int(np.count_nonzero(members))
            demand_total = float(link_demands[members].sum()) if count else 0.0
            allocated_total = float(served[members].sum()) if count else 0.0
            if demand_total > capacity:
                congested += 1
            if usage_out is not None:
                usage_out.append(
                    LinkUsageSample(
                        step=step,
                        link_id=link.link_id,
                        capacity_kbps=capacity,
                        active_sessions=count,
                        demand_kbps=demand_total,
                        allocated_kbps=allocated_total,
                        tier=link.tier,
                    )
                )
    if obs.enabled():
        obs.counter_add("allocator.slots")
        obs.counter_add("allocator.links", len(topology.links))
        obs.counter_add("allocator.congested_links", congested)
        obs.gauge_max("allocator.active_sessions", rows.size)
    return allocations
