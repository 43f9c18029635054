"""Vectorized weighted max-min fair bandwidth allocation.

The allocation model follows the classic fair-share picture of *Optimization
Flow Control* (Low & Lapsley): at every slot the sessions actively
downloading on a link split its usable capacity.  A session's **demand** is
the most it could pull on its own (its access-link bandwidth — the
pre-drawn trace value), so an uncongested link passes every demand through
unchanged and a congested one water-fills: small demands are served in full,
large ones are clipped to a common fair level ``lambda`` (scaled by the
session's weight) chosen so the link is exactly filled.  Routes over
several links (edge-cache misses) get the max-min fair rate over all of
them (:func:`path_water_fill`), or proportional fairness (:func:`low_lapsley`).

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

#: :func:`low_lapsley`'s price step size γ (stable below 2).
LOW_LAPSLEY_GAMMA = 1.5
#: :func:`low_lapsley`'s stopping rule: the largest KKT residual, as a
#: fraction of each link's capacity.
LOW_LAPSLEY_TOL = 1e-6
#: :func:`low_lapsley`'s iteration cap; a call that reaches it is a cap hit.
LOW_LAPSLEY_MAX_ITERS = 200


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


def path_water_fill(  # contract: NET-ALLOC-013
    demands: np.ndarray,
    capacities: np.ndarray,
    routes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Path-aware weighted max-min fair allocation (progressive filling).

    Each round water-fills every link's unfrozen sessions on the capacity
    its frozen sessions leave (:func:`max_min_fair`); a session's tentative
    rate is the least of its links' fills.  A link on which every unfrozen
    session's tentative rate is that link's own fill is a bottleneck, and
    its sessions freeze at those rates.  The link with the lowest water
    level always qualifies, so every round freezes at least one link and
    the loop ends within ``num_links`` rounds.  Rows without a route
    receive 0.  Disjoint one-link routes all freeze in the first round, at
    :func:`max_min_fair`'s own output bit for bit.
    """
    residual = np.array(capacities, dtype=float)
    if not np.all(np.isfinite(residual)) or np.any(residual <= 0):
        raise ValueError("capacity must be finite and positive")
    alloc = np.zeros_like(demands)
    unfrozen = routes.any(axis=1)
    while unfrozen.any():
        members = routes & unfrozen[:, None]
        fills = np.full(routes.shape, np.inf)
        for index in np.flatnonzero(members.any(axis=0)):
            rows, spare = members[:, index], float(residual[index])
            # A link its frozen sessions fill (up to rounding) has no more.
            fills[rows, index] = (
                max_min_fair(demands[rows], spare, weights[rows]) if spare > 0 else 0.0
            )
        rates = fills.min(axis=1)
        bottleneck = ~(members & (fills != rates[:, None])).any(axis=0)
        settled = (members & bottleneck).any(axis=1)
        alloc[settled] = rates[settled]
        unfrozen &= ~settled
        residual -= np.where(routes & settled[:, None], rates[:, None], 0.0).sum(0)
    return alloc


def low_lapsley(
    demands: np.ndarray,
    capacities: np.ndarray,
    routes: np.ndarray,
    weights: np.ndarray,
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

    **Step rule.**  ``p_l ← max(0, p_l + γ · (y_l − c_l) / H_l)`` with
    ``y_l`` the link's arrival rate and ``H_l = Σ_{s∋l} L_s · x_s² / w_s``:
    ``x_s² / w_s`` is session *s*'s curvature ``−dx_s/dq_s``, ``L_s`` the
    number of priced links on its route.  ``H_l`` is the row sum of the
    dual Hessian ``Rᵀ diag(x²/w) R``, so it bounds that Hessian link by
    link; Low & Lapsley's step condition ``γ < 2 / (ᾱ·L̄·S̄)`` is the
    same bound with the largest curvature, path length and session count
    in place of each link's own, and the link-wise form keeps ``γ < 2``
    (:data:`LOW_LAPSLEY_GAMMA`).
    A session capped at its demand does not answer a falling price, so it
    counts in ``H_l`` only while the link is overloaded, with the curvature
    it would have at its cap; a link with no session left to answer a
    falling price drops straight to price 0.  Prices start at each link's
    total weight over its capacity times the longest route.

    **Stopping rule.**  Iteration stops once the KKT residual — overload
    ``(y_l − c_l) / c_l`` on every link, and slack ``(c_l − y_l) / c_l`` on
    every priced link — is at most :data:`LOW_LAPSLEY_TOL`, or after
    :data:`LOW_LAPSLEY_MAX_ITERS` steps (a *cap hit*, counted under
    ``allocator.low_lapsley.cap_hits``).  A final
    feasibility projection scales each session by the worst overload ratio
    on its route, so the result never exceeds any capacity.

    Callers pass the slot's active rows only (:func:`allocate_step` compacts
    them), which keeps the dense route matrix at the size of the slot's
    traffic.
    """
    rates, _, iterations, converged = _dual_ascent(demands, capacities, routes, weights)
    if obs.enabled():
        obs.counter_add("allocator.low_lapsley.iterations", iterations)
        obs.counter_add("allocator.low_lapsley.cap_hits", int(not converged))
    return rates


def _dual_ascent(demands, capacities, routes, weights):
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
        for iterations in range(LOW_LAPSLEY_MAX_ITERS + 1):
            rates = np.minimum(demands, weights / (matrix @ price))
            arrivals = matrix.T @ rates
            excess = arrivals - caps
            relative = excess / caps
            residual = np.where(price > 0.0, np.abs(relative), relative).max()
            if residual <= LOW_LAPSLEY_TOL:
                converged = True
                break
            if iterations == LOW_LAPSLEY_MAX_ITERS:
                break
            curvature = rates * rates * curvature_scale
            hessian_all = matrix.T @ curvature
            hessian_free = matrix.T @ np.where(rates < demands, curvature, 0.0)
            hessian = np.where(excess > 0.0, hessian_all, hessian_free)
            price = np.fmax(0.0, price + LOW_LAPSLEY_GAMMA * excess / hessian)
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

    The rows go to :func:`low_lapsley` when ``topology.allocator ==
    "low_lapsley"`` and to :func:`path_water_fill` otherwise, with
    ``weights=None`` meaning weight 1 for every session.  ``full_path``
    marks the sessions whose download misses the edge cache this slot and
    therefore traverses the edge link's whole uplink chain (``None`` →
    every session takes its full path; on a flat topology every route is
    its edge link alone).
    """
    capacities = topology.capacities_at(step)
    demands = np.asarray(demands, dtype=float)
    allocations = np.zeros_like(demands)
    rows = np.flatnonzero(active)
    link_demands = demands[rows]
    if not np.all(np.isfinite(link_demands)) or np.any(link_demands < 0):
        raise ValueError("demands must be finite and non-negative")
    if weights is None:
        link_weights = np.ones_like(link_demands)
    else:
        link_weights = np.asarray(weights, dtype=float)[rows]
        if not np.all(np.isfinite(link_weights)) or np.any(link_weights <= 0):
            raise ValueError("weights must be finite and positive")
    routes = _session_routes(
        topology,
        np.asarray(link_index)[rows],
        None if full_path is None else np.asarray(full_path)[rows],
    )
    with obs.span("allocator.water_fill"):
        if topology.allocator == "low_lapsley":
            served = low_lapsley(link_demands, capacities, routes, link_weights)
        else:
            served = path_water_fill(link_demands, capacities, routes, link_weights)
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
