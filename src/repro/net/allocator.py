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


def _session_routes(
    topology, link_index: np.ndarray, active: np.ndarray, full_path
) -> np.ndarray:
    """Boolean ``(num_sessions, num_links)`` route matrix for one slot.

    Row *i* marks every link session *i* traverses this slot: its edge link
    always, plus the edge link's uplink chain when ``full_path[i]`` (an
    edge-cache miss).  ``full_path=None`` means every session traverses its
    full path; inactive rows are all-False.
    """
    num_sessions = link_index.shape[0]
    routes = np.zeros((num_sessions, topology.num_links), dtype=bool)
    rows = np.flatnonzero(active)
    if rows.size == 0:
        return routes
    if full_path is None:
        routes[rows] = topology.path_matrix[link_index[rows]]
    else:
        full_path = np.asarray(full_path, dtype=bool)
        miss = rows[full_path[rows]]
        hit = rows[~full_path[rows]]
        routes[miss] = topology.path_matrix[link_index[miss]]
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
    gamma: float = 0.5,
    tol: float = 1e-6,
    max_iters: int = 200,
) -> np.ndarray:
    """Primal-dual optimization flow control (Low & Lapsley).

    Each link *l* carries a price ``p_l``; each session solves its local
    problem in closed form — rate ``x_s = min(d_s, w_s / q_s)`` where ``q_s``
    is the price sum along its route (log-utility ⇒ weighted proportional
    fairness) — and prices ascend the dual gradient
    ``p_l ← max(0, p_l + gamma · s_l · (y_l − c_l) / c_l)`` with ``y_l`` the
    link's arrival rate and ``s_l`` a per-link step scale that keeps price
    magnitudes in the regime of ``w/c``.  Iteration stops at a fixed
    deterministic tolerance (or cap), and a final feasibility projection
    scales every session by the worst overload ratio on its path, so the
    result never exceeds any capacity.
    """
    demands = np.where(routes.any(axis=1), demands, 0.0)
    if not demands.any():
        return np.zeros_like(demands)
    weight_load = routes.T.astype(float) @ weights  # total weight per link
    scale = np.maximum(weight_load, 1.0) / capacities
    prices = scale.copy()
    rates = demands.copy()
    for _ in range(max_iters):
        path_price = routes.astype(float) @ prices
        with np.errstate(divide="ignore"):
            unconstrained = np.where(path_price > 0.0, weights / path_price, np.inf)
        new_rates = np.minimum(demands, unconstrained)
        arrivals = routes.T.astype(float) @ new_rates
        prices = np.maximum(
            0.0, prices + gamma * scale * (arrivals - capacities) / capacities
        )
        if np.max(np.abs(new_rates - rates)) <= tol * max(1.0, float(new_rates.max())):
            rates = new_rates
            break
        rates = new_rates
    # Feasibility projection: scale each session by the worst overload on its
    # path so no link ends above capacity (prices may not have fully settled).
    arrivals = routes.T.astype(float) @ rates
    link_scale = np.where(arrivals > capacities, capacities / np.maximum(arrivals, 1e-12), 1.0)
    session_scale = np.where(routes, link_scale[None, :], 1.0).min(axis=1)
    return rates * session_scale


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
    allocation 0 and take no capacity.  Links are processed in topology
    order and each link's active rows are gathered in ascending batch order
    — the ordering contract that keeps the scalar and vector engines'
    allocations identical.  When ``usage_out`` is given, one
    :class:`LinkUsageSample` per link (idle links included) is appended.

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
    profiling = obs.enabled()
    congested = 0
    path_aware = topology.has_tiers or topology.allocator != "max_min_fair"
    with obs.span("allocator.water_fill"):
        if not path_aware:
            for index, link in enumerate(topology.links):
                rows = active & (link_index == index)
                capacity = float(capacities[index])
                count = int(np.count_nonzero(rows))
                if count:
                    link_demands = demands[rows]
                    link_weights = None if weights is None else weights[rows]
                    link_alloc = max_min_fair(link_demands, capacity, link_weights)
                    allocations[rows] = link_alloc
                    demand_total = float(link_demands.sum())
                    allocated_total = float(link_alloc.sum())
                    if profiling and demand_total > capacity:
                        congested += 1
                else:
                    demand_total = 0.0
                    allocated_total = 0.0
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
        else:
            if not np.all(np.isfinite(demands)) or np.any(demands < 0):
                raise ValueError("demands must be finite and non-negative")
            if weights is None:
                weights_arr = np.ones_like(demands)
            else:
                weights_arr = np.asarray(weights, dtype=float)
                if not np.all(np.isfinite(weights_arr)) or np.any(weights_arr <= 0):
                    raise ValueError("weights must be finite and positive")
            link_index = np.asarray(link_index)
            routes = _session_routes(topology, link_index, active, full_path)
            if topology.allocator == "low_lapsley":
                allocations = low_lapsley(demands, capacities, routes, weights_arr)
            else:
                allocations = path_water_fill(
                    demands, capacities, routes, weights_arr
                )
            for index, link in enumerate(topology.links):
                rows = routes[:, index]
                capacity = float(capacities[index])
                count = int(np.count_nonzero(rows))
                demand_total = float(demands[rows].sum()) if count else 0.0
                allocated_total = float(allocations[rows].sum()) if count else 0.0
                if profiling and demand_total > capacity:
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
    if profiling:
        obs.counter_add("allocator.slots")
        obs.counter_add("allocator.links", len(topology.links))
        obs.counter_add("allocator.congested_links", congested)
        obs.gauge_max("allocator.active_sessions", int(np.count_nonzero(active)))
    return allocations
