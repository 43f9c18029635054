"""AST rules behind the determinism-contract ledger.

Each rule machine-checks one ``CONTRACTS.md`` entry over a parsed
module.  Rules are pure functions of ``(path, source, tree)`` — no
imports of the code under inspection, stdlib :mod:`ast` only — so the
linter can run on fixture trees in tests exactly as it runs on the
repo.

Waivers are inline comments::

    # contract: DET-CLOCK-002 exempt(wall-time telemetry only)

A waiver on the flagged line, or on the line directly above it,
suppresses findings for that rule ID and doubles as a ledger anchor.
A bare ``# contract: <ID>`` (no ``exempt``) is a plain anchor: it
marks code that upholds the contract for the ledger cross-check but
suppresses nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

# ---------------------------------------------------------------------------
# Findings and waivers
# ---------------------------------------------------------------------------

#: ``# contract: <ID>`` with an optional ``exempt(<reason>)`` tail.  The
#: reason may contain anything but a closing parenthesis at end of line.
CONTRACT_COMMENT = re.compile(
    r"#\s*contract:\s*(?P<id>[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*-\d{3})"
    r"(?:\s+exempt\((?P<reason>[^)]*)\))?"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation at a precise source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: False for a finding that no ``exempt(...)`` comment can waive.
    waivable: bool = True

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def baseline_key(self, source_lines: list[str]) -> str:
        """Stable-ish identity for baseline matching.

        Keyed on the *content* of the flagged line rather than its
        number, so unrelated edits above a grandfathered finding do not
        invalidate the baseline.
        """
        text = ""
        if 1 <= self.line <= len(source_lines):
            text = source_lines[self.line - 1].strip()
        return f"{self.rule_id}|{self.path}|{text}"


@dataclass(frozen=True)
class Anchor:
    """One ``# contract: <ID>`` comment (plain or exempt) in a file."""

    rule_id: str
    path: str
    line: int
    reason: str | None  # None for plain anchors, the reason for waivers

    @property
    def is_waiver(self) -> bool:
        return self.reason is not None


def scan_anchors(path: str, source: str) -> list[Anchor]:
    """All contract comments in ``source``, in line order."""
    anchors: list[Anchor] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in CONTRACT_COMMENT.finditer(text):
            anchors.append(
                Anchor(
                    rule_id=match.group("id"),
                    path=path,
                    line=lineno,
                    reason=match.group("reason"),
                )
            )
    return anchors


def _waived(finding: Finding, waivers: dict[int, set[str]]) -> bool:
    """True when a same-line or preceding-line waiver covers the finding."""
    for line in (finding.line, finding.line - 1):
        if finding.rule_id in waivers.get(line, set()):
            return True
    return False


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

#: Path fragments (relative, ``/``-separated) that a rule applies to.
#: ``repro/...`` prefixes are matched against the path *after* any
#: leading ``src/`` component, so the same rules work on the repo tree
#: and on fixture trees rooted elsewhere.


def _module_path(path: str) -> str:
    """Normalise ``src/repro/sim/vector.py`` → ``repro/sim/vector.py``."""
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    return "/".join(parts)


def _in_packages(path: str, packages: tuple[str, ...]) -> bool:
    mod = _module_path(path)
    return any(mod == pkg or mod.startswith(pkg + "/") for pkg in packages)


#: Everything that feeds a simulated trace: the engines, the controllers,
#: the populations, the network, the fleet runtime and the numerics they
#: sit on.  ``obs`` (observability) and ``contracts`` (this package) are
#: deliberately outside.
TRACE_PACKAGES = (
    "repro/sim",
    "repro/abr",
    "repro/users",
    "repro/net",
    "repro/fleet",
    "repro/core",
    "repro/nn",
    "repro/bayesopt",
    "repro/datasets",
    "repro/analytics",
    "repro/experiments",
)

#: Packages whose iteration order directly shapes traces and telemetry.
ORDER_PACKAGES = ("repro/sim", "repro/fleet", "repro/net")

#: The observability layer (OBS-NEUTRAL-004 scope).
OBS_PACKAGE = ("repro/obs",)

#: Modules that *own* the checkpoint payload schema (CKPT-006 scope
#: exclusion): the checkpoint layer itself and the payload helpers it
#: delegates to.
CKPT_OWNERS = ("repro/fleet/checkpoint.py", "repro/core/persistence.py")


def _is_test_path(path: str) -> bool:
    parts = Path(path).as_posix().split("/")
    return "tests" in parts or Path(path).name.startswith("test_")


# ---------------------------------------------------------------------------
# Import tracking (shared by several rules)
# ---------------------------------------------------------------------------


class _Imports(ast.NodeVisitor):
    """Collect the local names that modules of interest are bound to."""

    def __init__(self) -> None:
        self.modules: dict[str, set[str]] = {}  # real module -> local aliases
        self.from_names: dict[tuple[str, str], set[str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.modules.setdefault(alias.name, set()).add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                self.from_names.setdefault((node.module, alias.name), set()).add(local)
        self.generic_visit(node)

    def aliases(self, module: str) -> set[str]:
        return self.modules.get(module, set())


def _collect_imports(tree: ast.AST) -> _Imports:
    imports = _Imports()
    imports.visit(tree)
    return imports


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``np.random.default_rng`` → ``["np", "random", "default_rng"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


# ---------------------------------------------------------------------------
# DET-RNG-001 — no global RNG in trace-affecting code
# ---------------------------------------------------------------------------

#: Draw functions on the stdlib ``random`` module (module-level = the
#: hidden global Mersenne Twister).
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "paretovariate", "weibullvariate", "vonmisesvariate", "seed",
    "getrandbits", "randbytes", "getstate", "setstate",
}

#: Legacy global-state functions on ``numpy.random`` (the module-level
#: ``RandomState`` singleton).  ``default_rng``/``Generator``/``Philox``/
#: ``SeedSequence`` are the sanctioned API once given a seed.
_NUMPY_GLOBAL_FNS = {
    "random", "rand", "randn", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "uniform", "normal",
    "standard_normal", "shuffle", "permutation", "seed", "beta", "gamma",
    "poisson", "exponential", "binomial", "geometric", "laplace",
    "lognormal", "pareto", "rayleigh", "triangular", "vonmises",
    "weibull", "zipf", "bytes", "get_state", "set_state",
}

#: ``numpy.random`` constructors that draw OS entropy when called without
#: a seed.
_NUMPY_ENTROPY_CTORS = {
    "default_rng", "SeedSequence", "Philox", "PCG64", "PCG64DXSM",
    "MT19937", "SFC64",
}


def check_global_rng(path: str, source: str, tree: ast.AST) -> Iterator[Finding]:
    """DET-RNG-001: all randomness flows from passed-in, explicitly
    seeded generators (Philox/``SeedSequence``/``default_rng(seed)``);
    the hidden global state of ``random`` and ``numpy.random`` is
    banned in trace-affecting code."""
    if _is_test_path(path) or not _in_packages(path, TRACE_PACKAGES):
        return
    imports = _collect_imports(tree)
    random_aliases = imports.aliases("random")
    numpy_aliases = imports.aliases("numpy")
    # `import numpy.random as npr` style
    npr_aliases = imports.aliases("numpy.random")
    # `from random import random` style
    from_random = {
        local: name
        for (module, name), locals_ in imports.from_names.items()
        if module == "random" and name in _STDLIB_RANDOM_FNS
        for local in locals_
    }
    from_np_random = {
        local: name
        for (module, name), locals_ in imports.from_names.items()
        if module == "numpy.random" and name in _NUMPY_GLOBAL_FNS
        for local in locals_
    }
    from_np_ctors = {
        local: name
        for (module, name), locals_ in imports.from_names.items()
        if module == "numpy.random" and name in _NUMPY_ENTROPY_CTORS
        for local in locals_
    }

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        head, tail = chain[0], chain[1:]
        # random.<fn>(...)
        if head in random_aliases and len(tail) == 1 and tail[0] in _STDLIB_RANDOM_FNS:
            yield Finding(
                "DET-RNG-001", path, node.lineno, node.col_offset,
                f"call to global-state `random.{tail[0]}()`; pass an explicit "
                "np.random.Generator (Philox/SeedSequence) instead",
            )
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        elif (
            head in numpy_aliases
            and len(tail) == 2
            and tail[0] == "random"
            and tail[1] in _NUMPY_GLOBAL_FNS
        ) or (head in npr_aliases and len(tail) == 1 and tail[0] in _NUMPY_GLOBAL_FNS):
            fn = tail[-1]
            yield Finding(
                "DET-RNG-001", path, node.lineno, node.col_offset,
                f"call to numpy's global-state `np.random.{fn}()`; use a "
                "passed-in Generator seeded from a SeedSequence",
            )
        # unseeded default_rng() / SeedSequence() / Philox() / ...
        elif (
            (
                head in numpy_aliases
                and len(tail) == 2
                and tail[0] == "random"
                and tail[1] in _NUMPY_ENTROPY_CTORS
            )
            or (head in npr_aliases and len(tail) == 1 and tail[0] in _NUMPY_ENTROPY_CTORS)
            or (len(chain) == 1 and chain[0] in from_np_ctors)
        ) and not node.args and not node.keywords:
            yield Finding(
                "DET-RNG-001", path, node.lineno, node.col_offset,
                f"`{chain[-1]}()` without a seed draws OS entropy; thread an "
                "explicit seed or SeedSequence through instead",
            )
        # bare from-imports: random() / shuffle(...)
        elif len(chain) == 1 and chain[0] in from_random:
            yield Finding(
                "DET-RNG-001", path, node.lineno, node.col_offset,
                f"call to `{chain[0]}()` from-imported off the global "
                "`random` module; pass an explicit Generator instead",
            )
        elif len(chain) == 1 and chain[0] in from_np_random:
            yield Finding(
                "DET-RNG-001", path, node.lineno, node.col_offset,
                f"call to `{chain[0]}()` from-imported off `numpy.random`'s "
                "global state; pass an explicit Generator instead",
            )


# ---------------------------------------------------------------------------
# DET-CLOCK-002 — no wall-clock reads outside obs/benchmarks
# ---------------------------------------------------------------------------

_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
}
_DATETIME_FNS = {"now", "utcnow", "today"}


def check_wall_clock(path: str, source: str, tree: ast.AST) -> Iterator[Finding]:
    """DET-CLOCK-002: simulated time is the only time; host-clock reads
    live in ``repro.obs`` and ``benchmarks/`` and must not influence a
    trace.  Any read elsewhere needs an explicit exempt waiver stating
    why it cannot leak into simulation state."""
    if _is_test_path(path) or not _in_packages(path, TRACE_PACKAGES):
        return
    imports = _collect_imports(tree)
    time_aliases = imports.aliases("time")
    datetime_aliases = imports.aliases("datetime")
    from_time = {
        local: name
        for (module, name), locals_ in imports.from_names.items()
        if module == "time" and name in _TIME_FNS
        for local in locals_
    }
    datetime_classes = {
        local
        for (module, name), locals_ in imports.from_names.items()
        if module == "datetime" and name in {"datetime", "date"}
        for local in locals_
    }

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        head, tail = chain[0], chain[1:]
        if head in time_aliases and len(tail) == 1 and tail[0] in _TIME_FNS:
            yield Finding(
                "DET-CLOCK-002", path, node.lineno, node.col_offset,
                f"wall-clock read `time.{tail[0]}()` in a trace-affecting "
                "module; confine host time to repro.obs/benchmarks or waive "
                "with a reason",
            )
        elif len(chain) == 1 and chain[0] in from_time:
            yield Finding(
                "DET-CLOCK-002", path, node.lineno, node.col_offset,
                f"wall-clock read `{chain[0]}()` (from time import ...) in a "
                "trace-affecting module",
            )
        elif (
            head in datetime_classes and len(tail) == 1 and tail[0] in _DATETIME_FNS
        ) or (
            head in datetime_aliases
            and len(tail) == 2
            and tail[0] in {"datetime", "date"}
            and tail[1] in _DATETIME_FNS
        ):
            yield Finding(
                "DET-CLOCK-002", path, node.lineno, node.col_offset,
                f"wall-clock read `datetime.{tail[-1]}()` in a "
                "trace-affecting module",
            )


# ---------------------------------------------------------------------------
# DET-ITER-003 — no iteration over unordered sets in sim/fleet/net
# ---------------------------------------------------------------------------


def _is_set_producing(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[-1] in {"set", "frozenset"} and len(chain) == 1:
            return True
        if chain and chain[-1] in {
            "intersection", "union", "difference", "symmetric_difference",
        }:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # s1 & s2 etc. — only flag when one side is itself set-producing,
        # otherwise int arithmetic would false-positive.
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


def check_unordered_iteration(
    path: str, source: str, tree: ast.AST
) -> Iterator[Finding]:
    """DET-ITER-003: set iteration order is salted per process; any
    ``for``/comprehension/``list()`` over a set in sim/fleet/net can
    silently reorder traces across runs.  Wrap in ``sorted(...)``."""
    if _is_test_path(path) or not _in_packages(path, ORDER_PACKAGES):
        return

    def flag(node: ast.expr) -> Iterator[Finding]:
        if _is_set_producing(node):
            yield Finding(
                "DET-ITER-003", path, node.lineno, node.col_offset,
                "iteration over an unordered set in order-sensitive code; "
                "wrap in sorted(...) to pin a deterministic order",
            )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield from flag(gen.iter)
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and len(chain) == 1 and chain[0] in {"list", "tuple", "enumerate"}:
                for arg in node.args[:1]:
                    yield from flag(arg)


# ---------------------------------------------------------------------------
# OBS-NEUTRAL-004 — obs never imports or mutates sim state
# ---------------------------------------------------------------------------

_SIM_STATE_PACKAGES = (
    "repro.sim", "repro.abr", "repro.users", "repro.net", "repro.core",
    "repro.nn", "repro.fleet", "repro.bayesopt", "repro.datasets",
    "repro.experiments",
)


def check_obs_neutrality(path: str, source: str, tree: ast.AST) -> Iterator[Finding]:
    """OBS-NEUTRAL-004: observability observes; it must stay importable
    and removable without touching simulation semantics.  Any import of
    a sim-state package from ``repro.obs`` (top-level or deferred) is
    flagged; read-only replay helpers carry explicit waivers."""
    if _is_test_path(path) or not _in_packages(path, OBS_PACKAGE):
        return
    for node in ast.walk(tree):
        modules: list[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        for module in modules:
            if any(
                module == pkg or module.startswith(pkg + ".")
                for pkg in _SIM_STATE_PACKAGES
            ):
                yield Finding(
                    "OBS-NEUTRAL-004", path, node.lineno, node.col_offset,
                    f"repro.obs imports sim-state package `{module}`; obs "
                    "must observe without depending on (or mutating) the "
                    "simulation",
                )


# ---------------------------------------------------------------------------
# SHM-005 — src/ creates no shared memory
# ---------------------------------------------------------------------------


def check_shared_memory(path: str, source: str, tree: ast.AST) -> Iterator[Finding]:
    """SHM-005: shard results, telemetry and heartbeats travel over the
    worker pipes, so ``src/`` creates no shared memory at all: any
    ``SharedMemory(create=True)`` there is a finding that no waiver
    exempts.  A test may create a segment when a ``# contract: SHM-005
    exempt(<who unlinks, when>)`` waiver names its unlink path — an
    unannotated create is a potential /dev/shm leak."""
    if _in_packages(path, ("repro/contracts",)):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain or chain[-1] != "SharedMemory":
            continue
        creates = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if creates and not _is_test_path(path):
            yield Finding(
                "SHM-005", path, node.lineno, node.col_offset,
                "SharedMemory(create=True) under src/: the system creates no "
                "shared memory (send the data over the worker pipe instead)",
                waivable=False,
            )
        elif creates:
            yield Finding(
                "SHM-005", path, node.lineno, node.col_offset,
                "SharedMemory(create=True) without a registered unlink path; "
                "annotate the site with `# contract: SHM-005 exempt(<who "
                "unlinks, when>)` once the pairing is audited",
            )


# ---------------------------------------------------------------------------
# CKPT-006 — checkpoint payloads only via the migration registry
# ---------------------------------------------------------------------------


def check_checkpoint_registry(
    path: str, source: str, tree: ast.AST
) -> Iterator[Finding]:
    """CKPT-006: checkpoint schema knowledge lives in
    ``repro.fleet.checkpoint`` (versioning + explicit migrations) and
    ``repro.core.persistence`` (payload helpers).  Everything else goes
    through their API — no hand-rolled payload dicts, no reaching into
    the migration table."""
    mod = _module_path(path)
    if _is_test_path(path) or mod in CKPT_OWNERS:
        return
    if not _in_packages(path, TRACE_PACKAGES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_MIGRATIONS":
            yield Finding(
                "CKPT-006", path, node.lineno, node.col_offset,
                "direct access to the checkpoint migration table; use "
                "register_checkpoint_migration()",
            )
        elif isinstance(node, ast.Attribute) and node.attr == "_MIGRATIONS":
            yield Finding(
                "CKPT-006", path, node.lineno, node.col_offset,
                "direct access to the checkpoint migration table; use "
                "register_checkpoint_migration()",
            )
        elif isinstance(node, ast.Dict):
            keys = {
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            if {"version", "states"} <= keys:
                yield Finding(
                    "CKPT-006", path, node.lineno, node.col_offset,
                    "hand-rolled checkpoint payload (dict with 'version' + "
                    "'states'); write through save_checkpoint_states() so "
                    "the schema stays versioned and migratable",
                )


# ---------------------------------------------------------------------------
# SIM-BATCH-008 — sessions outside repro.sim run through SimBackend.run_batch
# ---------------------------------------------------------------------------


def check_session_engine_use(
    path: str, source: str, tree: ast.AST
) -> Iterator[Finding]:
    """SIM-BATCH-008: code outside ``repro.sim`` plays sessions only as
    :class:`SessionSpec` batches through ``SimBackend.run_batch``, so a
    session's randomness is its own substream and every backend gives the
    same trace.  Constructing a ``PlaybackSession`` engine anywhere else
    is a second, backend-blind path."""
    if (
        _is_test_path(path)
        or not _in_packages(path, ("repro",))
        or _in_packages(path, ("repro/sim",))
    ):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain and chain[-1] == "PlaybackSession":
            yield Finding(
                "SIM-BATCH-008", path, node.lineno, node.col_offset,
                "PlaybackSession engine built outside repro.sim; build "
                "SessionSpecs and run them through SimBackend.run_batch",
            )


# ---------------------------------------------------------------------------
# CORE-MC-010 — one Algorithm 2 path: the controller's lockstep evaluator
# ---------------------------------------------------------------------------

#: The one module that may set a controller's ``evaluator``.
EVALUATOR_OWNER = "repro/core/controller.py"

#: The lockstep evaluator's module.  Everything in it but the sequential
#: reference runs rollouts as array code.
LOCKSTEP_MODULE = "repro/core/monte_carlo.py"
SEQUENTIAL_REFERENCE = "MonteCarloEvaluator"
#: The one place the lockstep rollout builds per-row ABR contexts: the
#: level-choice adapter for ABRs without a ``vector_kernel``.
CONTEXT_ADAPTER = "_ContextAdapter"


def _assigned_attributes(node: ast.AST) -> Iterator[ast.Attribute]:
    """Attribute targets of an assignment statement, tuples unpacked."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Attribute):
            yield target


def _names_user_state(node: ast.expr) -> bool:
    """``state``, ``request.user_state``, ``self.states[i]``: an expression
    whose last name says it holds a user state."""
    while isinstance(node, ast.Subscript):
        node = node.value
    chain = _attr_chain(node)
    return bool(chain) and "state" in chain[-1].lower()


def _per_row_rollout_code(path: str, tree: ast.AST) -> Iterator[Finding]:
    """Per-sample objects in the lockstep rollout (CORE-MC-010)."""
    for top in ast.iter_child_nodes(tree):
        if getattr(top, "name", None) == SEQUENTIAL_REFERENCE:
            continue
        adapter = getattr(top, "name", None) == CONTEXT_ADAPTER
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func) or []
            if chain[-1:] == ["PlayerEnvironment"]:
                message = (
                    "per-sample PlayerEnvironment in the lockstep rollout; "
                    "Equation 3 runs as array code"
                )
            elif chain[-1:] == ["ABRContext"] and not adapter:
                message = (
                    "ABRContext built in the lockstep rollout outside "
                    f"{CONTEXT_ADAPTER}; kernel ABRs choose levels as arrays"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "copy"
                and _names_user_state(node.func.value)
            ) or (
                chain[-2:] in (["copy", "copy"], ["copy", "deepcopy"])
                and node.args
                and _names_user_state(node.args[0])
            ):
                message = (
                    "user-state copy in the lockstep rollout; rollout rows "
                    "keep their state as arrays"
                )
            else:
                continue
            yield Finding("CORE-MC-010", path, node.lineno, node.col_offset, message)


def check_monte_carlo_path(
    path: str, source: str, tree: ast.AST
) -> Iterator[Finding]:
    """CORE-MC-010: every LingXi controller scores candidates with the
    lockstep ``BatchedMonteCarloEvaluator`` it builds itself, and every
    activation runs through ``run_activations``.  The sequential
    ``MonteCarloEvaluator`` is a test reference that the package never
    builds, and no code outside ``core/controller.py`` swaps a
    controller's ``evaluator`` after construction.  The lockstep rollout
    builds no per-sample ``PlayerEnvironment`` or user-state copy, and
    ``ABRContext``s only in its adapter for ABRs without a kernel."""
    if _is_test_path(path) or not _in_packages(path, ("repro",)):
        return
    if _module_path(path) == LOCKSTEP_MODULE:
        yield from _per_row_rollout_code(path, tree)
    owner = _module_path(path) == EVALUATOR_OWNER
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] == "MonteCarloEvaluator":
                yield Finding(
                    "CORE-MC-010", path, node.lineno, node.col_offset,
                    "sequential MonteCarloEvaluator built in the package; "
                    "controllers run the lockstep BatchedMonteCarloEvaluator",
                )
        elif not owner:
            for target in _assigned_attributes(node):
                if target.attr == "evaluator":
                    yield Finding(
                        "CORE-MC-010", path, target.lineno, target.col_offset,
                        "assignment to `.evaluator` outside core/controller.py; "
                        "a controller builds its own evaluator",
                    )


# ---------------------------------------------------------------------------
# FLEET-TELEMETRY-011 — one telemetry encoder
# ---------------------------------------------------------------------------

#: The telemetry codec's module, the name of its one shared encoder and
#: the name of its one column formatter.
TELEMETRY_MODULE = "repro/fleet/telemetry.py"
SHARED_ENCODER = "_ENCODER"
COLUMN_FORMATTER = "_json_texts"


def _value_formatting(node: ast.AST, quoters: set[str]) -> str | None:
    """What ``node`` formats a value with, if it is one of the primitives
    the column formatter owns: ``float.__repr__``, ``repr(`` or json's
    ``encode_basestring_ascii``."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "__repr__"
        and getattr(node.value, "id", None) == "float"
    ):
        return "float.__repr__"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "repr"
    ):
        return "repr("
    if (isinstance(node, ast.Name) and node.id in quoters) or (
        isinstance(node, ast.Attribute) and node.attr == "encode_basestring_ascii"
    ):
        return "encode_basestring_ascii"
    return None


def check_telemetry_encoder(
    path: str, source: str, tree: ast.AST
) -> Iterator[Finding]:
    """FLEET-TELEMETRY-011: every telemetry line is encoded by the module's
    one shared ``json.JSONEncoder`` or, for a shard's session events, by
    its one column formatter, so inline and pooled shards write the same
    bytes.  In ``repro/fleet/telemetry.py`` no code deep-copies records
    with ``dataclasses.asdict``, calls ``json.dumps``/``json.dump`` or
    builds a ``JSONEncoder`` other than the module-level ``_ENCODER``, and
    nothing outside the module-level ``_json_texts`` formats a value with
    ``float.__repr__``, ``repr(`` or ``encode_basestring_ascii``."""
    if _module_path(path) != TELEMETRY_MODULE:
        return
    imports = _collect_imports(tree)
    quoters = {"encode_basestring_ascii"} | {
        local
        for module in ("json", "json.encoder")
        for local in imports.from_names.get((module, "encode_basestring_ascii"), ())
    }
    formatter = {
        id(inner)
        for node in ast.iter_child_nodes(tree)
        if isinstance(node, ast.FunctionDef) and node.name == COLUMN_FORMATTER
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        primitive = _value_formatting(node, quoters)
        if primitive is not None and id(node) not in formatter:
            yield Finding(
                "FLEET-TELEMETRY-011", path, node.lineno, node.col_offset,
                f"{primitive} outside {COLUMN_FORMATTER} in the telemetry "
                f"codec; take value texts from the one column formatter",
            )
    json_aliases = imports.aliases("json")
    from_json = {
        local: name
        for (module, name), locals_ in imports.from_names.items()
        if module == "json"
        for local in locals_
    }
    shared = {
        id(node.value)
        for node in ast.iter_child_nodes(tree)
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets]
        == [SHARED_ENCODER]
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func) or []
        if len(chain) == 2 and chain[0] in json_aliases:
            json_name = chain[1]
        elif len(chain) == 1:
            json_name = from_json.get(chain[0])
        else:
            json_name = None
        callee = getattr(node.func, "attr", getattr(node.func, "id", None))
        if callee == "asdict":
            message = (
                "dataclasses.asdict in the telemetry codec; build record "
                "dicts from the fields directly"
            )
        elif json_name in ("dumps", "dump"):
            message = (
                f"json.{json_name} in the telemetry codec; encode with the "
                f"shared {SHARED_ENCODER}"
            )
        elif json_name == "JSONEncoder" and id(node) not in shared:
            message = (
                "second JSONEncoder in the telemetry codec; encode with the "
                f"shared module-level {SHARED_ENCODER}"
            )
        else:
            continue
        yield Finding(
            "FLEET-TELEMETRY-011", path, node.lineno, node.col_offset, message
        )


# ---------------------------------------------------------------------------
# OBS-READER-012 — one telemetry reader
# ---------------------------------------------------------------------------

#: The one module that opens, splits and decodes telemetry files.
READER_MODULE = "repro/obs/telemetry_reader.py"


def _is_open_call(node: ast.AST) -> bool:
    """``open(...)`` or ``<path>.open(...)``."""
    return isinstance(node, ast.Call) and "open" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def check_single_reader(path: str, source: str, tree: ast.AST) -> Iterator[Finding]:
    """OBS-READER-012: ``repro/obs/telemetry_reader.py`` is the only code
    that decodes telemetry lines or walks a telemetry file line by line.
    Elsewhere it flags every ``TelemetryEvent.from_json(`` call and, in the
    codec's module and in modules importing any telemetry module or name,
    iterating an ``open(...)`` handle, ``.readline()`` on one, and
    iterating ``.readlines()``/``.splitlines()``."""
    if _is_test_path(path) or _module_path(path) == READER_MODULE:
        return
    imports = _collect_imports(tree)
    walks_telemetry = _module_path(path) == TELEMETRY_MODULE or any(
        "telemetry" in f"{module}.{name}".lower()
        for module, name in [(m, "") for m in imports.modules] + list(imports.from_names)
    )
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
        if _is_open_call(item.context_expr) and isinstance(item.optional_vars, ast.Name)
    }

    def is_handle(node: ast.AST) -> bool:
        return _is_open_call(node) or getattr(node, "id", None) in handles

    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (_attr_chain(func) or [])[-2:] == ["TelemetryEvent", "from_json"]:
            what = "TelemetryEvent.from_json"
        elif not walks_telemetry:
            continue
        elif isinstance(node, (ast.For, ast.comprehension)) and (
            is_handle(node.iter)
            or getattr(getattr(node.iter, "func", None), "attr", None)
            in ("readlines", "splitlines")
        ):
            node, what = node.iter, "a line walk over a file"
        elif getattr(func, "attr", None) == "readline" and is_handle(func.value):
            what = "readline()"
        else:
            continue
        yield Finding(
            "OBS-READER-012", path, node.lineno, node.col_offset,
            f"{what} outside the telemetry reader; read telemetry through "
            "repro.obs.telemetry_reader",
        )


# ---------------------------------------------------------------------------
# Registry + driver
# ---------------------------------------------------------------------------

RuleFn = Callable[[str, str, ast.AST], Iterator[Finding]]

#: Rule ID → checking function.  The ledger validator cross-checks this
#: registry against CONTRACTS.md entries marked machine-checked.
ALL_RULES: dict[str, RuleFn] = {
    "DET-RNG-001": check_global_rng,
    "DET-CLOCK-002": check_wall_clock,
    "DET-ITER-003": check_unordered_iteration,
    "OBS-NEUTRAL-004": check_obs_neutrality,
    "SHM-005": check_shared_memory,
    "CKPT-006": check_checkpoint_registry,
    "SIM-BATCH-008": check_session_engine_use,
    "CORE-MC-010": check_monte_carlo_path,
    "FLEET-TELEMETRY-011": check_telemetry_encoder,
    "OBS-READER-012": check_single_reader,
}


@dataclass
class FileLint:
    """Lint output for one file: surviving findings, waived findings,
    and every contract anchor seen."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    waived: list[tuple[Finding, str]] = field(default_factory=list)
    anchors: list[Anchor] = field(default_factory=list)
    source_lines: list[str] = field(default_factory=list)


def lint_source(path: str, source: str) -> FileLint:
    """Run every rule over one module's source."""
    result = FileLint(path=path, source_lines=source.splitlines())
    result.anchors = scan_anchors(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                "CHK-PARSE", path, exc.lineno or 1, exc.offset or 0,
                f"cannot parse: {exc.msg}",
            )
        )
        return result
    waivers: dict[int, set[str]] = {}
    for anchor in result.anchors:
        if anchor.is_waiver:
            waivers.setdefault(anchor.line, set()).add(anchor.rule_id)
    raw: list[Finding] = []
    for rule in ALL_RULES.values():
        raw.extend(rule(path, source, tree))
    raw.sort(key=lambda f: (f.line, f.col, f.rule_id))
    for finding in raw:
        if finding.waivable and _waived(finding, waivers):
            reason = next(
                (
                    a.reason or ""
                    for a in result.anchors
                    if a.is_waiver
                    and a.rule_id == finding.rule_id
                    and a.line in (finding.line, finding.line - 1)
                ),
                "",
            )
            result.waived.append((finding, reason))
        else:
            result.findings.append(finding)
    return result


def iter_python_files(root: Path, subdirs: tuple[str, ...] = ("src", "tests")) -> Iterator[Path]:
    """Every ``.py`` file under ``root``'s lintable subtrees, sorted."""
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        yield from sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def lint_tree(root: Path, subdirs: tuple[str, ...] = ("src", "tests")) -> list[FileLint]:
    """Lint every python file under ``root/src`` and ``root/tests``."""
    results = []
    for file_path in iter_python_files(root, subdirs):
        rel = file_path.relative_to(root).as_posix()
        results.append(lint_source(rel, file_path.read_text()))
    return results
