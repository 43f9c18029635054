"""Machine-checked determinism contracts.

The repo's headline guarantees — bit-exact scalar==vector traces,
shard/worker-count invariance, trace-neutral observability, no shared
memory, versioned checkpoints — are architectural *contracts*,
not accidents of the current code.  This package keeps them honest:

- ``CONTRACTS.md`` (repo root) is the ledger: every invariant gets a
  stable ID, a statement, a scope, and the tests that pin it.
- :mod:`repro.contracts.rules` holds the AST rules that machine-check
  each ledger entry (stdlib ``ast`` only, no new dependencies).
- :mod:`repro.contracts.check` is the gate: ``python -m
  repro.contracts.check`` lints the tree, applies ``# contract: <ID>
  exempt(<reason>)`` waivers and the committed baseline, and
  cross-validates the ledger against code anchors and pinning tests.
- :mod:`repro.contracts.tripwire` is the runtime counterpart: under
  ``REPRO_CONTRACTS=strict`` the test suite monkeypatches global RNG
  and wall-clock entry points to raise when called from trace-affecting
  frames, catching dynamic paths the static pass cannot see.
"""

_EXPORTS = {
    "run_check": "repro.contracts.check",
    "parse_ledger": "repro.contracts.ledger",
    "validate_ledger": "repro.contracts.ledger",
    "ALL_RULES": "repro.contracts.rules",
    "Finding": "repro.contracts.rules",
    "lint_source": "repro.contracts.rules",
    "lint_tree": "repro.contracts.rules",
    "ContractViolation": "repro.contracts.tripwire",
    "strict_tripwire": "repro.contracts.tripwire",
}


def __getattr__(name: str):
    # Lazy so `python -m repro.contracts.check` does not re-import the
    # submodule it is executing (runpy's sys.modules warning).
    if name in _EXPORTS:
        import importlib

        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_RULES",
    "ContractViolation",
    "Finding",
    "lint_source",
    "lint_tree",
    "parse_ledger",
    "run_check",
    "strict_tripwire",
    "validate_ledger",
]
