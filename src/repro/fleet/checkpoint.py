"""Checkpoint/resume of per-user controller state across fleet runs.

The production system serialises each user's long-term LingXi state when the
app terminates and restores it at next startup (§4, "Seamless Integration").
At fleet scale the same contract is one JSON checkpoint per run: a manifest
plus the :func:`~repro.core.persistence.controller_state_payload` of every
user whose ABR carried a controller.  A later run resumes by handing the
loaded states back to :meth:`FleetOrchestrator.run`, which restores them
before the simulated day starts — multi-day campaigns survive process (and
machine) boundaries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.controller import LingXiController
from repro.core.persistence import controller_state_payload, restore_controller_state
from repro.fleet.orchestrator import FleetResult

#: Schema version of the checkpoint file.
CHECKPOINT_VERSION = 1

#: Explicit schema migrations: ``old_version -> callable(raw) -> raw'`` where
#: the returned document carries a strictly newer ``version``.  Loading walks
#: the chain until it reaches :data:`CHECKPOINT_VERSION`; a version with no
#: registered migration is **rejected**, never restored blindly.
_MIGRATIONS: dict[int, Callable[[dict], dict]] = {}  # contract: CKPT-006


def register_checkpoint_migration(
    version: int, migrate: Callable[[dict], dict]
) -> None:
    """Register an explicit migration for checkpoints written at ``version``."""
    if version == CHECKPOINT_VERSION:
        raise ValueError("cannot register a migration for the current version")
    _MIGRATIONS[version] = migrate


@dataclass
class FleetCheckpoint:
    """A loaded fleet checkpoint: manifest + per-user controller payloads."""

    run_id: str
    day: int
    states: dict[str, dict] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    @property
    def num_users(self) -> int:
        """Number of users with persisted controller state."""
        return len(self.states)


def write_text_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or the new one.

    The text goes to a sibling ``<name>.tmp`` first and is renamed over
    ``path`` by :func:`os.replace`; a write that fails partway leaves the
    previous file untouched and removes the temporary file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_fleet_checkpoint(result: FleetResult, path: str | Path) -> Path:
    """Write the controller states of a fleet run as one JSON checkpoint."""
    return save_checkpoint_states(
        result.controller_states, path, run_id=result.run_id, day=result.config.day
    )


def save_checkpoint_states(
    states: dict[str, dict], path: str | Path, run_id: str = "", day: int = 0
) -> Path:
    """Write a user-id → controller-payload mapping as a checkpoint file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "run_id": run_id,
        "day": int(day),
        "states": states,
    }
    write_text_atomic(path, json.dumps(payload, indent=2))
    return path


def load_fleet_checkpoint(path: str | Path) -> FleetCheckpoint:
    """Load a checkpoint written by :func:`save_fleet_checkpoint`.

    Checkpoints whose ``version`` differs from :data:`CHECKPOINT_VERSION`
    are either migrated through the explicitly registered chain
    (:func:`register_checkpoint_migration`) or rejected with a
    ``ValueError`` — a stale schema is never restored as-is.
    """
    raw = json.loads(Path(path).read_text())
    version = int(raw.get("version", 0))
    seen = {version}
    while version != CHECKPOINT_VERSION and version in _MIGRATIONS:
        raw = _MIGRATIONS[version](raw)
        version = int(raw.get("version", 0))
        if version in seen:
            raise ValueError(
                f"checkpoint migration from version {version} does not progress"
            )
        seen.add(version)
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} "
            f"(expected {CHECKPOINT_VERSION}, no registered migration)"
        )
    return FleetCheckpoint(
        run_id=str(raw.get("run_id", "")),
        day=int(raw.get("day", 0)),
        states={str(user): dict(state) for user, state in raw.get("states", {}).items()},
        version=version,
    )


def checkpoint_controllers(controllers: dict[str, LingXiController]) -> dict[str, dict]:
    """Payload mapping for a dict of live controllers (e.g. from a campaign)."""
    return {
        user_id: controller_state_payload(controller)
        for user_id, controller in controllers.items()
    }


def restore_controllers(
    controllers: dict[str, LingXiController], checkpoint: FleetCheckpoint
) -> int:
    """Restore every matching controller in place; returns how many matched."""
    restored = 0
    for user_id, controller in controllers.items():
        payload = checkpoint.states.get(user_id)
        if payload is not None:
            restore_controller_state(controller, payload)
            restored += 1
    return restored
