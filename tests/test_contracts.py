"""The contracts subsystem, tested against itself.

Three layers:

- **rules** — fixture modules with planted violations for every rule ID,
  asserting exact finding locations, waiver semantics (same-line and
  preceding-line, wrong-ID non-suppression) and scope boundaries;
- **gate** — ``run_check`` exit codes over fixture trees: baseline
  suppression, ``--write-baseline`` grandfathering, stale keys, the
  machine-readable report, and ledger mutations (deleted entry, deleted
  anchor, missing pinning test) each failing the validator;
- **tripwire** — the ``REPRO_CONTRACTS=strict`` runtime guards raising
  on global RNG / wall-clock calls from trace-affecting frames (planted
  via ``compile()`` filenames) while passing everything else through.

Plus the dogfood gate: the repo's own tree must lint clean and its
ledger must cross-check, from inside the tier-1 suite.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.contracts.check import run_check
from repro.contracts.ledger import parse_ledger, validate_ledger
from repro.contracts.rules import ALL_RULES, lint_source, lint_tree, scan_anchors
from repro.contracts.tripwire import (
    ContractViolation,
    strict_mode_requested,
    strict_tripwire,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fake compile() filenames that land inside guarded packages.
SIM_FILE = "src/repro/sim/vector.py"
FLEET_FILE = "src/repro/fleet/orchestrator.py"


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


def _slug(rule_id: str) -> str:
    return rule_id.lower().replace("-", "_")


def _seed_project(root: Path) -> None:
    """A minimal fixture repo whose ledger cross-checks cleanly."""
    anchor_lines = "\n".join(f"# contract: {rid}" for rid in sorted(ALL_RULES))
    _write(root, "src/repro/anchors.py", f'"""Fixture anchors."""\n{anchor_lines}\n')
    pins = "\n\n\n".join(
        f"def test_pin_{_slug(rid)}():\n    assert True"
        for rid in sorted(ALL_RULES)
    )
    _write(root, "tests/test_pins.py", pins + "\n")
    entries = "\n".join(
        f"## {rid} — fixture invariant\n\n"
        f"- **Statement:** fixture statement for {rid}.\n"
        f"- **Check:** ast (fixture rule).\n"
        f"- **Pinning tests:** `tests/test_pins.py::test_pin_{_slug(rid)}`\n"
        for rid in sorted(ALL_RULES)
    )
    _write(root, "CONTRACTS.md", "# Fixture ledger\n\n" + entries)


# --------------------------------------------------------------------------- #
# Rules: planted violations, exact locations
# --------------------------------------------------------------------------- #


def test_rng_rule_flags_planted_global_rng():
    source = textwrap.dedent(
        """\
        import random

        import numpy as np


        def draw(values):
            a = random.random()
            b = np.random.rand(3)
            rng = np.random.default_rng()
            return a, b, rng
        """
    )
    lint = lint_source("src/repro/sim/planted.py", source)
    assert [(f.rule_id, f.line, f.col) for f in lint.findings] == [
        ("DET-RNG-001", 7, 8),
        ("DET-RNG-001", 8, 8),
        ("DET-RNG-001", 9, 10),
    ]


def test_rng_rule_flags_unseeded_bit_generators():
    source = textwrap.dedent(
        """\
        import numpy as np
        import numpy.random as npr
        from numpy.random import MT19937, SeedSequence as Seq


        def streams(seed):
            a = np.random.SeedSequence()
            b = np.random.Philox()
            c = npr.PCG64()
            d = np.random.PCG64DXSM()
            e = MT19937()
            f = np.random.SFC64()
            g = Seq()
            ok = np.random.Philox(np.random.SeedSequence(seed))
            return a, b, c, d, e, f, g, ok, npr.PCG64(seed), Seq(seed)
        """
    )
    lint = lint_source("src/repro/fleet/planted.py", source)
    assert [(f.rule_id, f.line, f.col) for f in lint.findings] == [
        ("DET-RNG-001", 7, 8),
        ("DET-RNG-001", 8, 8),
        ("DET-RNG-001", 9, 8),
        ("DET-RNG-001", 10, 8),
        ("DET-RNG-001", 11, 8),
        ("DET-RNG-001", 12, 8),
        ("DET-RNG-001", 13, 8),
    ]


def test_rng_rule_flags_from_imports_and_aliases():
    source = textwrap.dedent(
        """\
        import numpy.random as npr
        from random import shuffle


        def mix(xs):
            shuffle(xs)
            return npr.randint(0, 4)
        """
    )
    lint = lint_source("src/repro/users/planted.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("DET-RNG-001", 6),
        ("DET-RNG-001", 7),
    ]


def test_rng_rule_ignores_seeded_generators_and_out_of_scope_paths():
    source = textwrap.dedent(
        """\
        import numpy as np


        def draw(seed):
            rng = np.random.default_rng(seed)
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
            return rng.random(), gen.random()
        """
    )
    assert lint_source("src/repro/sim/clean.py", source).findings == []
    # Same planted global calls are out of scope in tests/ and obs/.
    bad = "import random\nvalue = random.random()\n"
    assert lint_source("tests/test_whatever.py", bad).findings == []
    assert lint_source("src/repro/obs/sampler.py", bad).findings == []


def test_clock_rule_flags_wall_clock_reads():
    source = textwrap.dedent(
        """\
        import time
        from datetime import datetime


        def stamp():
            t = time.time()
            p = time.perf_counter()
            d = datetime.now()
            return t, p, d
        """
    )
    lint = lint_source("src/repro/net/planted.py", source)
    assert [(f.rule_id, f.line, f.col) for f in lint.findings] == [
        ("DET-CLOCK-002", 6, 8),
        ("DET-CLOCK-002", 7, 8),
        ("DET-CLOCK-002", 8, 8),
    ]


def test_iter_rule_flags_set_iteration():
    source = textwrap.dedent(
        """\
        def order(items, other):
            for item in set(items):
                print(item)
            pairs = [x for x in {1, 2, 3}]
            listed = list(set(items))
            good = sorted(set(items))
            for item in sorted(set(other)):
                print(item)
            return pairs, listed, good
        """
    )
    lint = lint_source("src/repro/net/planted_iter.py", source)
    assert [f.rule_id for f in lint.findings] == ["DET-ITER-003"] * 3
    assert sorted(f.line for f in lint.findings) == [2, 4, 5]
    # Out of the order-sensitive packages the same code is fine.
    assert lint_source("src/repro/users/planted_iter.py", source).findings == []


def test_obs_rule_flags_sim_imports():
    source = textwrap.dedent(
        """\
        from repro.sim.session import PlaybackSession


        def attach():
            from repro.fleet.telemetry import session_from_payload
            return PlaybackSession, session_from_payload
        """
    )
    lint = lint_source("src/repro/obs/probe.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("OBS-NEUTRAL-004", 1),
        ("OBS-NEUTRAL-004", 5),
    ]
    # The same imports are the whole point outside repro.obs.
    assert lint_source("src/repro/fleet/probe.py", source).findings == []


def test_shm_rule_requires_annotation():
    source = textwrap.dedent(
        """\
        from multiprocessing import shared_memory


        def make(nbytes):
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            ok = shared_memory.SharedMemory(create=True, size=nbytes)  # contract: SHM-005 exempt(fixture owner unlinks in teardown)
            attach = shared_memory.SharedMemory(name="existing")
            return seg, ok, attach
        """
    )
    # tests/: an annotated create names its unlink path and is waived.
    lint = lint_source("tests/planted_shm.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [("SHM-005", 5)]
    assert [(f.rule_id, f.line) for f, _reason in lint.waived] == [("SHM-005", 6)]
    # src/: the system creates no shared memory, and no waiver exempts it.
    lint = lint_source("src/repro/fleet/planted_shm.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [("SHM-005", 5), ("SHM-005", 6)]
    assert lint.waived == []


def test_ckpt_rule_flags_handrolled_payloads():
    source = textwrap.dedent(
        """\
        def sneak(states):
            payload = {"version": 3, "states": states}
            return payload


        def poke(registry_module):
            return registry_module._MIGRATIONS
        """
    )
    lint = lint_source("src/repro/fleet/rogue.py", source)
    assert sorted((f.rule_id, f.line) for f in lint.findings) == [
        ("CKPT-006", 2),
        ("CKPT-006", 7),
    ]
    # The checkpoint layer itself owns the schema.
    assert lint_source("src/repro/fleet/checkpoint.py", source).findings == []
    assert lint_source("src/repro/core/persistence.py", source).findings == []


def test_session_rule_flags_engines_outside_sim():
    source = textwrap.dedent(
        """\
        from repro.sim import session
        from repro.sim.session import PlaybackSession


        def replay(abr, video, trace, rng):
            engine = PlaybackSession()
            return engine.run(abr, video, trace, rng=rng)


        def replay_qualified(config):
            return session.PlaybackSession(config)
        """
    )
    lint = lint_source("src/repro/experiments/rogue.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("SIM-BATCH-008", 6),
        ("SIM-BATCH-008", 11),
    ]
    # The engines themselves live in repro.sim; tests may drive them.
    assert lint_source("src/repro/sim/networked.py", source).findings == []
    assert lint_source("tests/test_session.py", source).findings == []
    waived = source.replace(
        "    engine = PlaybackSession()",
        "    # contract: SIM-BATCH-008 exempt(training loop)\n"
        "    engine = PlaybackSession()",
    )
    lint = lint_source("src/repro/abr/trainer.py", waived)
    assert [f.line for f in lint.findings] == [12]
    assert [finding.line for finding, _ in lint.waived] == [7]


def test_mc_rule_flags_sequential_evaluator_and_evaluator_swaps():
    source = textwrap.dedent(
        """\
        from repro.core import monte_carlo
        from repro.core.monte_carlo import BatchedMonteCarloEvaluator


        def build(controller, predictor):
            reference = monte_carlo.MonteCarloEvaluator(predictor)
            controller.evaluator = BatchedMonteCarloEvaluator(predictor)
            controller.evaluator, spare = reference, None
            evaluator = reference
            return evaluator, spare
        """
    )
    lint = lint_source("src/repro/fleet/rogue.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("CORE-MC-010", 6),
        ("CORE-MC-010", 7),
        ("CORE-MC-010", 8),
    ]
    # The controller owns its evaluator attribute, but not the reference.
    lint = lint_source("src/repro/core/controller.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [("CORE-MC-010", 6)]
    # Tests compare against the sequential reference and may swap freely.
    assert lint_source("tests/test_fleet.py", source).findings == []


def test_mc_rule_flags_per_row_objects_in_the_lockstep_rollout():
    source = textwrap.dedent(
        """\
        import copy


        class MonteCarloEvaluator:
            def evaluate(self, request):
                env = PlayerEnvironment(video)
                return ABRContext(), request.user_state.copy()


        class _ContextAdapter:
            def __call__(self, context):
                PlayerEnvironment(video)
                return ABRContext()


        class _Rollout:
            def __init__(self, request, states):
                self.env = sim.PlayerEnvironment(video)
                context = ABRContext()
                clone = request.user_state.copy()
                spare = states[0].copy()
                deep = copy.deepcopy(request.user_state)
                abr = copy.deepcopy(request.abr)
                window = request.snapshot.bandwidth_model.copy()
        """
    )
    lint = lint_source("src/repro/core/monte_carlo.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("CORE-MC-010", 12),
        ("CORE-MC-010", 18),
        ("CORE-MC-010", 19),
        ("CORE-MC-010", 20),
        ("CORE-MC-010", 21),
        ("CORE-MC-010", 22),
    ]
    # The rule covers the lockstep evaluator's module only.
    assert lint_source("src/repro/core/controller.py", source).findings == []


def test_telemetry_rule_flags_second_encoders():
    source = textwrap.dedent(
        """\
        import dataclasses
        import json
        import json as js
        from dataclasses import asdict
        from json import JSONEncoder, dumps

        _ENCODER = json.JSONEncoder(default=str)


        def payload(record):
            first = dataclasses.asdict(record)
            second = asdict(record)
            return first, second


        def encode(document, handle):
            json.dumps(document)
            js.dumps(document)
            dumps(document)
            json.dump(document, handle)
            JSONEncoder().encode(document)
            return _ENCODER.encode(document), json.loads("{}")
        """
    )
    lint = lint_source("src/repro/fleet/telemetry.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("FLEET-TELEMETRY-011", 11),
        ("FLEET-TELEMETRY-011", 12),
        ("FLEET-TELEMETRY-011", 17),
        ("FLEET-TELEMETRY-011", 18),
        ("FLEET-TELEMETRY-011", 19),
        ("FLEET-TELEMETRY-011", 20),
        ("FLEET-TELEMETRY-011", 21),
    ]
    # The rule covers the telemetry codec's module only.
    assert lint_source("src/repro/fleet/orchestrator.py", source).findings == []

    # Value formatting belongs to the one column formatter, `_json_texts`.
    formatters = textwrap.dedent(
        """\
        import json.encoder
        from json.encoder import encode_basestring_ascii
        from json.encoder import encode_basestring_ascii as quote


        def _json_texts(values):
            texts = list(map(float.__repr__, values))
            return texts + [repr(1.5), encode_basestring_ascii("a")]


        def head(name, value):
            first = float.__repr__(value) + repr(value)
            second = encode_basestring_ascii(name) + quote(name)
            return first + second + json.encoder.encode_basestring_ascii(name)


        class Chunk:
            def _json_texts(self, value):
                return repr(value)
        """
    )
    lint = lint_source("src/repro/fleet/telemetry.py", formatters)
    assert [(f.rule_id, f.line, f.col) for f in lint.findings] == [
        ("FLEET-TELEMETRY-011", 12, 12),
        ("FLEET-TELEMETRY-011", 12, 36),
        ("FLEET-TELEMETRY-011", 13, 13),
        ("FLEET-TELEMETRY-011", 13, 45),
        ("FLEET-TELEMETRY-011", 14, 28),
        ("FLEET-TELEMETRY-011", 19, 15),
    ]
    assert lint_source("src/repro/fleet/pool.py", formatters).findings == []


def test_reader_rule_flags_decoding_and_line_walks_outside_the_reader():
    source = textwrap.dedent(
        """\
        from pathlib import Path

        from repro.fleet.telemetry import TelemetryEvent


        def scan(path):
            with Path(path).open("rb") as handle:
                for line in handle:
                    yield TelemetryEvent.from_json(line)
                tail = handle.readline()
            events = [line for line in open(path)]
            rows = [row for row in Path(path).read_bytes().splitlines()]
            return tail, events, rows, Path(path).read_text()
        """
    )
    lint = lint_source("src/repro/fleet/planted_reader.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [
        ("OBS-READER-012", 8),
        ("OBS-READER-012", 9),
        ("OBS-READER-012", 10),
        ("OBS-READER-012", 11),
        ("OBS-READER-012", 12),
    ]
    # The reader itself is where decoding and line walks belong.
    reader = lint_source("src/repro/obs/telemetry_reader.py", source)
    assert [f for f in reader.findings if f.rule_id == "OBS-READER-012"] == []
    # A module that does not touch telemetry may walk its own files.
    unrelated = source.replace(
        "from repro.fleet.telemetry import TelemetryEvent", "TelemetryEvent = None"
    )
    assert [
        (f.rule_id, f.line)
        for f in lint_source("src/repro/fleet/planted_reader.py", unrelated).findings
    ] == [("OBS-READER-012", 9)]


# --------------------------------------------------------------------------- #
# Waivers
# --------------------------------------------------------------------------- #


def test_waiver_suppresses_same_line_and_preceding_line():
    source = textwrap.dedent(
        """\
        import time


        def probe():
            a = time.time()  # contract: DET-CLOCK-002 exempt(same-line fixture reason)
            # contract: DET-CLOCK-002 exempt(preceding-line fixture reason)
            b = time.time()
            c = time.time()
            return a, b, c
        """
    )
    lint = lint_source("src/repro/sim/waived.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [("DET-CLOCK-002", 8)]
    assert sorted(reason for _f, reason in lint.waived) == [
        "preceding-line fixture reason",
        "same-line fixture reason",
    ]


def test_waiver_for_other_rule_does_not_suppress():
    source = textwrap.dedent(
        """\
        import time


        def probe():
            return time.time()  # contract: DET-RNG-001 exempt(wrong rule id)
        """
    )
    lint = lint_source("src/repro/sim/waived_wrong.py", source)
    assert [(f.rule_id, f.line) for f in lint.findings] == [("DET-CLOCK-002", 5)]


def test_anchor_scan_distinguishes_plain_anchors_from_waivers():
    source = "# contract: DET-RNG-001\nx = 1  # contract: SHM-005 exempt(reason here)\n"
    anchors = scan_anchors("src/repro/anchors.py", source)
    assert [(a.rule_id, a.line, a.is_waiver) for a in anchors] == [
        ("DET-RNG-001", 1, False),
        ("SHM-005", 2, True),
    ]
    assert anchors[1].reason == "reason here"


# --------------------------------------------------------------------------- #
# The gate: baseline, exit codes, report
# --------------------------------------------------------------------------- #


def test_planted_violation_in_sim_vector_is_caught_by_ast(tmp_path):
    """Acceptance: a stray random.random() in sim/vector.py fails the gate."""
    original = (REPO_ROOT / "src/repro/sim/vector.py").read_text()
    planted = original + "\n\ndef _stray():\n    import random\n    return random.random()\n"
    _write(tmp_path, "src/repro/sim/vector.py", "")
    (tmp_path / "src/repro/sim/vector.py").write_text(planted)
    expected_line = len(planted.splitlines())  # the return is the last line
    lints = lint_tree(tmp_path)
    findings = [f for lint in lints for f in lint.findings]
    assert [(f.rule_id, f.path, f.line) for f in findings] == [
        ("DET-RNG-001", "src/repro/sim/vector.py", expected_line)
    ]


def test_run_check_exit_codes_and_baseline_flow(tmp_path):
    _seed_project(tmp_path)
    _write(
        tmp_path,
        "src/repro/sim/dirty.py",
        """\
        import random


        def draw():
            return random.random()
        """,
    )
    baseline = tmp_path / "baseline.json"

    # New finding, consistent ledger -> exit 1.
    assert run_check(tmp_path, baseline_path=baseline, out=io.StringIO()) == 1

    # Grandfather it -> exit 0, and the next run suppresses via baseline.
    assert (
        run_check(
            tmp_path, baseline_path=baseline, update_baseline=True, out=io.StringIO()
        )
        == 0
    )
    assert json.loads(baseline.read_text())["findings"] != []
    report_path = tmp_path / "contracts_report.json"
    assert (
        run_check(
            tmp_path, baseline_path=baseline, report_path=report_path, out=io.StringIO()
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["new_findings"] == []
    assert [f["rule"] for f in report["baseline_suppressed"]] == ["DET-RNG-001"]

    # Editing the flagged line invalidates its content-keyed baseline entry:
    # the edited call is a NEW finding and the old key goes stale.
    _write(
        tmp_path,
        "src/repro/sim/dirty.py",
        """\
        import random


        def draw():
            return random.random() + 1.0
        """,
    )
    out = io.StringIO()
    assert run_check(tmp_path, baseline_path=baseline, out=out) == 1
    assert "1 stale baseline key(s)" in out.getvalue()


def test_run_check_report_lists_findings_waivers_and_anchors(tmp_path):
    _seed_project(tmp_path)
    _write(
        tmp_path,
        "src/repro/net/mixed.py",
        """\
        import time


        def probe():
            a = time.time()
            b = time.time()  # contract: DET-CLOCK-002 exempt(fixture telemetry)
            return a, b
        """,
    )
    report_path = tmp_path / "contracts_report.json"
    code = run_check(tmp_path, report_path=report_path, out=io.StringIO())
    assert code == 1
    report = json.loads(report_path.read_text())
    assert [(f["rule"], f["path"], f["line"]) for f in report["new_findings"]] == [
        ("DET-CLOCK-002", "src/repro/net/mixed.py", 5)
    ]
    assert [(w["rule"], w["line"], w["reason"]) for w in report["waived"]] == [
        ("DET-CLOCK-002", 6, "fixture telemetry")
    ]
    anchor_rules = {a["rule"] for a in report["anchors"]}
    assert set(ALL_RULES) <= anchor_rules
    assert report["ledger"]["errors"] == []


# --------------------------------------------------------------------------- #
# Ledger validator: every drift direction fails
# --------------------------------------------------------------------------- #


def test_consistent_fixture_ledger_validates(tmp_path):
    _seed_project(tmp_path)
    report = validate_ledger(tmp_path)
    assert report.ok, report.errors
    assert sorted(report.entries) == sorted(ALL_RULES)


def test_deleting_a_ledger_entry_fails_validation(tmp_path):
    _seed_project(tmp_path)
    ledger = tmp_path / "CONTRACTS.md"
    text = ledger.read_text()
    victim = sorted(ALL_RULES)[0]
    kept = [
        block
        for block in text.split("## ")
        if not block.startswith(f"{victim} ")
    ]
    ledger.write_text("## ".join(kept))
    report = validate_ledger(tmp_path)
    assert not report.ok
    # Its anchor is now an orphan AND the registered rule lost its entry.
    assert any("orphan anchor" in e and victim in e for e in report.errors)
    assert any("not recorded" in e and victim in e for e in report.errors)
    assert run_check(tmp_path, out=io.StringIO()) == 2


def test_deleting_a_code_anchor_fails_validation(tmp_path):
    _seed_project(tmp_path)
    victim = sorted(ALL_RULES)[0]
    anchors = tmp_path / "src/repro/anchors.py"
    anchors.write_text(
        "\n".join(
            line
            for line in anchors.read_text().splitlines()
            if victim not in line
        )
        + "\n"
    )
    report = validate_ledger(tmp_path)
    assert [e for e in report.errors if "unanchored" in e and victim in e]


def test_deleting_a_pinning_test_fails_validation(tmp_path):
    _seed_project(tmp_path)
    victim = sorted(ALL_RULES)[0]
    pins = tmp_path / "tests/test_pins.py"
    pins.write_text(
        pins.read_text().replace(f"def test_pin_{_slug(victim)}", "def renamed_away")
    )
    report = validate_ledger(tmp_path)
    assert [e for e in report.errors if victim in e and "not found" in e]
    # Deleting the whole file is also fatal (for every entry pinned there).
    pins.unlink()
    report = validate_ledger(tmp_path)
    assert [e for e in report.errors if "does not exist" in e]


def test_lint_and_ledger_failures_combine_to_exit_3(tmp_path):
    _seed_project(tmp_path)
    _write(tmp_path, "src/repro/sim/dirty.py", "import random\nv = random.random()\n")
    (tmp_path / "tests/test_pins.py").unlink()
    assert run_check(tmp_path, out=io.StringIO()) == 3


def test_entry_without_statement_or_tests_is_a_parse_error():
    entries, errors = parse_ledger(
        "# L\n\n## DET-XXX-001 — no body\n\n- **Check:** review.\n"
    )
    assert "DET-XXX-001" in entries
    assert any("no **Statement:**" in e for e in errors)
    assert any("no pinning tests" in e for e in errors)


# --------------------------------------------------------------------------- #
# Dogfood: this repository is contract-clean, and sensitive to deletions
# --------------------------------------------------------------------------- #


def test_repo_tree_is_clean_and_ledger_consistent():
    out = io.StringIO()
    code = run_check(REPO_ROOT, out=out)
    assert code == 0, out.getvalue()


def test_repo_ledger_is_sensitive_to_entry_deletion(tmp_path):
    """Dropping any real ledger entry must fail against the real tree."""
    text = (REPO_ROOT / "CONTRACTS.md").read_text()
    for victim in ALL_RULES:
        mutated = "## ".join(
            block
            for block in text.split("## ")
            if not block.startswith(f"{victim} ")
        )
        ledger_copy = tmp_path / f"CONTRACTS_{victim}.md"
        ledger_copy.write_text(mutated)
        report = validate_ledger(REPO_ROOT, ledger_path=ledger_copy)
        assert not report.ok, f"deleting {victim} went unnoticed"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.contracts.check",
            "--root",
            str(REPO_ROOT),
            "--lint-only",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "contracts lint:" in proc.stdout


# --------------------------------------------------------------------------- #
# Runtime tripwire (REPRO_CONTRACTS=strict)
# --------------------------------------------------------------------------- #


def _run_as(filename: str, code: str) -> None:
    """Execute ``code`` so its frame appears to live at ``filename``."""
    exec(  # noqa: S102 - the whole point is controlling the frame's filename
        compile(textwrap.dedent(code), filename, "exec"),
        {"np": np, "random": random, "time": time},
    )


def test_tripwire_catches_planted_global_rng():
    """Acceptance: random.random() reached *dynamically* from sim code
    raises under the strict tripwire (the AST pass never sees it)."""
    with strict_tripwire():
        with pytest.raises(ContractViolation, match="DET-RNG-001"):
            _run_as(SIM_FILE, "random.random()")
        with pytest.raises(ContractViolation, match="DET-RNG-001"):
            _run_as(SIM_FILE, "np.random.normal()")
        with pytest.raises(ContractViolation, match="DET-RNG-001"):
            _run_as(FLEET_FILE, "np.random.seed(0)")
        # The same calls from a non-guarded frame (this test) pass through.
        random.random()
        np.random.default_rng(0).random()


def test_tripwire_catches_wall_clock_in_sim():
    with strict_tripwire():
        with pytest.raises(ContractViolation, match="DET-CLOCK-002"):
            _run_as(SIM_FILE, "time.time()")
        with pytest.raises(ContractViolation, match="DET-CLOCK-002"):
            _run_as(SIM_FILE, "time.perf_counter()")
        with pytest.raises(ContractViolation, match="DET-CLOCK-002"):
            _run_as(FLEET_FILE, "time.time()")
        # fleet keeps its waived wall-time telemetry (perf_counter).
        _run_as(FLEET_FILE, "time.perf_counter()")
        time.time()  # unguarded caller


@pytest.mark.skipif(
    strict_mode_requested(),
    reason="session tripwire already armed; restore semantics need a bare session",
)
def test_tripwire_restores_every_patched_function():
    originals = (random.random, np.random.rand, time.time, time.perf_counter)
    with strict_tripwire():
        assert getattr(random.random, "__wrapped__", None) is originals[0]
    assert (random.random, np.random.rand, time.time, time.perf_counter) == originals
    assert getattr(random.random, "__wrapped__", None) is None


def test_strict_mode_requested_reads_environment():
    assert strict_mode_requested({"REPRO_CONTRACTS": "strict"})
    assert strict_mode_requested({"REPRO_CONTRACTS": " STRICT "})
    assert not strict_mode_requested({"REPRO_CONTRACTS": "off"})
    assert not strict_mode_requested({})
