"""Output checks: summary digests, recorded expectations, reference replays."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The seed whose outputs are recorded in ``expected.json``.
DEFAULT_SEED = 0


def summary_digest(summary: dict) -> str:
    """Digest of a run summary's simulated values (the label is not one).

    Floats are encoded by ``repr`` through ``json``, so equal digests mean
    bit-identical summaries.
    """
    fields = {k: v for k, v in summary.items() if k != "label"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def spec_key(spec) -> str:
    """Identity of a spec without its label."""
    identity = dict(spec.identity_dict())
    identity.pop("label", None)
    return json.dumps(identity, sort_keys=True, separators=(",", ":"))


def normalise(value):
    """A JSON round trip, so recorded and fresh values compare alike."""
    return json.loads(json.dumps(value, sort_keys=True))


def load_expected() -> dict:
    with EXPECTED_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def run_digest(spec, rounds: int | None = None, engine: str = "auto") -> str:
    """Digest of ``spec`` run on ``engine``, cut to at most ``rounds`` rounds."""
    import dataclasses

    from repro.sim import specs as specs_mod

    rounds = spec.rounds if rounds is None else min(rounds, spec.rounds)
    spec = dataclasses.replace(spec, rounds=rounds, engine=engine)
    return summary_digest(specs_mod.execute_spec(spec).summary.as_dict())


class OpLedger:
    """Counts attempted operations and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set[int] = set()
        self.notes: list[str] = []

    def new_op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, why: str) -> None:
        if op not in self.failed:
            self.failed.add(op)
            if len(self.notes) < 20:
                self.notes.append(f"op {op}: {why}")

    @property
    def error_rate(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0
