"""Durable experiment records: canonical JSON encoding of result objects.

The record types themselves live with the layers that produce them —
:class:`~repro.analysis.experiments.ExperimentRecord`,
:class:`~repro.congest.metrics.ExecutionMetrics` /
:class:`~repro.congest.metrics.AlgorithmCost` and
:class:`~repro.analysis.verification.VerificationReport` all carry
``to_dict`` / ``from_dict`` — this module re-exports them as the public
records surface and owns the *canonical* JSON text form the JSONL store
writes: sorted keys, compact separators, no trailing whitespace.  Two
equal records always serialize to identical bytes, which is what makes
"resume a sweep, compare the files" a byte-level check.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..analysis.experiments import ExperimentRecord
from ..analysis.verification import VerificationReport
from ..congest.metrics import AlgorithmCost, ExecutionMetrics, PhaseReport
from ..core.counting import CountingResult

__all__ = [
    "ExperimentRecord",
    "VerificationReport",
    "ExecutionMetrics",
    "AlgorithmCost",
    "PhaseReport",
    "CountingResult",
    "canonical_json",
    "canonical_json_object",
]


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` to the store's canonical JSON text.

    Keys are sorted and separators compact, so equal payloads produce
    identical bytes regardless of construction order.  Non-finite floats
    are rejected (``ValueError``) — Python's ``NaN``/``Infinity`` tokens
    are not valid JSON and would poison every downstream consumer of the
    store.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json_object(members: Mapping[str, str]) -> str:
    """Join member values that are already canonical JSON text into one object.

    Byte-identical to :func:`canonical_json` of the decoded members, so a
    caller can splice text it encoded once instead of re-encoding it.
    """
    return "{" + ",".join(f"{json.dumps(key)}:{members[key]}" for key in sorted(members)) + "}"
