"""Message logs and cost ledgers of the two distributed algorithms.

Each algorithm has one implementation, which records every CPU-LPU exchange
as it runs: optimizer.optimize (Algorithm 1, coupler positions) and the round
driver behind chanest.distributed_estimate (Algorithm 3, channel estimation).
``run_algorithm1`` and ``run_algorithm3`` return those records as
``Message``s, which export to newline-delimited JSON and replay to an exact
``CostLedger``.  The log records the one run, so routed results are the
direct results.

Unit convention: a complex scalar counts as 2 real scalar units, a grid index
as 1.  Rounds are synchronous with barrier delivery; the ledger quantifies
overhead in scalar counts, not time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chanest import (
    AngularGrid,
    DEFAULT_THRESHOLD,
    EstimationResult,
    PilotSession,
    _algorithm3_rounds,
)
from .geometry import ArrayLayout, CouplerPlacement
from .impedance import DipoleModel
from .optimizer import OptimizeResult, SCAConfig, optimize


CPU_TO_LPU = "cpu_to_lpu"
LPU_TO_CPU = "lpu_to_cpu"

# direction of every payload kind of Algorithms 1 and 3
_DIRECTION = {
    **dict.fromkeys(("gradient", "proxy_request", "support", "gains"), CPU_TO_LPU),
    **dict.fromkeys(("positions", "proxy_list", "suff_stats"), LPU_TO_CPU),
}


@dataclass
class Message:
    round: int
    direction: str
    antenna: int
    payload_kind: str
    scalar_count: int
    payload: object = field(repr=False, default=None)

    def to_record(self) -> dict:
        return {
            "round": self.round,
            "direction": self.direction,
            "antenna": self.antenna,
            "payload_kind": self.payload_kind,
            "scalar_count": self.scalar_count,
        }


def export_message_log(path, messages: list[Message]) -> None:
    """Newline-delimited JSON, payloads omitted."""
    with open(path, "w") as fh:
        for msg in messages:
            fh.write(json.dumps(msg.to_record()) + "\n")


def load_message_log(path) -> list[Message]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append(Message(**rec))
    return out


@dataclass
class CostLedger:
    """Scalar totals per (direction, payload kind), replayable from the log."""

    totals: dict = field(default_factory=dict)
    rounds: int = 0

    @classmethod
    def from_messages(cls, messages: list[Message]) -> "CostLedger":
        ledger = cls()
        for msg in messages:
            key = (msg.direction, msg.payload_kind)
            ledger.totals[key] = ledger.totals.get(key, 0) + msg.scalar_count
            ledger.rounds = max(ledger.rounds, msg.round)
        return ledger

    def total(self, direction: str | None = None, kind: str | None = None) -> int:
        out = 0
        for (d, p), count in self.totals.items():
            if direction is not None and d != direction:
                continue
            if kind is not None and p != kind:
                continue
            out += count
        return out

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            **{f"{d}:{p}": c for (d, p), c in sorted(self.totals.items())},
            "total_scalars": self.total(),
        }


def _messages(records: list[tuple]) -> list[Message]:
    """Messages of the (round, antenna, payload kind, scalar count, payload)
    records a protocol run emits; the payload kind fixes the direction."""
    return [Message(r, _DIRECTION[kind], m, kind, count, payload)
            for r, m, kind, count, payload in records]


def run_algorithm1(
    initial: CouplerPlacement,
    config: SCAConfig,
    spec,
    layout: ArrayLayout,
    model: DipoleModel,
    P_max: float,
    sigma2: float,
) -> tuple[OptimizeResult, list[Message], CostLedger]:
    """Position optimization with every CPU-LPU exchange logged: per
    accepted round, the gradient-step broadcast down and the updated
    positions up."""
    records: list[tuple] = []
    result = optimize(initial, config, spec, layout, model, P_max, sigma2,
                      log=records)
    messages = _messages(records)
    return result, messages, CostLedger.from_messages(messages)


def run_algorithm3(
    session: PilotSession,
    observations: list[np.ndarray],
    L: int,
    grid: AngularGrid,
    layout: ArrayLayout,
    model: DipoleModel,
    eta: float = DEFAULT_THRESHOLD,
    eps_k="auto",
) -> tuple[EstimationResult, list[Message], CostLedger]:
    """Distributed estimation with explicit rounds: proxy uploads (plus the
    unthresholded fallback when thresholding starves the fusion), support
    broadcast, sufficient-statistics upload, gain broadcast."""
    result, records = _algorithm3_rounds(session, observations, L, grid, layout,
                                         model, eta, eps_k)
    messages = _messages(records)
    return result, messages, CostLedger.from_messages(messages)
