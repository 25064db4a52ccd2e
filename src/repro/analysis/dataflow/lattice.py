"""Taint lattice for the PHI escape analysis (MED2xx).

Three-point lattice ordered ``CLEAN < UNKNOWN < TAINTED``:

- ``CLEAN``   — provably free of raw patient data (literals, aggregates,
  digests, values from no cataloged source);
- ``UNKNOWN`` — a tainted value passed through a call the analysis cannot
  see inside; PHI *may* survive.  We never claim CLEAN for flow we cannot
  prove, but we also never *report* UNKNOWN at a sink (precision over soundness —
  the zero-false-positive dogfood gate depends on it; see DESIGN.md §14);
- ``TAINTED`` — provably derived from a cataloged PHI source, carrying the
  :class:`TaintStep` trace that the finding (and the deploy-gate error)
  renders as ``source → path → sink``.

Values additionally carry a *parameter dependency set*: when a function is
analyzed for its interprocedural summary, its parameters start as
``CLEAN`` values depending on themselves, so the summary can report "the
return value is whatever taint argument ``record`` carries" without
guessing at call sites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Tuple

# Step kinds, ordered by the priority used to pick the MED2xx rule code for
# a completed source→sink trace (see rules.code_for_trace).
STEP_SOURCE = "source"
STEP_SANITIZER_BYPASS = "sanitizer-bypass"  # MED205
STEP_CALL = "call"  # MED203 (interprocedural hop)
STEP_CONTAINER = "container"  # MED204 (aliasing / membership)
STEP_FORMAT = "format"  # MED202 (f-string / str coercion)
STEP_SINK = "sink"


class Level(enum.IntEnum):
    """Taint level; ``max`` is the lattice join."""

    CLEAN = 0
    UNKNOWN = 1
    TAINTED = 2


@dataclass(frozen=True)
class TaintStep:
    """One hop of a taint trace, anchored to a ``file:line`` span."""

    kind: str
    detail: str
    line: int = 0
    file: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "detail": self.detail,
            "line": self.line,
        }
        if self.file:
            out["file"] = self.file
        return out

    def render(self) -> str:
        where = f":{self.line}" if self.line else ""
        return f"[{self.kind}{where}] {self.detail}"


@dataclass(frozen=True)
class Taint:
    """Abstract value: level, provenance trace, parameter dependencies."""

    level: Level = Level.CLEAN
    steps: Tuple[TaintStep, ...] = ()
    params: FrozenSet[str] = frozenset()

    @property
    def tainted(self) -> bool:
        return self.level is Level.TAINTED

    def with_step(self, step: TaintStep) -> "Taint":
        """Append a propagation step (no-op on values with no provenance)."""
        if self.level is Level.CLEAN and not self.params:
            return self
        return Taint(level=self.level, steps=self.steps + (step,), params=self.params)

    def join(self, other: "Taint") -> "Taint":
        """Lattice join: highest level wins; its trace is kept.

        On a level tie the shorter trace wins (the most direct explanation
        of the taint); parameter dependencies always union.
        """
        params = self.params | other.params
        if other.level > self.level:
            return Taint(level=other.level, steps=other.steps, params=params)
        if other.level == self.level and other.steps and (
            not self.steps or len(other.steps) < len(self.steps)
        ):
            return Taint(level=self.level, steps=other.steps, params=params)
        return Taint(level=self.level, steps=self.steps, params=params)


CLEAN = Taint()


def join_all(values: "list[Taint]") -> Taint:
    out = CLEAN
    for value in values:
        out = out.join(value)
    return out


@dataclass
class Cell:
    """A mutable abstract memory cell.

    Names bound to the same (aliasable) container share one cell, so a
    mutation through either name — ``rows.append(record)`` after
    ``rows = batch["rows"]`` — taints every alias (MED204).
    """

    taint: Taint = field(default_factory=lambda: CLEAN)

    def absorb(self, value: Taint, step: TaintStep) -> None:
        """Join a mutation's taint into the cell, recording the hop."""
        self.taint = self.taint.join(value.with_step(step))
