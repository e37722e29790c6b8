"""Benchmark trajectory: history appender and regression gate.

``benchmarks/conftest.py`` already writes each bench session's printed
rows to ``BENCH_core.json`` — but a single snapshot cannot say whether
the hot paths the ROADMAP targets (solver memoization, warm-grid cache
serving, fleet supervision overhead, recorder overhead) are getting
better or worse.  This module gives the snapshot a *trajectory*:

* :func:`append_history` extracts the tracked rows from a
  ``BENCH_core.json`` payload and appends one JSONL entry — keyed by
  git SHA — to ``BENCH_history.jsonl``;
* :func:`check` compares a fresh snapshot against the committed
  history and flags any tracked row that regressed beyond its
  per-row tolerance (``python -m repro bench-check`` fails CI on it).

Tracked rows are deliberately machine-portable: dimensionless ratios
(speedups, overhead ratios/percentages) and deterministic counts
(nodes explored), never raw milliseconds.  The baseline is the
**median of the last few history entries** with the same context
(e.g. solver depth), so one noisy CI run neither poisons the baseline
nor slips a regression through.  Rows absent from the current
snapshot warn rather than fail unless ``strict`` — the fleet bench's
overhead row, for example, is only meaningful on multi-core runners.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: How many of the most recent matching history entries form the
#: baseline (their median).
BASELINE_WINDOW = 5


@dataclass(frozen=True)
class TrackedRow:
    """One benchmark row under regression watch.

    ``direction`` is what *better* looks like: ``"higher"`` (speedups),
    ``"lower"`` (overheads), ``"equal"`` (deterministic counts — any
    change is a regression), or ``"context"`` (not compared, but
    baseline entries must match it — e.g. the solver depth that the
    node count is a function of).  A row regresses when it is worse
    than the baseline by more than ``rel_tol`` (fraction of the
    baseline) plus ``abs_tol``.

    ``definition`` is the row's version.  Bump it when the number
    changes meaning: its bench measures something else, or a change
    elsewhere moves it while the layer it watches got neither better
    nor worse.  A baseline only draws on history entries recorded
    under the same definition, so the row starts afresh instead of
    mixing two meanings in one median.
    """

    experiment: str
    label: str
    direction: str = "context"
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    definition: int = 1

    @property
    def key(self) -> str:
        return f"{self.experiment}|{self.label}"


#: The regression gate: solver depth-6 memoization, warm-grid cache
#: speedup, fleet supervision overhead, recorder overhead, causal
#: observatory costs, the compiled solver, query and checker.
TRACKED_ROWS: Tuple[TrackedRow, ...] = (
    TrackedRow("S33-MEMO", "depth"),
    TrackedRow("S33-MEMO", "nodes explored", "equal"),
    TrackedRow("S33-MEMO", "speedup", "higher", rel_tol=0.35),
    # definition 2: cold grids check on the compiled core, about 4x
    # faster than the reference checker, so cold/warm fell from about
    # 50 to about 12 while the warm (cached) grid stayed as fast
    TrackedRow("EXT-CACHE", "speedup", "higher", rel_tol=0.40,
               definition=2),
    # abs_tol spans the bench's own <10% happy-path gate: a baseline
    # measured on a starved runner (overhead can go negative there)
    # must not make the trajectory stricter than the bench itself
    TrackedRow("EXT-FLEET", "supervision overhead (%)", "lower",
               rel_tol=0.60, abs_tol=15.0),
    TrackedRow("EXT-OBS", "overhead ratio", "lower",
               rel_tol=0.35, abs_tol=0.25),
    # abs_tol spans bench_causality's own <25% gate: the percentage
    # is jittery on starved runners where the grid's fixed fleet
    # cost inflates the denominator unpredictably
    TrackedRow("EXT-CAUSAL", "graph overhead (%)", "lower",
               rel_tol=0.60, abs_tol=8.0),
    # the disabled path must allocate *nothing* — any nonzero count
    # means NULL_TRACER runs started paying for the observatory
    TrackedRow("EXT-CAUSAL", "disabled-path profile entries",
               "equal"),
    # compiled hot path: node count is a correctness invariant (the
    # engines must visit the same tree), the speedup a wide-tolerance
    # trajectory (its floor is asserted in the bench itself)
    TrackedRow("EXT-COMPILE", "depth"),
    TrackedRow("EXT-COMPILE", "nodes explored", "equal"),
    TrackedRow("EXT-COMPILE", "speedup", "higher", rel_tol=0.45),
    # query layer: the node ratio is nearly deterministic (same tree,
    # same heuristic) but the early-exit speedup is a wall-clock
    # trajectory like the other speedups
    TrackedRow("EXT-SEARCH", "depth"),
    TrackedRow("EXT-SEARCH", "query node ratio", "lower",
               rel_tol=0.50),
    TrackedRow("EXT-SEARCH", "query early-exit speedup", "higher",
               rel_tol=0.50),
    # compiled §3.2 checker vs the reference path: a wall-clock
    # trajectory like EXT-COMPILE (its 5x floor is in the bench)
    TrackedRow("EXT-CHECK", "speedup", "higher", rel_tol=0.45),
)


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return float(value)


def extract_tracked(core: Dict[str, Any],
                    tracked: Tuple[TrackedRow, ...] = TRACKED_ROWS
                    ) -> Dict[str, float]:
    """Pull the tracked rows' numeric values out of a
    ``BENCH_core.json`` payload (missing or non-numeric rows are
    simply absent from the result)."""
    out: Dict[str, float] = {}
    want = {t.key: t for t in tracked}
    for row in core.get("rows") or []:
        key = f"{row.get('experiment')}|{row.get('label')}"
        if key not in want or key in out:
            continue
        value = _numeric(row.get("value"))
        if value is not None:
            out[key] = value
    return out


def load_core(path: str | pathlib.Path) -> Dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def load_history(path: str | pathlib.Path) -> List[Dict[str, Any]]:
    """Read a ``BENCH_history.jsonl``; tolerates a missing file (empty
    trajectory) and skips malformed lines rather than dying on them —
    a truncated append must not brick the gate."""
    p = pathlib.Path(path)
    if not p.exists():
        return []
    entries: List[Dict[str, Any]] = []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and isinstance(
                entry.get("rows"), dict):
            entries.append(entry)
    return entries


def append_history(core: Dict[str, Any],
                   history_path: str | pathlib.Path,
                   sha: str = "unknown",
                   tracked: Tuple[TrackedRow, ...] = TRACKED_ROWS
                   ) -> Dict[str, Any]:
    """Append one trajectory entry for this snapshot; returns it.

    The entry carries only the tracked rows plus enough provenance
    (SHA, timestamp, python, platform) to interpret them later, and
    the definition of every row past its first (an entry that names
    none recorded every row under definition 1).
    """
    rows = extract_tracked(core, tracked)
    entry: Dict[str, Any] = {
        "sha": sha,
        "generated_at": core.get("generated_at"),
        "python": core.get("python"),
        "platform": core.get("platform"),
        "rows": rows,
    }
    definitions = {t.key: t.definition for t in tracked
                   if t.definition != 1 and t.key in rows}
    if definitions:
        entry["definitions"] = definitions
    p = pathlib.Path(history_path)
    with open(p, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _context_rows(tracked: Tuple[TrackedRow, ...]
                  ) -> List[TrackedRow]:
    return [t for t in tracked if t.direction == "context"]


def _matches_context(entry_rows: Dict[str, Any],
                     current: Dict[str, float],
                     tracked: Tuple[TrackedRow, ...]) -> bool:
    for ctx in _context_rows(tracked):
        if ctx.key in current and ctx.key in entry_rows \
                and entry_rows[ctx.key] != current[ctx.key]:
            return False
    return True


def baseline_for(history: List[Dict[str, Any]], key: str,
                 current: Dict[str, float],
                 tracked: Tuple[TrackedRow, ...] = TRACKED_ROWS,
                 window: int = BASELINE_WINDOW) -> Optional[float]:
    """Median of the last ``window`` history values for ``key`` whose
    context rows match the current snapshot's and that were recorded
    under the row's current definition; None with no usable history
    (the gate then passes vacuously — a fresh trajectory)."""
    definition = next(
        (t.definition for t in tracked if t.key == key), 1)
    values = [
        v for entry in history
        if _matches_context(entry.get("rows") or {}, current, tracked)
        and (entry.get("definitions") or {}).get(key, 1) == definition
        for k, v in (entry.get("rows") or {}).items()
        if k == key and _numeric(v) is not None
    ]
    if not values:
        return None
    tail = sorted(float(v) for v in values[-window:])
    mid = len(tail) // 2
    if len(tail) % 2:
        return tail[mid]
    return (tail[mid - 1] + tail[mid]) / 2.0


@dataclass
class RowVerdict:
    """The gate's decision about one tracked row."""

    key: str
    direction: str
    status: str           # ok | regressed | missing | no-baseline
    value: Optional[float] = None
    baseline: Optional[float] = None
    threshold: Optional[float] = None

    def describe(self) -> str:
        if self.status == "missing":
            return f"MISSING  {self.key} (not in this snapshot)"
        if self.status == "no-baseline":
            return (f"SEEDING  {self.key} = {self.value:g} "
                    "(no baseline yet)")
        word = "REGRESS " if self.status == "regressed" else "ok      "
        arrow = {"higher": ">=", "lower": "<=",
                 "equal": "=="}[self.direction]
        return (f"{word} {self.key} = {self.value:g} "
                f"(baseline {self.baseline:g}, needs {arrow} "
                f"{self.threshold:g})")


@dataclass
class BenchCheckResult:
    """All row verdicts plus the overall gate decision."""

    verdicts: List[RowVerdict]
    strict: bool = False

    @property
    def regressions(self) -> List[RowVerdict]:
        return [v for v in self.verdicts if v.status == "regressed"]

    @property
    def missing(self) -> List[RowVerdict]:
        return [v for v in self.verdicts if v.status == "missing"]

    @property
    def ok(self) -> bool:
        if self.regressions:
            return False
        if self.strict and self.missing:
            return False
        return True

    def describe(self) -> str:
        lines = [v.describe() for v in self.verdicts]
        if self.ok:
            lines.append("bench-check: PASS")
        else:
            why = []
            if self.regressions:
                why.append(f"{len(self.regressions)} regression(s)")
            if self.strict and self.missing:
                why.append(f"{len(self.missing)} missing row(s)")
            lines.append("bench-check: FAIL — " + ", ".join(why))
        return "\n".join(lines)


def check(core: Dict[str, Any],
          history: List[Dict[str, Any]],
          tracked: Tuple[TrackedRow, ...] = TRACKED_ROWS,
          strict: bool = False,
          window: int = BASELINE_WINDOW) -> BenchCheckResult:
    """Gate a fresh snapshot against the committed trajectory."""
    current = extract_tracked(core, tracked)
    verdicts: List[RowVerdict] = []
    for t in tracked:
        if t.direction == "context":
            continue
        value = current.get(t.key)
        if value is None:
            verdicts.append(RowVerdict(t.key, t.direction, "missing"))
            continue
        base = baseline_for(history, t.key, current, tracked, window)
        if base is None:
            verdicts.append(RowVerdict(
                t.key, t.direction, "no-baseline", value=value))
            continue
        slack = abs(base) * t.rel_tol + t.abs_tol
        if t.direction == "higher":
            threshold = base - slack
            bad = value < threshold
        elif t.direction == "lower":
            threshold = base + slack
            bad = value > threshold
        else:                                   # "equal"
            threshold = base
            bad = value != base
        verdicts.append(RowVerdict(
            t.key, t.direction,
            "regressed" if bad else "ok",
            value=value, baseline=base, threshold=threshold))
    return BenchCheckResult(verdicts=verdicts, strict=strict)
