"""Output checks: every run's accounting, and exact repeatability.

A failed check raises :class:`CheckFailure`; the benchmark then exits
non-zero without printing a result, so a violation is never averaged
away.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence


class CheckFailure(Exception):
    """An output check failed."""


def check_accounting(cells: Sequence[Any]) -> None:
    """Each cell must satisfy attempted = completed + failed."""
    broken = [
        f"{cell.key}: attempted {cell.attempted} != completed {cell.completed}"
        f" + failed {cell.failed}"
        for cell in cells
        if cell.attempted != cell.completed + cell.failed
    ]
    if broken:
        raise CheckFailure("accounting violated in " + "; ".join(broken))


def signature(cells: Sequence[Any]) -> Dict[str, List[Any]]:
    """The exact, repeatable part of a run: counts and fingerprints per cell."""
    return {
        cell.key: [cell.attempted, cell.completed, cell.failed, cell.fingerprint]
        for cell in cells
    }


def check_identical(what: str, values: Sequence[Any]) -> None:
    """Every repetition of a run must give exactly the same ``values``."""
    for index, value in enumerate(values[1:], start=1):
        if value != values[0]:
            raise CheckFailure(
                f"{what} differs between repetitions 0 and {index}: "
                f"{values[0]!r} != {value!r}"
            )


def source_digest(paths: Iterable[Path]) -> str:
    """SHA-256 over the contents of every ``*.py`` file under ``paths``."""
    digest = hashlib.sha256()
    for root in paths:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_against_record(
    record_path: Path, code: str, workload: str, seed: int, entry: Dict[str, Any]
) -> None:
    """Compare a run with earlier runs of the same code, then record it.

    Runs of the same code and seed must agree exactly on every field
    they share; runs with different seeds must not share a fingerprint
    (that would mean the seed is ignored).
    """
    record: Dict[str, Any] = {}
    if record_path.exists():
        record = json.loads(record_path.read_text())
    runs = record.setdefault(code, {}).setdefault(workload, {})
    previous = runs.get(str(seed), {})
    for field, value in entry.items():
        if field in previous and previous[field] != value:
            raise CheckFailure(
                f"{workload} seed {seed}: {field} differs from an earlier run of "
                f"the same code: {previous[field]!r} != {value!r}"
            )
    fingerprints = {cell[3] for cell in entry["cells"].values()}
    for other_seed, other in runs.items():
        if other_seed == str(seed):
            continue
        shared = fingerprints & {cell[3] for cell in other["cells"].values()}
        if shared:
            raise CheckFailure(
                f"{workload}: seeds {seed} and {other_seed} produced the same "
                "outcome fingerprint, so the seed does not reach the simulation"
            )
    runs[str(seed)] = {**previous, **entry}
    record_path.parent.mkdir(parents=True, exist_ok=True)
    scratch = record_path.with_suffix(".tmp")
    scratch.write_text(json.dumps(record, sort_keys=True))
    os.replace(scratch, record_path)
