"""Every check's full report is pinned, not only its verdict line.

tests/data/reports-cli.txt holds one line per registered witness and per
negative control, checked at seed `cli` as `suite full` checks them: a
witness at its registry depth, a control on five names at depth 8.  Each
line is the name and a sha256 over the report's entries (point,
behavior, status, coordinate, note, use), so a change that moves a
branch, a use set or a failing coordinate shows here even where the
verdict line stays the same.

Rewrite the record with `PYTHONPATH=src python tests/test_reports.py`,
only for a change that means to move a report.
"""

import hashlib
from pathlib import Path

from weihrauchlab.corpus import rng_for
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.witnesses import check

RECORD = Path(__file__).parent / "data" / "reports-cli.txt"
SEED = "cli"


def _digest(report) -> str:
    entries = "\n".join(
        repr((e.point, e.behavior, e.status, e.coordinate, e.note, e.use))
        for e in report.entries)
    return hashlib.sha256(entries.encode()).hexdigest()


def report_lines() -> list:
    lines = []
    for name, entry in sorted(named_witnesses().items()):
        corpus = entry.corpus(rng_for(f"{SEED}:{name}"), entry.count)
        report = check(entry.build(), corpus, depth=entry.depth)
        lines.append(f"{name} {_digest(report)}")
    for name, (w, corpus_fn) in sorted(corrupted_witnesses().items()):
        report = check(w, corpus_fn(rng_for(f"{SEED}:{name}"), 5), depth=8)
        lines.append(f"negative {name} {_digest(report)}")
    return lines


def test_reports_match_the_record():
    recorded = RECORD.read_text().splitlines()
    now = report_lines()
    assert [line.rsplit(" ", 1)[0] for line in now] == [
        line.rsplit(" ", 1)[0] for line in recorded]
    moved = [a for a, b in zip(now, recorded) if a != b]
    assert moved == []


if __name__ == "__main__":
    RECORD.write_text("".join(line + "\n" for line in report_lines()))
