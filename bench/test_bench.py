"""Smoke test of the benchmark's output schema; it never gates on timings.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from weihrauchlab import registry  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# cheap registered witnesses, enough for a tail with ten slower checks
SMALL = ("refl(lpo)", "refl(llpo)", "llpo_to_lpo", "sum_idem_fwd(lpo)",
         "sum_idem_bwd(lpo)", "prod_comm(lpo,llpo)", "prod_id_intro(lpo)",
         "llpo_to_llpo_real")


@pytest.fixture
def small_registry(monkeypatch):
    full = registry.named_witnesses

    def small():
        entries = full()
        return {name: entries[name] for name in SMALL}

    monkeypatch.setattr(registry, "named_witnesses", small)


def test_suite_takes_its_witnesses_from_the_registry_at_run_time(small_registry):
    checks = workloads.build_suite("1")
    labels = list(dict.fromkeys(c.label for c in checks if c.label))
    assert labels == sorted(SMALL)
    entries = registry.named_witnesses()
    assert sum(c.label == name for c in checks for name in SMALL) == \
        sum(entries[name].count for name in SMALL)
    groups = {c.group for c in checks}
    assert len(groups) == len(SMALL) + len(registry.corrupted_witnesses())


def test_suite_covers_every_registered_witness():
    labels = {c.label for c in workloads.build_suite("1") if c.label}
    assert labels == set(registry.named_witnesses())


def test_spec_names_and_directions():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(m["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.BUILDERS)
    assert workloads.metric_name("parallel_idem_up(llpo)") == "parallel_idem_up-llpo"


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema(small_registry, capsys, trace, key):
    code = run.main(["--workload", "suite", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    assert all(printed[k] == unit for k, unit in want.items())
