"""Toy-scale smoke test of the benchmark: every named metric, every workload.

Run from the repository root with ``python3 -m pytest -q perfbench/tests/smoke.py``.
The file name keeps it out of the default test collection, since it starts
about a hundred child interpreters (~60 s).
"""

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from synthcorpus import CorpusShape  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY_CONFIG = """\
[quantizer]
n_components = 8
max_iterations = 5

[lda]
n_topics = 4
alpha = 0.1

[cluster]
n_clusters = 4

[selection]
lambda = 0.9
max_hours = {max_hours}
"""


def toy(workload):
    shape = CorpusShape(
        pool_utts_per_domain=12, dev_utts=12, frames_range=(20, 30),
        separation=4.0, transcripts=workload.shape.transcripts,
    )
    config = TOY_CONFIG + ("\n[text]\nenabled = true\n" if workload.shape.transcripts else "")
    return dataclasses.replace(workload, shape=shape, config=config, corpora=2)


def bench(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "WORKLOADS", {n: toy(w) for n, w in run.WORKLOADS.items()})
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(monkeypatch, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(monkeypatch, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
