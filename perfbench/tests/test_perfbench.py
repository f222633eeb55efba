"""Self-tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They check that the generators are deterministic per seed, that tracing
restores every name it wraps, and that a tiny run of each workload emits
every metric named in BENCHMARK.json with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

import maxvar  # noqa: E402
import maxvar.cli  # noqa: E402
import maxvar.dist  # noqa: E402
from maxvar.dist import EmpiricalDistribution  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    first = gen.generate(workload, 5, "tiny", tmp_path / "a")
    again = gen.generate(workload, 5, "tiny", tmp_path / "b")
    other = gen.generate(workload, 6, "tiny", tmp_path / "c")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert other["seed"] == 6


def _namespaces() -> dict:
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "maxvar" or name.startswith("maxvar.")
    }


def test_tracing_restores_every_wrapped_name():
    before = _namespaces()
    properties = {p: EmpiricalDistribution.__dict__[p] for p in ("cumulative", "survival")}
    tracer = Tracer()
    tracer.install()
    try:
        assert maxvar.cli.from_samples is not before["maxvar.dist"]["from_samples"]
        assert maxvar.cli.from_samples is maxvar.dist.from_samples
        d = maxvar.from_samples(np.array([[1.0, 1.0], [2.0, 1.0], [4.0, 2.0]]))
        maxvar.minvar(d, 3)
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    assert maxvar.cli.from_samples is maxvar.dist.from_samples
    for prop, original in properties.items():
        assert EmpiricalDistribution.__dict__[prop] is original

    names = [span[0] for span in tracer.spans]
    assert "dist.from_samples" in names and "dist.cumulative" in names
    minvar = names.index("measures.minvar")
    children = {span[0] for span in tracer.spans if span[3] == minvar}
    assert children == {"dist.affine", "measures.maxvar_choquet"}


def test_aggregate_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ("measures.minvar", 0.0, 1.0, -1, 0, {"atoms": 3}),
        ("measures.maxvar_choquet", 0.2, 0.5, 0, 0, {"atoms": 3}),
    ]
    per_op = tracer.aggregate(ops=2, op_busy=1.5)
    assert per_op["measures.minvar.busy_s"] == pytest.approx(0.5)
    assert per_op["measures.minvar.self_s"] == pytest.approx(0.35)
    assert per_op["measures.maxvar_choquet.self_s"] == pytest.approx(0.15)
    assert per_op["measures.minvar.atoms"] == pytest.approx(1.5)
    assert per_op["op.self_s"] == pytest.approx(0.25)


def test_benchmark_json_names_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()
    assert {w["name"] for w in SPEC["workloads"]} == set(gen.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(12) == 50
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_pace_scaling_reads_wall_time_at_the_nominal_pace():
    nominal = pace.NOMINAL_S
    # The host runs at the nominal pace, then at two-thirds of it.
    paces = [nominal, nominal, 2.0 * nominal]
    scaled = pace.scale([1.0, 1.0, 3.0], [0, 1, 1], paces)
    assert scaled == pytest.approx([1.0, 1.0 / 1.5, 2.0])


def test_pace_sample_leaves_garbage_collection_as_it_was():
    import gc

    reference = pace.Pace()
    assert reference.sample() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace), "--preset", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "many-laws", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
