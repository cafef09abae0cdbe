"""Tests of the benchmark's own arithmetic and of tracing transparency.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class TestTail:
    def test_few_samples_give_the_median(self):
        values = [float(v) for v in range(1, 20)]  # 19 samples
        assert run.tail(values) == (10.0, 50.0, 19)

    def test_eleventh_largest_has_ten_beyond(self):
        values = [float(v) for v in range(48, 0, -1)]  # 1..48, unsorted
        value, percentile, n = run.tail(values)
        assert n == 48
        assert value == 38.0
        assert sum(v > value for v in values) == 10
        assert percentile == pytest.approx(100.0 * 38 / 48)

    def test_twenty_samples_land_on_the_median_rank(self):
        values = [float(v) for v in range(1, 21)]
        assert run.tail(values) == (10.0, 50.0, 20)


class TestSelfTime:
    def test_children_covered_once_and_clipped(self):
        spans = [
            ["parent", 0.0, 10.0, -1],
            ["child", 1.0, 3.0, 0],
            ["child", 2.0, 5.0, 0],  # overlaps the first child
            ["late", 8.0, 12.0, 0],  # runs past the parent's end
            ["grandchild", 1.5, 2.5, 1],
        ]
        self_s = layertrace.self_times(spans)
        # parent: 10 minus the union [1, 5] + [8, 10]
        assert self_s["parent"] == pytest.approx(4.0)
        # child: (2 - 1) + 3, the grandchild only charged to its parent
        assert self_s["child"] == pytest.approx(1.0 + 3.0)
        assert self_s["late"] == pytest.approx(4.0)
        assert self_s["grandchild"] == pytest.approx(1.0)

    def test_self_times_sum_to_the_root_span(self):
        spans = [["a", 0.0, 6.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
        assert sum(layertrace.self_times(spans).values()) == pytest.approx(6.0)


class TestTracer:
    def test_recursion_is_one_span_with_node_counts(self):
        import edsbt.expr as ex

        tracer = layertrace.Tracer()
        replaced = tracer.install(
            [("expr.evaluate", "edsbt.expr", "evaluate", {})]
        )
        try:
            e = ex.parse("x*y + sin(x)", ["x", "y"])
            assert ex.evaluate(e, {"x": 1.0, "y": 2.0}) == pytest.approx(2.0 + 0.8414709848)
        finally:
            tracer.uninstall(replaced)
        assert [s[0] for s in tracer.spans] == ["expr.evaluate"]
        assert tracer.counts["expr.evaluate.nodes"] == 6  # Add, Mul, x, y, sin, x

    def test_missing_name_is_absent_not_an_error(self):
        tracer = layertrace.Tracer()
        replaced = tracer.install([("gone", "edsbt.expr", "no_such_function", {})])
        assert replaced == []
        assert tracer.absent == ["edsbt.expr.no_such_function"]

    def test_every_layer_exists_at_this_commit(self):
        tracer = layertrace.Tracer()
        tracer.uninstall(tracer.install())
        assert tracer.absent == []


def _launch(tmp_path, argv, traced):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.SRC)
    env["PERFBENCH_SIDECAR"] = str(tmp_path / "sidecar.json")
    env.pop("EDSBT_SEED", None)
    cmd = [sys.executable, str(run.LAUNCHER)] + (["--traced"] if traced else []) + argv
    proc = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env, timeout=120)
    facts = json.loads((tmp_path / "sidecar.json").read_text())
    return proc.returncode, proc.stdout, facts


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "bt.def", "--samples", "8", "--seed", "7"],
        ["torsion", "bt.def", "--at", workloads.AT_REFERENCE],
        ["hyperbolic", "laplace.def", "--samples", "8"],
        ["propagate", "bt.def", "--seed-u", workloads.KINK_SEED, "--v0", "0",
         "--grid", "21,21", "--domain", "0,1,0,1", "--out", "v.csv",
         "--reference", workloads.TWO_SOLITON],
    ],
    ids=["check", "torsion-at", "hyperbolic-exit-1", "propagate"],
)
def test_tracing_is_transparent(tmp_path, argv):
    (tmp_path / "bt.def").write_text(workloads.SG_BT.format(lam=2.0))
    (tmp_path / "laplace.def").write_text(workloads.LAPLACE_MA)
    code, plain, facts = _launch(tmp_path, argv, traced=False)
    assert "spans" not in facts and facts["import_s"] > 0
    csv = (tmp_path / "v.csv").read_bytes() if argv[0] == "propagate" else None
    traced_code, traced, facts = _launch(tmp_path, argv, traced=True)
    assert traced_code == code
    assert traced == plain
    assert facts["spans"] and facts["absent"] == []
    if csv is not None:
        assert (tmp_path / "v.csv").read_bytes() == csv


def test_two_soliton_closed_form_matches_its_cli_expression():
    import edsbt.expr as ex
    import numpy as np

    e = ex.parse(workloads.TWO_SOLITON, ["x", "y"], ["lam"])
    X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 5))
    env = {"x": X, "y": Y, "lam": 2.5}
    assert np.allclose(ex.evaluate(e, env), workloads.two_soliton(2.5, X, Y),
                       rtol=1e-14, atol=1e-14)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _source in run.PER_LAYER
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-commands",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
