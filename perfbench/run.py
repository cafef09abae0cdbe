"""The edsbt benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Drives the `edsbt` command line in a closed loop with one client: one
operation at a time, each in a fresh process started through launch.py,
the next one only after the previous has exited.  A workload is a fixed
sequence of operations (a pass); the run repeats passes until the summed
operation time reaches `--seconds`.  Every operation's output is checked
against an oracle from workloads.py after the process has exited, outside
the timed region.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (layertrace.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
the same metrics, the ungated per-command figures and machine notes.
A copy of everything lands in perfbench/out/.  The exit code is 0 when
every operation's output was correct, 1 when one was not, and 2 when the
checkout has no edsbt sources to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import suppress
from pathlib import Path

import numpy

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAUNCHER = HERE / "launch.py"

DEFAULT_SECONDS = 36
PROBES = 5  # import-only launches at the start of every run
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10

# name, unit: gated end-to-end metrics, reported by every workload
END_TO_END = (
    ("latency_s.tail", "s"),
    ("batch_s", "s"),
    ("command_s.geomean", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# name, unit, source: per-layer metrics of the traced passes, per pass
# unless the name says otherwise
PER_LAYER = (
    ("cli.import_s", "s", ("import",)),
    ("cli.parse_definition.self_s", "s", ("self", "cli.parse_definition")),
    ("cli.emit.self_s", "s", ("self", "cli.emit")),
    ("expr.evaluate.calls", "count", ("calls", "expr.evaluate")),
    ("expr.evaluate.nodes", "count", ("count", "expr.evaluate.nodes")),
    ("expr.evaluate.self_s", "s", ("self", "expr.evaluate")),
    ("expr.differentiate.self_s", "s", ("self", "expr.differentiate")),
    ("expr.sampled_check.calls", "count", ("calls", "expr.sampled_check")),
    ("expr.sampled_check.self_s", "s", ("self", "expr.sampled_check")),
    ("expr.sampled_collect.calls", "count", ("calls", "expr.sampled_collect")),
    ("expr.sampled_collect.self_s", "s", ("self", "expr.sampled_collect")),
    ("expr.samples.accepted", "count", ("count", "expr.samples.accepted")),
    ("expr.samples.drawn", "count", ("count", "expr.samples.drawn")),
    ("expr.samples.accept_ratio", "ratio", ("ratio", "expr.samples.accepted",
                                            "expr.samples.drawn")),
    ("forms.construct.self_s", "s", ("self", "forms.construct")),
    ("forms.coefficients_at.calls", "count", ("calls", "forms.coefficients_at")),
    ("forms.coefficients_at.self_s", "s", ("self", "forms.coefficients_at")),
    ("forms.coframe_matrix_at.self_s", "s", ("self", "forms.coframe_matrix_at")),
    ("forms.wedge_basis_matrix.calls", "count", ("calls", "forms.wedge_basis_matrix")),
    ("forms.wedge_basis_matrix.self_s", "s", ("self", "forms.wedge_basis_matrix")),
    ("backlund.slot_table.calls", "count", ("calls", "backlund.slot_table")),
    ("backlund.slot_table.self_s", "s", ("self", "backlund.slot_table")),
    ("backlund.validate_section.calls", "count", ("calls", "backlund.validate_section")),
    ("backlund.build_wavelike.self_s", "s", ("self", "backlund.build_wavelike")),
    ("backlund.extract_torsion.self_s", "s", ("self", "backlund.extract_torsion")),
    ("backlund.integrable_extension_checks.self_s", "s",
     ("self", "backlund.integrable_extension_checks")),
    ("backlund.classify.self_s", "s", ("self", "backlund.classify")),
    ("monge_ampere.validate.self_s", "s", ("self", "monge_ampere.validate")),
    ("monge_ampere.hyperbolicity.self_s", "s", ("self", "monge_ampere.hyperbolicity")),
    ("propagate.rk4.base_row.steps", "count", ("calls", "propagate.rk4.base_row")),
    ("propagate.rk4.base_row.self_s", "s", ("self", "propagate.rk4.base_row")),
    ("propagate.rk4.column.steps", "count", ("calls", "propagate.rk4.column")),
    ("propagate.rk4.column.self_s", "s", ("self", "propagate.rk4.column")),
    ("propagate.compatibility.self_s", "s", ("self", "propagate.compatibility")),
    ("propagate.write_field_csv.self_s", "s", ("self", "propagate.write_field_csv")),
    ("propagate.write_field_csv.bytes", "bytes",
     ("count", "propagate.write_field_csv.bytes")),
    ("propagate.reference.self_s", "s", ("self", "propagate.reference")),
    ("propagate.tzitzeica.self_s", "s", ("self", "propagate.tzitzeica")),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


# ---------------------------------------------------------------------------
# statistics


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, n): the highest percentile of `values` with at
    least `beyond` samples above it, i.e. the (beyond+1)-th largest.  It
    never goes below the median: with fewer than 2*beyond samples the
    median is reported, as percentile 50."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * beyond:
        return statistics.median(xs), 50.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


# ---------------------------------------------------------------------------
# running one operation


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _child_env(sidecar):
    env = dict(os.environ)
    env.pop("EDSBT_SEED", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PERFBENCH_SIDECAR"] = sidecar
    return env


def launch(argv, work, traced=False):
    """Run one edsbt process to completion.  Returns its exit code, stdout
    bytes, latency (launch to exit), setup time (launch to `edsbt.cli`
    imported), peak RSS in MB and the launcher's sidecar facts.  Setup
    time and peak RSS are None when the process died before reporting."""
    sidecar = os.path.join(work, "sidecar.json")
    stdout = os.path.join(work, "stdout")
    stderr = os.path.join(work, "stderr")
    cmd = [sys.executable, str(LAUNCHER)] + (["--traced"] if traced else []) + argv
    env = _child_env(sidecar)
    with suppress(FileNotFoundError):
        os.remove(sidecar)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work, env=env)
        signal.alarm(OP_TIMEOUT_S)
        try:
            proc.wait()
        except _Timeout:
            proc.kill()
            proc.wait()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        with open(sidecar) as fh:
            facts = json.load(fh)
    except (OSError, ValueError):
        facts = {}
    with open(stdout, "rb") as fh:
        output = fh.read()
    ready = facts.get("ready")
    peak = facts.get("peak_rss_kb")
    return {
        "code": proc.returncode,
        "stdout": output,
        "latency": end - start,
        "setup": (ready - start) if ready is not None else None,
        "rss_mb": peak / 1024.0 if peak is not None else None,
        "facts": facts,
    }


def run_op(op, work, traced=False):
    result = launch(op.argv, work, traced)
    try:
        report = json.loads(result["stdout"]) if result["stdout"] else None
    except ValueError:
        report = None
    try:
        problems = op.oracle(result["code"], report, op)
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems = [f"oracle could not read the output: {err!r}"]
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    result.update(label=op.label, nodes=op.nodes, problems=problems)
    del result["stdout"]
    return result


# ---------------------------------------------------------------------------
# one workload run


def _layer_totals(ops):
    """Self time, span count and counters summed over traced ops."""
    totals = defaultdict(float)
    for op in ops:
        spans = op["facts"].get("spans", [])
        for name, value in layertrace.self_times(spans).items():
            totals["self", name] += value
        for name, value in layertrace.span_calls(spans).items():
            totals["calls", name] += value
        for name, value in op["facts"].get("counts", {}).items():
            totals["count", name] += value
    return totals


def _absent_spans(ops):
    missing = set()
    for op in ops:
        missing.update(op["facts"].get("absent", []))
    absent = set()
    for name in {layer[0] for layer in layertrace.LAYERS}:
        attrs = [f"{m}.{a}" for n, m, a, _ in layertrace.LAYERS if n == name]
        if all(attr in missing for attr in attrs):
            absent.add(name)
    if "propagate.rk4" in absent:
        absent.update({"propagate.rk4.base_row", "propagate.rk4.column"})
    return sorted(missing), absent


def layer_metrics(traced_passes, untraced_passes):
    ops = [op for p in traced_passes for op in p]
    npass = len(traced_passes)
    totals = _layer_totals(ops)
    missing, absent = _absent_spans(ops)
    metrics = {}
    absent_metrics = []
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "import":
            value = statistics.median(op["facts"]["import_s"] for op in ops)
        elif kind == "overhead":
            value = (sum(op["latency"] for p in traced_passes for op in p)
                     / sum(op["latency"] for p in untraced_passes for op in p))
        elif kind == "ratio":
            drawn = totals["count", source[2]]
            value = totals["count", source[1]] / drawn if drawn else 1.0
        else:
            value = totals[kind, source[1]] / npass
            span = source[1].rsplit(".", 1)[0] if kind == "count" else source[1]
            if span in absent:
                absent_metrics.append(name)
        metrics[name] = {"value": value, "unit": unit}
    by_command = defaultdict(list)
    for op in ops:
        by_command[op["label"]].append(op)
    per_command = {}
    for command, cops in sorted(by_command.items()):
        t = _layer_totals(cops)
        per_command[command] = {
            name: t["self", name] / len(cops)
            for (kind, name) in sorted(t) if kind == "self"
        }
    info = {"absent_names": missing, "absent_metrics": absent_metrics,
            "self_s_per_op_by_command": per_command}
    return metrics, {}, info


def end_to_end_metrics(passes, setups):
    ops = [op for p in passes for op in p]
    latencies = [op["latency"] for op in ops]
    tail_value, tail_p, n = tail(latencies)
    by_command = defaultdict(list)
    for op in ops:
        by_command[op["label"]].append(op["latency"])
    command_medians = {c: statistics.median(v) for c, v in sorted(by_command.items())}
    metrics = {
        "latency_s.tail": tail_value,
        "batch_s": statistics.median(sum(op["latency"] for op in p) for p in passes),
        "command_s.geomean": geomean(command_medians.values()),
        "peak_rss_mb": max(op["rss_mb"] or 0.0 for op in ops),
        "setup_s": statistics.median(setups),
    }
    units = dict(END_TO_END)
    gated = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}
    ungated = {
        "latency_s.tail.percentile": (tail_p, "%"),
        "latency_s.samples": (n, "count"),
        "latency_s.median": (statistics.median(latencies), "s"),
        "passes": (len(passes), "count"),
        **{f"{c}_s": (v, "s") for c, v in command_medians.items()},
    }
    propagations = [op["nodes"] / op["latency"] for op in ops if op["label"] == "propagate"]
    if propagations:
        ungated["nodes_per_s"] = (statistics.median(propagations), "1/s")
    info = {"pass_s": [sum(op["latency"] for op in p) for p in passes]}
    return gated, ungated, info


def write_spans(path, traced_passes):
    """All spans of the traced passes, once, as [name, start, end, parent,
    op]: `op` numbers the traced ops of the run and `parent` indexes the
    same op's spans."""
    rows = []
    op_id = 0
    for ops in traced_passes:
        for op in ops:
            rows += [span + [op_id] for span in op["facts"].get("spans", [])]
            op_id += 1
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op"], "spans": rows}, fh)


def machine_notes(work):
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "csv_dir": os.path.relpath(work, ROOT),
        "src_lines": src_lines,
    }


def run_workload(name, seed, seconds, trace):
    factory = workloads.WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    work = str(work)
    rng = random.Random(f"{name}:{seed}")
    plan = factory(rng, work)

    setups = []
    for _ in range(PROBES):
        probe = launch(["--import-only"], work)
        if probe["code"] != 0 or probe["setup"] is None:
            raise RuntimeError("edsbt.cli does not import: "
                               + Path(work, "stderr").read_text()[-2000:])
        setups.append(probe["setup"])

    passes, traced_passes = [], []
    measured = 0.0
    while measured < seconds or not passes or (trace and not traced_passes):
        ops = [run_op(op, work) for op in plan.ops()]
        passes.append(ops)
        measured += sum(op["latency"] for op in ops)
        if trace:
            ops = [run_op(op, work, traced=True) for op in plan.ops()]
            traced_passes.append(ops)
            measured += sum(op["latency"] for op in ops)

    everything = [op for p in passes + traced_passes for op in p]
    failures = [(op["label"], op["problems"]) for op in everything if op["problems"]]
    setups += [op["setup"] for p in passes for op in p if op["setup"] is not None]
    if trace:
        metrics, ungated, info = layer_metrics(traced_passes, passes)
        write_spans(os.path.join(work, "spans.json"), traced_passes)
    else:
        metrics, ungated, info = end_to_end_metrics(passes, setups)
    ungated["fail_ratio"] = (len(failures) / len(everything), "ratio")
    info["lam"] = plan.lam
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": metrics,
        "ungated": {name: {"value": v, "unit": u} for name, (v, u) in ungated.items()},
        "info": info,
        "machine": machine_notes(work),
        "failures": failures[:20],
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


def print_result(result):
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"ops={result['attempted']}  failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{w}  {name:45s} {m['value']:.6g} {m['unit']}")
    for name, m in sorted(result["ungated"].items()):
        print(f"{w}  (ungated) {name:35s} {m['value']:.6g} {m['unit']}")
    print(f"{w}  lam: {result['info']['lam']!r}")
    absent = result["info"].get("absent_metrics")
    if absent:
        print(f"{w}  absent: {', '.join(absent)}")
    print(f"{w}  machine: {json.dumps(result['machine'], sort_keys=True)}")
    for command, problems in result["failures"]:
        print(f"{w}  FAILED {command}: {'; '.join(problems)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edsbt" / "cli.py").is_file():
        print(f"run.py: no edsbt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as err:
            print(f"run.py: {name}: {err}", file=sys.stderr)
            return 2
        print_result(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
