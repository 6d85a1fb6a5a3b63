"""Tests of the benchmark itself: inputs, output checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced tests run one pass of every workload, about half a minute.
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ffhyper.hypergeo  # noqa: E402
import ffhyper.identities  # noqa: E402
from ffhyper import cli  # noqa: E402
from run import END_TO_END, PER_LAYER, layer_metrics, run_pass  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EVAL_MIX,
    WORKLOADS,
    Call,
    EvalCold,
    SweepTraces,
    VerifySweep,
    eval_queries,
)

SEED = 5

# Layers each workload must reach, from the layer table in README.md.
USES = {
    "verify-sweep": [
        "field.make_field",
        "characters.call",
        "charsums.gauss_vector",
        "charsums.jacobi_index",
        "charsums.binomial_index",
        "charsums.binomial_line",
        "hypergeo.hyper_char",
        "hypergeo.hyper_all_x",
        "hypergeo.appell_f4",
        "hypergeo.reconstruct",
        "curves.legendre_trace_table",
        "curves.clausen_trace_table",
        "curves.legendre_trace",
        "curves.clausen_trace",
        "cli.render",
        *(f"identities.{s}" for s in ffhyper.identities.STATEMENTS),
    ],
    "sweep-traces": [
        "field.make_field",
        "curves.legendre_trace_table",
        "curves.clausen_trace_table",
        "identities.estimate_sweep",
        "cli.render",
    ],
    "eval-cold": [
        "field.make_field",
        "charsums.gauss_vector",
        "charsums.jacobi_index",
        "charsums.binomial_index",
        "charsums.binomial_line",
        "hypergeo.hyper_char",
        "hypergeo.appell_f4",
        "hypergeo.reconstruct",
        "curves.legendre_trace",
        "curves.clausen_trace",
        "cli.eval",
    ],
}


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass of every workload: (workload, tracer, calls)."""
    out = {}
    for name, make in WORKLOADS.items():
        workload = make(SEED)
        tracer = Tracer()
        with tracer.installed():
            calls = run_pass(cli.run, workload)
        out[name] = (workload, tracer, calls)
    return out


def test_eval_queries_repeat_for_a_seed():
    first = eval_queries(SEED)
    assert first == eval_queries(SEED)
    assert first != eval_queries(SEED + 1)
    assert Counter(q.kind for q in first) == dict(EVAL_MIX)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_passes_its_checks(traced_passes, name):
    workload, _, calls = traced_passes[name]
    attempted, failed = workload.check(calls)
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_layer_it_uses(traced_passes, name):
    _, tracer, _ = traced_passes[name]
    calls = tracer.span_counts()
    assert [layer for layer in USES[name] if not calls.get(layer)] == []
    metrics = layer_metrics(tracer, 1)
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == set(PER_LAYER)
    for layer in USES[name]:
        if f"{layer}.calls" in metrics:
            assert metrics[f"{layer}.calls"] > 0


def test_sweep_traces_bypasses_charsums_and_hypergeo(traced_passes):
    _, tracer, _ = traced_passes["sweep-traces"]
    metrics = layer_metrics(tracer, 1)
    touched = {k: v for k, v in metrics.items() if k.startswith(("charsums.", "hypergeo.")) and v}
    assert touched == {}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_at_most_the_wall_time(traced_passes, name):
    _, tracer, calls = traced_passes[name]
    wall = sum(c.seconds for c in calls)
    self_s = tracer.self_times()
    assert all(v >= 0 for v in self_s.values())
    assert 0 < sum(self_s.values()) <= wall
    assert sum(tracer.root_times().values()) == pytest.approx(sum(self_s.values()))


def test_tracer_restores_every_wrapped_name(traced_passes):
    assert ffhyper.identities.hyper_char is ffhyper.hypergeo.hyper_char
    assert not hasattr(ffhyper.hypergeo.hyper_char, "__wrapped__")
    assert not hasattr(cli.appell_f4, "__wrapped__")
    assert not hasattr(ffhyper.charsums.SumTables.jacobi_index, "__wrapped__")


def test_tracer_wraps_imported_copies():
    tracer = Tracer()
    with tracer.installed():
        assert hasattr(ffhyper.identities.hyper_char, "__wrapped__")
        assert hasattr(cli.make_field, "__wrapped__")
        assert hasattr(ffhyper.make_field, "__wrapped__")
        cli.run(["eval", "--q", "13", "--fn", "2F1", "--x", "5"])
    assert tracer.span_counts()["hypergeo.hyper_char"] == 1
    assert tracer.span_counts()["field.make_field"] == 1


# -- the output checks count failures ---------------------------------------------


def _edited(calls, i, out, code=0):
    edited = list(calls)
    edited[i] = Call(code, out, calls[i].seconds)
    return edited


def test_verify_check_counts_failed_rows_short_counts_and_changed_bytes(traced_passes):
    _, _, calls = traced_passes["verify-sweep"]
    (out,) = [c.out for c in calls]
    failed_row = out.replace(",true\n", ",false\n", 1)
    short = "\n".join(line for i, line in enumerate(out.split("\n")) if i != 1)
    assert VerifySweep(SEED).check(_edited(calls, 0, failed_row))[1] == 1
    assert VerifySweep(SEED).check(_edited(calls, 0, short))[1] == 1
    assert VerifySweep(SEED).check(_edited(calls, 0, out, code=1))[1] == 1
    workload = VerifySweep(SEED)
    assert workload.check(calls)[1] == 0
    assert workload.check(_edited(calls, 0, out + "\n"))[1] == 1


def test_sweep_check_counts_failed_rows(traced_passes):
    _, _, calls = traced_passes["sweep-traces"]
    assert SweepTraces(SEED).check(_edited(calls, 0, calls[0].out.replace(",True\n", ",False\n", 2)))[1] == 2


def _shift_exact(out):
    """The exact value one unit of its denominator off, its float to match."""
    m = re.match(r"(\S+) = (-?\d+)/(\d+)\^(\d+) = \S+\n", out)
    if m is None:
        return None
    num, q, k = int(m[2]) + 1, int(m[3]), int(m[4])
    return f"{m[1]} = {num}/{q}^{k} = {num / q**k!r}\n" + out[m.end() :]


def _shift_count(out):
    head, _, count = out.partition("count = ")
    n, _, tail = count.partition("\n")
    return f"{head}count = {int(n) + 1}\n{tail}"


@pytest.mark.parametrize(
    "kind, edit", [("2F1", _shift_exact), ("3F2", _shift_exact), ("trace-clausen", _shift_count)]
)
def test_eval_check_catches_a_wrong_value(traced_passes, kind, edit):
    workload, _, calls = traced_passes["eval-cold"]
    i, wrong = next(
        (i, edit(c.out))
        for i, (q, c) in enumerate(zip(workload.queries, calls))
        if q.kind == kind and edit(c.out)
    )
    assert EvalCold(SEED).check(_edited(calls, i, wrong)) == (len(calls), 1)
