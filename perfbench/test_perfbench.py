"""Tests of the benchmark's own machinery: trace, outcome accounting, checks."""

import json
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import waring  # noqa: E402
from waring import Decomposition, RetryExhausted, Term, random_form  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402

TOY_SOURCE = """
import time

def spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass

def inner():
    spin(0.02)

def outer():
    spin(0.01)
    inner()
    inner()
"""


def _toy_module():
    toy = types.ModuleType("toy")
    exec(TOY_SOURCE, toy.__dict__)
    return toy


def test_self_times_sum_to_parent_span():
    toy = _toy_module()
    trace = LayerTrace([("toy", toy, "outer"), ("toy", toy, "inner")], [toy])
    start = time.thread_time()
    with trace.active():
        toy.outer()
    cpu = time.thread_time() - start
    assert trace.calls("toy.outer") == 1 and trace.calls("toy.inner") == 2
    span = trace.total_s("toy.outer")
    assert abs(trace.self_s("toy.outer") + trace.self_s("toy.inner") - span) < 1e-9
    assert trace.self_s("toy.inner") >= 0.04
    assert 0.01 <= trace.self_s("toy.outer") < 0.04
    assert span <= cpu
    assert trace.layer_self_s() == {"toy": trace.self_s("toy.outer") + trace.self_s("toy.inner")}


def _bindings():
    """Every attribute of every waring module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "waring" or name.startswith("waring."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_originals_restored_after_traced_run():
    before = _bindings()
    trace = run.make_trace()
    case = workloads.binary_cases(0)[0]
    original = before[("waring.forms", "Form", "__post_init__")]
    with trace.active():
        assert waring.forms.Form.__dict__["__post_init__"] is not original
        op = workloads.attempt(workloads.binary_op, case)
    assert op.outcome == "valid"
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    calls = trace.calls("binary.decompose_binary")
    assert calls == 1 and trace.calls("forms.Form.__post_init__") > 0
    workloads.attempt(workloads.binary_op, case)
    assert trace.calls("binary.decompose_binary") == calls


def test_bare_value_error_is_crash_and_waring_error_is_not():
    case = workloads.binary_cases(0)[0]

    def nan_chain(_):
        raise ValueError("cannot convert NaN to integer ratio")

    def refusing_chain(_):
        raise RetryExhausted("no squarefree member")

    crash = workloads.attempt(nan_chain, case)
    assert crash.outcome == "crash:ValueError"
    assert crash.failed and crash.breach
    refused = workloads.attempt(refusing_chain, case)
    assert refused.outcome == "waring_error:RetryExhausted"
    assert refused.failed and not refused.breach


def test_independent_check_rejects_a_perturbed_decomposition():
    case = workloads.Case("binary", random_form(2, 7, 3), cap=7)
    cert = workloads.binary_op(case)
    assert cert.valid and workloads.agrees(case, cert)
    dec = cert.decomposition
    bent = Decomposition(2, 7, (Term(dec.terms[0].coeff * 1.001, dec.terms[0].point),)
                         + dec.terms[1:])
    assert not workloads.agrees(case, types.SimpleNamespace(decomposition=bent))


def test_replay_corpus_survives_the_trip_from_the_set_up_process():
    # setupprobe.py sends the corpus as JSON; replay_cases takes it back by label
    chain, source = workloads.replay_sources(0)[0]
    case = source[0]
    op = workloads.attempt(chain, case)
    corpus = json.loads(json.dumps({case.label: (op.text, op.outcome == "valid")}))
    (replayed,) = workloads.replay_cases(0, corpus)
    assert replayed.stored == op.text and replayed.stored_valid
    again = workloads.attempt(workloads.replay_op, replayed)
    assert again.outcome == "valid" and not again.failed


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
