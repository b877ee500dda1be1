import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import waring_launcher

from waring.certify import (
    BOUND_BINARY_OPEN,
    BOUND_BINARY_RANK,
    BOUND_CONIC_PULLBACK,
    BOUND_ODD_SPLIT,
    BOUND_QUARTIC_EIGHT,
    BOUND_WITNESS_CLAIM,
)
from waring.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_RETRY, EXIT_USAGE, main
from waring.forms import form_to_string, random_form


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def avoid_file(tmp_path, *generators):
    path = tmp_path / "avoid.txt"
    path.write_text("# avoided set\n" + "\n".join(generators) + "\n", encoding="utf-8")
    return str(path)


def certificate(out):
    payload = json.loads(out)
    assert all(c["pass"] for c in payload["checks"])
    return payload


def test_decompose_binary_prints_a_valid_certificate(capsys):
    code, out, _ = run(capsys, "decompose", "x0^3 + x1^3")
    assert code == EXIT_OK
    payload = certificate(out)
    assert (payload["n"], payload["d"]) == (2, 3)
    assert payload["bound"] == {"value": 2, "source_tag": BOUND_BINARY_RANK}
    assert len(payload["terms"]) == 2
    assert payload["avoidance"] is None


def test_decompose_meets_a_tolerance_below_the_default(capsys):
    form = form_to_string(random_form(2, 28, 0))
    code, out, _ = run(capsys, "decompose", form, "--tol", "1e-15")
    assert code == EXIT_OK
    certificate(out)


def test_decompose_avoid_binary(capsys, tmp_path):
    path = avoid_file(tmp_path, "x0 - x1")
    code, out, _ = run(capsys, "decompose-avoid", "x0^3 + x1^3", "--avoid", path)
    assert code == EXIT_OK
    payload = certificate(out)
    assert payload["bound"]["source_tag"] == BOUND_BINARY_OPEN
    assert payload["avoidance"]["generators"] == ["x0-x1"]


def test_quartic8_with_avoid_file(capsys, tmp_path):
    path = avoid_file(tmp_path, "x0 + x1 + x2")
    code, out, _ = run(capsys, "quartic8", "x0^4 + x1^4 + x2^4 + x0*x1*x2^2",
                       "--avoid", path)
    assert code == EXIT_OK
    payload = certificate(out)
    assert (payload["n"], payload["d"]) == (3, 4)
    assert payload["bound"] == {"value": 8, "source_tag": BOUND_QUARTIC_EIGHT}
    assert payload["avoidance"]["generators"] == ["x0+x1+x2"]


def test_quartic8_power_route_spends_the_retry_budget(capsys, tmp_path):
    path = avoid_file(tmp_path, "x1")
    code, out, _ = run(capsys, "quartic8", "x0^4", "--avoid", path, "--retries", "0")
    assert code == EXIT_RETRY
    assert out == ""


def test_quartic8_reads_its_input_in_three_variables(capsys):
    code, out, _ = run(capsys, "quartic8", "x0^4")
    assert code == EXIT_OK
    payload = certificate(out)
    assert (payload["n"], payload["d"]) == (3, 4)
    assert len(payload["terms"]) == 1


def test_brk3_with_avoid_file(capsys, tmp_path):
    path = avoid_file(tmp_path, "x0 - 2*x1")
    code, out, _ = run(capsys, "brk3", "x0^4 + x1^4 + x2^4", "--avoid", path)
    assert code == EXIT_OK
    payload = certificate(out)
    assert payload["bound"] == {"value": 7, "source_tag": BOUND_CONIC_PULLBACK}
    assert len(payload["terms"]) <= 7
    assert payload["avoidance"]["generators"] == ["x0-2*x1"]


def test_brk3_spends_retries_as_its_conic_budget(capsys):
    code, out, err = run(capsys, "brk3", "x0^4 + x1^4 + x2^4", "--retries", "0")
    assert code == EXIT_RETRY
    assert out == ""
    assert "0 conics tried" in err


def test_brk3_without_a_smooth_apolar_conic_exits_3(capsys):
    # every conic apolar to this quartic in two essential variables is singular
    form = "x0^4 + 2*x0^3*x1 + x1^4 + 5*x0*x1^3 + 3*x0^2*x1^2"
    code, out, err = run(capsys, "brk3", form)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "singular" in err


def test_verify_replays_what_decompose_printed(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x0^5 - 3*x0^2*x1^3 + x1^5")
    assert code == EXIT_OK
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, again, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert again == out


def test_verify_of_a_tampered_certificate_exits_2(capsys, tmp_path):
    _, out, _ = run(capsys, "decompose", "x0^3 + x1^3")
    payload = json.loads(out)
    payload["input"] = "x0^3+2*x1^3"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, again, _ = run(capsys, "verify", str(path))
    assert code == EXIT_RETRY
    assert not all(c["pass"] for c in json.loads(again)["checks"])


@pytest.mark.parametrize("term, field, value", [
    (0, None, {}),                 # a term without its coefficient and point
    (0, "coeff", [1, 0]),          # a zero denominator
    (None, "n", "two"),            # a variable count that is no integer
    (0, "point", [[0, 1], [0, 1]]),  # a point of zeros
    (0, "point", [[1, 1]]),        # a point of the wrong length
    (None, "n", float("inf")),     # a variable count no integer can hold
    (None, "seed", 1e400),         # a seed that overflows to infinity
])
def test_verify_of_a_malformed_certificate_exits_1(capsys, monkeypatch, term, field, value):
    _, out, _ = run(capsys, "decompose", "x0^3 + x1^3")
    payload = json.loads(out)
    if term is None:
        payload[field] = value
    elif field is None:
        payload["terms"][term] = value
    else:
        payload["terms"][term][field] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, again, err = run(capsys, "verify", "-")
    assert code == EXIT_USAGE
    assert again == ""
    assert err.startswith("input error:")


def test_scalar_rank_prints_the_rank(capsys):
    code, out, _ = run(capsys, "rank", "x0^3 + x1^3")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 2


def test_bound_prints_the_general_bound(capsys):
    code, out, _ = run(capsys, "bound", "3", "4")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 8


def test_witness_prints_its_catalecticant_ranks(capsys):
    code, out, _ = run(capsys, "witness")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cat_ranks"] == [[1, 3], [2, 4], [3, 3]]
    assert payload["essential_variables"] == 3
    assert payload["bound"] == {"value": 8, "source_tag": BOUND_WITNESS_CLAIM}


def test_witness_with_non_numeric_weights_exits_1(capsys):
    code, out, err = run(capsys, "witness", "a,b,c,d")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("form, bound", [
    ("x0^4 + x1^4 + x2^4 + x0*x1*x2^2", {"value": 8, "source_tag": BOUND_QUARTIC_EIGHT}),
    ("x0^5+x1^5+x2^5+x0*x1*x2^3", {"value": 12, "source_tag": BOUND_ODD_SPLIT}),
])
def test_decompose_routes_ternary_forms_by_shape(capsys, form, bound):
    code, out, _ = run(capsys, "decompose", form)
    assert code == EXIT_OK
    payload = certificate(out)
    assert (payload["n"], payload["bound"]) == (3, bound)
    assert len(payload["terms"]) <= bound["value"]


@pytest.mark.parametrize("argv", [
    ["decompose", "x0^2 +* x1"],   # malformed form
    ["decompose"],                 # missing argument
    ["no-such-command", "x0"],
    ["quartic8", "x0^4 + x3^4"],   # quartic8 reads three variables only
])
def test_bad_input_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err


def test_exhausted_search_exits_2(capsys, tmp_path):
    path = avoid_file(tmp_path, "x0 - x1")
    code, out, err = run(capsys, "decompose-avoid", "x0^3 + x1^3", "--avoid", path,
                         "--retries", "0")
    assert code == EXIT_RETRY
    assert out == ""
    assert "search budget exhausted" in err
    # the diagnostics follow as one line of sorted-key JSON
    line = err.splitlines()[-1]
    assert line.startswith("diagnostics: ")
    diag = json.loads(line.removeprefix("diagnostics: "))
    assert line == "diagnostics: " + json.dumps(diag, sort_keys=True)
    assert {"stage", "rejects", "best_residual"} <= set(diag)


@pytest.mark.parametrize("argv", [
    ["decompose", "x0^2*x1^2*x2^2"],   # ternary degree six has no route
    ["quartic8", "x0^5 + x2^5"],       # not a quartic
])
def test_unmet_hypothesis_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "precondition failed" in err


# In a fresh interpreter, record the BLAS thread variables at the moment
# numpy is first imported, then run the console command (or import the
# library alone).
WATCH_NUMPY = """
import importlib.abc, json, os, sys
seen = {}

class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in %r)

sys.meta_path.insert(0, Watch())
if sys.argv[1] == "command":
    import waring_launcher
    code = waring_launcher.main(["decompose", "x0^3 + x1^3"])
else:
    import waring
    code = 0
print(json.dumps({"code": code, "seen": seen}))
""" % (waring_launcher.BLAS_THREAD_VARS,)


def numpy_sees(entry, preset):
    env = {k: v for k, v in os.environ.items() if k not in waring_launcher.BLAS_THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(waring_launcher.__file__).parent), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", WATCH_NUMPY, entry], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["code"] == EXIT_OK
    return report["seen"]


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"}])
def test_console_command_loads_numpy_on_one_blas_thread(preset):
    # unset variables read 1 when numpy loads; values the caller set are kept
    assert numpy_sees("command", preset) == {
        var: preset.get(var, "1") for var in waring_launcher.BLAS_THREAD_VARS}


def test_library_sets_no_blas_thread_count():
    assert numpy_sees("library", {}) == dict.fromkeys(waring_launcher.BLAS_THREAD_VARS)
