import json

import pytest

from waring.certify import (
    BOUND_BINARY_OPEN,
    BOUND_BINARY_RANK,
    BOUND_CONIC_PULLBACK,
    BOUND_QUARTIC_EIGHT,
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


@pytest.mark.parametrize("argv", [
    ["decompose", "x0^2*x1^2*x2^2"],   # ternary degree six has no route
    ["quartic8", "x0^5 + x2^5"],       # not a quartic
])
def test_unmet_hypothesis_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "precondition failed" in err
