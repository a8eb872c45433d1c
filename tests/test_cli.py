import json
from pathlib import Path

import pytest

from helpers import U1_PERTURBATIONS, perturb_u1
from metabelian import InternalConsistencyError, cli
from metabelian.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Exit code, stdout and stderr of one text and one --json request per
# subcommand, plus text-mode errors: the CLI's output, pinned byte for byte.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"])[:60])
def test_golden_output(capsys, case):
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_golden_covers_every_subcommand_in_text_and_json():
    requests = {(case["argv"][0], "--json" in case["argv"]) for case in GOLDEN}
    assert requests == {(name, flag) for name in cli._HANDLERS for flag in (False, True)}


def test_normal_form_round_trip(capsys):
    code, out, _ = run(capsys, "normal-form", "--n", "3", "[x3,x2,x1] + 2*x1")
    assert code == 0
    first = out.strip()
    code, out, _ = run(capsys, "normal-form", "--n", "3", first)
    assert code == 0
    assert out.strip() == first


def test_normal_form_apply_perm(capsys):
    code, out, _ = run(
        capsys, "normal-form", "--n", "2", "[x2,x1]", "--apply-perm", "(1 2)"
    )
    assert code == 0
    assert out.strip() == "-[x2,x1]"


def test_embed_and_preimage_round_trip(capsys):
    code, out, _ = run(capsys, "embed", "--n", "2", "[x2,x1,x2] - [x2,x1,x1]")
    assert code == 0
    wreath_text = out.strip()
    code, out, _ = run(capsys, "preimage", "--n", "2", wreath_text)
    assert code == 0
    assert out.strip() == "-[x2,x1,x1] + [x2,x1,x2]"


def test_embed_json_schema(capsys):
    code, out, _ = run(capsys, "embed", "--n", "2", "x1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["u"] == ["1", "0"]
    assert data["v"] == ["1", "0"]


def test_preimage_accepts_json(capsys):
    payload = json.dumps({"u": ["x2", "-x1"], "v": ["0", "0"]})
    code, out, _ = run(capsys, "preimage", "--n", "2", payload)
    assert code == 0
    assert out.strip() == "-[x2,x1]"
    payload = json.dumps({"u": ["x2 + 1", "-x1"], "v": [1, "0"]})
    code, out, _ = run(capsys, "preimage", "--n", "2", payload)
    assert code == 0
    assert out.strip() == "x1 - [x2,x1]"


@pytest.mark.parametrize(
    "payload",
    [
        '{"x": []}',
        '{"u": 5}',
        '{"u": [5, "0"]}',
        '{"u": ["x1", "0"], "v": ["abc", "0"]}',
        '{"u": ["x1", "0"], "v": ["1/0", "0"]}',
        '{"u": ["x1", "0"], "v": [0.1, 0.1]}',
        '{"u": ["x1", "0"], "v": [true, 0]}',
        '{"u": ["x1", "0"], "v": 3}',
    ],
)
def test_preimage_rejects_malformed_json_as_parse_error(capsys, payload):
    code, out, err = run(capsys, "preimage", "--n", "2", payload)
    assert code == 1
    assert out == ""
    assert err.startswith("parse error:")


def test_preimage_outside_image_is_domain_error(capsys):
    code, _, err = run(capsys, "preimage", "--n", "2", "u1*( 1 )")
    assert code == 2
    assert "residual" in err


def test_is_invariant_false_names_generator(capsys):
    code, out, _ = run(capsys, "is-invariant", "--n", "2", "[x2,x1]")
    assert code == 0
    assert out.strip() == "false, violated by (1 2)"


def test_is_invariant_true(capsys):
    code, out, _ = run(capsys, "is-invariant", "--n", "3", "x1 + x2 + x3")
    assert code == 0
    assert out.strip() == "true"


def test_reynolds_and_symmetrize(capsys):
    code, out, _ = run(capsys, "reynolds", "--n", "2", "x1")
    assert code == 0
    assert out.strip() == "1/2*x1 + 1/2*x2"
    code, out, _ = run(capsys, "symmetrize-poly", "--n", "2", "x1^2*x2")
    assert code == 0
    assert out.strip() == "1/2*x1^2*x2 + 1/2*x1*x2^2"


def test_generators_output(capsys):
    code, out, _ = run(capsys, "generators", "--n", "2")
    assert code == 0
    assert out.strip() == "h_12 = u1*( x1*x2 - x2^2 ) + u2*( -x1^2 + x1*x2 )"


def test_generator_lie_single_pair(capsys):
    code, out, _ = run(capsys, "generator-lie", "--n", "2", "--i", "1", "--j", "2")
    assert code == 0
    assert out.strip() == "f_12 = -[x2,x1,x1] + [x2,x1,x2]"


def test_decompose_golden(capsys):
    code, out, _ = run(
        capsys, "decompose", "--n", "2", "[x2,x1,x2] - [x2,x1,x1]", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["f1"] == "0"
    assert data["parts"] == [{"i": 1, "j": 2, "q": [{"a": [0, 0], "c": "1"}]}]
    assert data["verified"] is True


def test_decompose_non_invariant_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "--n", "2", "[x2,x1]")
    assert code == 2
    assert "not invariant" in err


def test_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "normal-form", "--n", "2", "[x2,x1")
    assert code == 1
    assert "position" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise InternalConsistencyError("reassembled decomposition does not match")

    monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
    code, out, err = run(capsys, "decompose", "--n", "2", "[x2,x1,x2] - [x2,x1,x1]")
    assert code == 3
    assert out == ""
    assert err == "internal error: reassembled decomposition does not match\n"


@pytest.mark.parametrize("extra", U1_PERTURBATIONS.values(), ids=U1_PERTURBATIONS)
def test_decompose_outside_the_eps_span_exits_3(capsys, monkeypatch, extra):
    perturb_u1(monkeypatch, extra)
    h12 = "[x2,x1,x2-x1] + [x3,x1,x3-x1] + [x3,x2,x3-x2]"
    code, out, err = run(capsys, "decompose", "--n", "3", h12)
    assert (code, out) == (3, "")
    assert err == "internal error: degree-3 component is outside the span of the eps_j generators\n"


def _json_error(out):
    data = json.loads(out)
    assert set(data) == {"schema", "error"} and data["schema"] == 1
    return data["error"]


def test_json_parse_error_exits_1(capsys):
    code, out, err = run(capsys, "normal-form", "--n", "2", "[x2,x1", "--json")
    assert code == 1
    assert err == "parse error: expected ']' (at position 6)\n"
    assert _json_error(out) == {"type": "ParseError", "message": "expected ']' (at position 6)"}
    code, out, err = run(capsys, "preimage", "--n", "2", '{"u": [', "--json")
    assert code == 1
    assert err.startswith("parse error: ")
    assert _json_error(out)["type"] == "JSONDecodeError"


def test_json_domain_error_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "--n", "2", "[x2,x1]", "--json")
    assert code == 2
    assert err == "error: element is not invariant: moved by (1 2)\n"
    assert _json_error(out) == {
        "type": "InvarianceError",
        "message": "element is not invariant: moved by (1 2)",
    }


def test_json_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise InternalConsistencyError("reassembled decomposition does not match")

    monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
    code, out, err = run(capsys, "decompose", "--n", "2", "[x2,x1]", "--json")
    assert code == 3
    assert err == "internal error: reassembled decomposition does not match\n"
    assert _json_error(out) == {
        "type": "InternalConsistencyError",
        "message": "reassembled decomposition does not match",
    }


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify-relations", "--n", "4")
    assert code == 0
    assert out.strip() == "all 4 relations hold"


def test_invariant_basis(capsys):
    code, out, _ = run(capsys, "invariant-basis", "--n", "2", "--max-degree", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree 1: 1 element"
    assert lines[1] == "  x1 + x2"
    assert "degree 2: 0 elements" in lines
    assert "degree 3: 1 element" in lines


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "MISMATCH" not in out
    assert "rank-2 generator" in out
    assert "variant identity" in out


def test_rank_guard():
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["generators", "--n", "1"])
    assert exc.value.code == 2
