"""The benchmark's own tests: seeded inputs, the correctness gate, the
closed-form Hilbert function and the instrumentation.

    python3 -m pytest -q bench/tests
"""

import json
from pathlib import Path

import pytest

import checks
import hostspeed
import inputs
import run
import spans
import worker
from metabelian import normal_form, parse_lie_expr, reynolds_lie

REFERENCE = checks.load_reference()
ACCEPTED = {
    cell: sorted(int(k) for k in REFERENCE["decompose"][inputs.cell_key(cell)])
    for cell in inputs.CELLS
}


def _decompose_texts(seed):
    plan = inputs.decompose_plan(seed, ACCEPTED)
    return {cell: [inputs.decompose_element_text(*cell, k) for k in ks] for cell, ks in plan.items()}


def test_same_seed_gives_identical_inputs_and_hashes():
    assert _decompose_texts(7) == _decompose_texts(7)
    assert inputs.cli_round(7, 2) == inputs.cli_round(7, 2)
    assert inputs.generator_order(7, 1) == inputs.generator_order(7, 1)
    cell = (3, 9)
    key = inputs.cell_key(cell)
    for k in inputs.decompose_plan(7, ACCEPTED)[cell][:3]:
        f = normal_form(parse_lie_expr(inputs.decompose_element_text(*cell, k), 3), 3)
        first = checks.digest(reynolds_lie(f).to_text())
        assert first == checks.digest(reynolds_lie(f).to_text()) == REFERENCE["decompose"][key][str(k)]


def test_different_seed_gives_different_inputs():
    assert _decompose_texts(1) != _decompose_texts(2)
    assert inputs.cli_round(1, 0) != inputs.cli_round(2, 0)
    assert inputs.generator_order(1, 0) != inputs.generator_order(2, 0)


def test_every_hashed_request_has_a_reference_hash():
    semantic = {*inputs.ERROR_CONTRACT, "decompose", "invariant-basis"}
    for r in range(4):
        for kind, k, _argv in inputs.cli_round(3, r):
            if kind not in semantic:
                expected = REFERENCE["cli"][kind]
                assert len(expected if k is None else expected[str(k)]) == 64


def _replay(kind, k, argv):
    return worker.CliInProcess.op((kind, k, argv))[1:]


def test_wrong_cli_output_is_a_failure():
    argv = inputs.cli_variant("normal-form", 0)
    code, out, err = _replay("normal-form", 0, argv)
    assert checks.check_cli("normal-form", 0, argv, code, out, err, REFERENCE) is None
    assert checks.check_cli("normal-form", 0, argv, code, out + "x", err, REFERENCE)
    assert checks.check_cli("normal-form", 0, argv, 2, out, err, REFERENCE)


def test_wrong_exit_code_or_stderr_is_a_failure():
    argv = inputs.cli_variant("parse-error", 1)
    code, out, err = _replay("parse-error", 1, argv)
    assert (code, checks.check_cli("parse-error", 1, argv, code, out, err, REFERENCE)) == (1, None)
    assert checks.check_cli("parse-error", 1, argv, 2, out, err, REFERENCE)
    assert checks.check_cli("parse-error", 1, argv, 1, out, "error: " + err, REFERENCE)


def test_semantic_checks_reject_wrong_meaning():
    argv = inputs.FIXED_REQUESTS["invariant-basis"]
    good = "".join(
        f"degree {d}: {inputs.hilbert_function(4, d)} elements\n" for d in range(1, 7)
    )
    assert checks.check_cli("invariant-basis", None, argv, 0, good, "", REFERENCE) is None
    bad = good.replace("degree 6: 7", "degree 6: 6")
    assert checks.check_cli("invariant-basis", None, argv, 0, bad, "", REFERENCE)
    argv = inputs.cli_variant("decompose", 0)
    assert checks.check_cli("decompose", 0, argv, 0, "verified: false\n", "", REFERENCE)
    assert checks.check_cli("decompose", 0, ["decompose", "--json"], 0,
                            json.dumps({"verified": True}), "", REFERENCE) is None


def test_injected_wrong_decomposition_is_a_failure():
    f = normal_form(parse_lie_expr(inputs.decompose_element_text(3, 9, 0), 3), 3)
    averaged, dec = worker.Decompose.op(f)
    expected = REFERENCE["decompose"]["n3d9"]["0"]
    assert worker.Decompose.check((averaged, dec), expected) is None
    assert worker.Decompose.check((averaged * 2, dec), expected)
    assert worker.Decompose.check((averaged, dec), "0" * 64)


def test_failures_are_counted_not_dropped():
    record = {"ops": [["a", 0.1, 0.05, None], ["b", 0.3, 0.15, "wrong"]], "setups": [[1.0, 0.5]]}
    values, failed = run.end_to_end("cli", record)
    assert failed == 1
    assert values["ok_ratio"] == 0.5
    assert values["ops_per_s"] == pytest.approx(1 / 0.2)
    assert values["setup_s"] == 0.5
    raw, _ = run.end_to_end("cli", record, scaled=False)
    assert (raw["ops_per_s"], raw["setup_s"]) == (pytest.approx(1 / 0.4), 1.0)


def test_host_speed_scaling():
    assert hostspeed.scale(2.0, hostspeed.REFERENCE_MS, hostspeed.REFERENCE_MS) == 2.0
    assert hostspeed.scale(2.0, 2 * hostspeed.REFERENCE_MS, 2 * hostspeed.REFERENCE_MS) == 1.0
    assert hostspeed.sample_ms() > 0


def test_hilbert_function_at_rank_4():
    assert [inputs.hilbert_function(4, d) for d in range(1, 7)] == [1, 0, 1, 2, 5, 7]


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 21)]
    assert run.nearest_rank(values, 50) == 10.0
    assert run.nearest_rank(values, 60) == 12.0
    assert run.nearest_rank(values, 100) == 20.0


def test_spans_count_exactly_and_uninstall_cleanly():
    import metabelian

    original = metabelian.reynolds_lie
    f = normal_form(parse_lie_expr("[x2,x1,x3] + 2*[x4,x1,x2]", 4), 4)
    results = []
    for _ in range(2):
        recorder = spans.SpanRecorder()
        recorder.install()
        recorder.on = True
        metabelian.reynolds_lie(f)
        recorder.on = False
        recorder.uninstall()
        results.append(recorder.metrics())
    assert metabelian.reynolds_lie is original
    counts = [{k: v for k, v in m.items() if not k.endswith(".s")} for m in results]
    assert counts[0] == counts[1]
    assert results[0]["permutations.enumerate_sn.perms"] == 24
    assert results[0]["lie.apply_perm_lie.calls"] == 24
    assert results[0]["invariants.reynolds_lie.calls"] == 1


def test_benchmark_json_matches_run_py():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.TIMED)
