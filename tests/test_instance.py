import base64
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evcover.datasets import generate_small_instance
from evcover.exact import random_feasible_solution
from evcover.instance import (Instance, InstanceError, SolutionX, instance_from_json,
                              instance_to_json, load_instance, period_costs, save_instance,
                              validate_solution)

from conftest import manual_instance


def test_solution_cost_zero_solution():
    inst = manual_instance()
    assert period_costs(inst, SolutionX.zeros(inst).levels).tolist() == [0.0]


def test_solution_cost_open_to_six_outlets():
    # first outlet 150, each further 50: 150 + 5*50 = 400
    inst = manual_instance(max_outlets=6, budget=400.0)
    x = SolutionX.from_levels(np.array([[6]]), 6)
    assert period_costs(inst, x.levels)[0] == pytest.approx(400.0)


def test_solution_cost_matches_term_by_term_oracle():
    rng = np.random.default_rng(4)
    inst = generate_small_instance(13, n_stations=3, horizon=2)
    for _ in range(25):
        x = random_feasible_solution(inst, rng)
        levels = x.levels
        costs = period_costs(inst, levels)
        for t in range(1, inst.horizon + 1):
            total = 0.0
            for j in range(inst.n_stations):
                prev = inst.initial_levels[j] if t == 1 else levels[j, t - 2]
                for k in range(prev + 1, levels[j, t - 1] + 1):
                    total += inst.cost_budget.outlet_cost[j, k - 1, t - 1]
            assert costs[t - 1] == pytest.approx(total)


def test_solution_cost_rejects_ladder_violation():
    inst = manual_instance(max_outlets=2)
    bad = SolutionX(np.array([[[0], [1]]], dtype=np.int8))  # k=2 without k=1
    with pytest.raises(InstanceError, match="ladder"):
        period_costs(inst, bad.levels)


def test_validate_zero_solution_feasible():
    inst = manual_instance()
    report = validate_solution(inst, SolutionX.zeros(inst))
    assert report.ok and report.summary() == "feasible"


def test_validate_flags_ladder_violation_with_indices():
    inst = manual_instance(max_outlets=2)
    bad = SolutionX(np.array([[[0], [1]]], dtype=np.int8))
    report = validate_solution(inst, bad)
    assert (1, 2, 1) in report.ladder_violations


def test_validate_flags_persistence_violation():
    inst = manual_instance(max_outlets=2, horizon=2)
    levels = np.array([[1, 0]])  # outlet removed between periods
    report = validate_solution(inst, SolutionX.from_levels(levels, 2))
    assert (1, 1, 2) in report.persistence_violations


def test_validate_flags_budget_violation():
    inst = manual_instance(max_outlets=6, budget=300.0)
    x = SolutionX.from_levels(np.array([[6]]), 6)
    report = validate_solution(inst, x)
    assert report.budget_violations and report.budget_violations[0][0] == 1


def test_round_trip_is_byte_identical(tmp_path):
    inst = generate_small_instance(3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_to_json(loaded) == instance_to_json(inst)
    # structural equality of the error tensor survives
    for a, b in zip(inst.error_tensor, loaded.error_tensor):
        np.testing.assert_array_equal(a, b)


# edge values every bit of which must survive: signed zero, the smallest and
# largest subnormals, the smallest normal and the largest finite magnitudes
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                np.finfo(float).max, -np.finfo(float).max)


@st.composite
def _error_tensors(draw):
    shape = (1 + draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    elements = st.one_of(st.sampled_from(_EDGE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@settings(max_examples=60, deadline=None)
@given(_error_tensors())
def test_v3_round_trip_keeps_every_error_bit(eps):
    inst = manual_instance(n_stations=eps.shape[0] - 1, scenarios=eps.shape[1],
                           horizon=eps.shape[2], eps=eps)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save_instance(inst, path)
        with open(path, "rb") as fh:
            head, tail = fh.readline(), fh.read()
        loaded = load_instance(path)
    assert json.loads(head.decode("utf-8"))["schema"] == "evcover-instance-v3"
    assert len(tail) == 8 * eps.size
    assert tail == eps.astype("<f8").tobytes()  # row-major (alternative, scenario, period)
    assert instance_to_json(loaded) == instance_to_json(inst)
    (got,) = loaded.error_tensor
    assert got.shape == eps.shape
    assert np.array_equal(got.view(np.uint64), eps.view(np.uint64))


def _v3_parts(tmp_path):
    """The header line (with its newline) and the tensor bytes of a one-class v3 file."""
    path = tmp_path / "inst.json"
    save_instance(manual_instance(n_stations=2, scenarios=3, horizon=2), path)
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    return data[:cut], data[cut:]


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda head, tail: head + tail[:-1], "1 bytes short of its error tensor",
                 id="tail-a-byte-short"),
    pytest.param(lambda head, tail: head + tail[:8], "136 bytes short", id="one-value-of-18"),
    pytest.param(lambda head, tail: head + tail + b"\0", "bytes follow the last error tensor",
                 id="a-byte-after-the-tail"),
    pytest.param(lambda head, tail: head, "144 bytes short", id="header-line-only"),
    pytest.param(lambda head, tail: head[:-1], "144 bytes short", id="header-without-newline"),
    pytest.param(lambda head, tail: head[: len(head) // 2], "Unterminated string|Expecting",
                 id="half-a-header"),
])
def test_v3_file_that_is_cut_or_padded_is_malformed(tmp_path, edit, message):
    head, tail = _v3_parts(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(edit(head, tail))
    with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: malformed instance file: "
                                            f".*(?:{message})"):
        load_instance(path)


def test_v3_header_that_is_not_utf8_is_refused(tmp_path):
    head, tail = _v3_parts(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(head[:20] + b"\xff\xfe" + head[20:] + tail)
    with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_instance(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_v3_refuses_non_finite_errors(tmp_path, bad):
    head, _ = _v3_parts(tmp_path)
    values = np.zeros(3 * 3 * 2)
    values[7] = bad
    path = tmp_path / "bad.json"
    path.write_bytes(head + values.astype("<f8").tobytes())
    with pytest.raises(InstanceError, match="non-finite"):
        load_instance(path)


def test_instance_from_json_refuses_a_v3_header(tmp_path):
    head, _ = _v3_parts(tmp_path)
    with pytest.raises(InstanceError, match="evcover-instance-v3 header without its error "
                                            "tensors: load the file with load_instance"):
        instance_from_json(head.decode("utf-8"))


def _doc_with_errors(payload):
    """A v2 document of a one-class instance whose errors field is `payload`."""
    doc = json.loads(instance_to_json(manual_instance(n_stations=2, scenarios=3, horizon=2)))
    doc["classes"][0]["errors"] = payload
    return json.dumps(doc)


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_v2_refuses_non_finite_errors(bad):
    values = np.zeros(3 * 3 * 2)
    values[7] = bad
    with pytest.raises(InstanceError, match="non-finite"):
        instance_from_json(_doc_with_errors(_b64(values)))


@pytest.mark.parametrize("payload, message", [
    (_b64(np.zeros(9)) + "*" + _b64(np.zeros(9)), "base64"),  # a character outside the alphabet
    ("AAAAAAAAAAA", "base64"),                        # bad padding
    (np.zeros(18).tolist(), "base64"),                # a v1 list under the v2 schema
    (base64.b64encode(bytes(12)).decode(), "multiple of 8"),
    (_b64(np.zeros(17)), "17 values, expected 3x3x2 = 18"),
    (_b64(np.zeros(19)), "19 values"),
])
def test_v2_refuses_malformed_errors(payload, message):
    with pytest.raises(InstanceError, match=message):
        instance_from_json(_doc_with_errors(payload))


def _assert_loads_as_small_instance_3(name, schema):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["schema"] == schema
    loaded, fresh = load_instance(path), generate_small_instance(3)
    for a, b in zip(loaded.error_tensor, fresh.error_tensor, strict=True):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert instance_to_json(loaded) == instance_to_json(fresh)


def test_v1_file_loads_to_the_same_instance():
    # written by the v1 writer from generate_small_instance(3)
    _assert_loads_as_small_instance_3("instance_v1.json", "evcover-instance-v1")


def test_v2_file_loads_to_the_same_instance():
    # written by the v2 writer (one JSON document, base64 errors) from generate_small_instance(3)
    _assert_loads_as_small_instance_3("instance_v2.json", "evcover-instance-v2")


def test_a_document_over_many_lines_is_parsed_whole(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "data", "instance_v2.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(doc, indent=1))
    assert instance_to_json(load_instance(path)) == instance_to_json(generate_small_instance(3))
    path.write_text(json.dumps(doc) + "\n" + json.dumps(doc))
    with pytest.raises(InstanceError, match="malformed instance file: Extra data"):
        load_instance(path)


def test_load_rejects_negative_beta(tmp_path):
    inst = generate_small_instance(3)
    doc = json.loads(instance_to_json(inst))
    doc["classes"][0]["beta"][1][0][0] = -0.5
    with pytest.raises(InstanceError, match="non-negative"):
        instance_from_json(json.dumps(doc))


def test_load_rejects_truncated_file():
    inst = generate_small_instance(3)
    text = instance_to_json(inst)
    with pytest.raises(InstanceError, match="malformed"):
        instance_from_json(text[: len(text) // 2])


def _set_kappa(doc):
    doc["classes"][0]["kappa"] = "x"


def _add_station_key(doc):
    doc["stations"][0]["colour"] = "red"


def _set_classes(doc):
    doc["classes"] = 5


@pytest.mark.parametrize("edit", [_set_kappa, _add_station_key, _set_classes])
def test_malformed_field_is_an_instance_error(edit):
    doc = json.loads(instance_to_json(generate_small_instance(3)))
    edit(doc)
    with pytest.raises(InstanceError, match="malformed instance file"):
        instance_from_json(json.dumps(doc))


def test_load_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: schema mismatch"):
        load_instance(path)


def test_load_rejects_schema_mismatch():
    with pytest.raises(InstanceError, match="schema"):
        instance_from_json(json.dumps({"schema": "something-else"}))


def test_total_outlets_nondecreasing_under_persistence():
    rng = np.random.default_rng(11)
    inst = generate_small_instance(17, horizon=2)
    for _ in range(20):
        x = random_feasible_solution(inst, rng)
        levels = x.levels
        assert (np.diff(levels, axis=1) >= 0).all()


def test_feasible_solution_cost_within_budget():
    rng = np.random.default_rng(2)
    inst = generate_small_instance(19, horizon=2)
    for _ in range(20):
        x = random_feasible_solution(inst, rng)
        assert (period_costs(inst, x.levels) <= inst.cost_budget.budgets + 1e-9).all()


def test_simple_kind_instance_round_trip(tmp_path):
    from evcover.datasets import DatasetSpec, generate_dataset
    from evcover.network import generate_network
    net = generate_network(12, seed=6)
    inst = generate_dataset(DatasetSpec("Simple", net, instance_count=1, base_seed=6))[0]
    path = tmp_path / "simple.json"
    save_instance(inst, path)
    assert instance_to_json(load_instance(path)) == instance_to_json(inst)
