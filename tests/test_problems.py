"""Tests for problem-file parsing and validation."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perturbreg import DegenerateGram, ProblemFormatError
from perturbreg.problems import load_problem, parse_rule, validate_problem
from perturbreg.solve import PowerDelta, SqrtDelta

# The JSON schema problem files were once validated against. It is kept here
# as the reference the built-in validator is compared with.
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_VECTOR_LIST = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["rhs", "stabilizer", "delta"],
    "properties": {
        "matrix": _MATRIX,
        "operator": {"const": "volterra"},
        "interval": {
            "type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"},
        },
        "rhs": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "stabilizer": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "scalar_alpha": {"type": "object", "additionalProperties": False},
                "finite_dim": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["phis", "psis"],
                    "properties": {
                        "phis": _VECTOR_LIST,
                        "psis": _VECTOR_LIST,
                        "gammas": _VECTOR_LIST,
                        "zs": _VECTOR_LIST,
                    },
                },
            },
        },
        "delta": {"type": "number", "minimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "rule": {"type": "string", "pattern": "^(sqrt|power:.+)$"},
        "q_max": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "exact_solution": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "exact_matrix": {"anyOf": [{"const": "volterra"}, _MATRIX]},
    },
}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def scalar_problem(**overrides):
    base = {
        "matrix": [[2.0, 0.0], [0.0, 1.0]],
        "rhs": [1.0, 1.0],
        "stabilizer": {"scalar_alpha": {}},
        "delta": 0.01,
        "alpha": 0.1,
    }
    base.update(overrides)
    return base


class TestParseRule:
    def test_sqrt(self):
        assert isinstance(parse_rule("sqrt"), SqrtDelta)

    def test_power(self):
        rule = parse_rule("power:0.25")
        assert isinstance(rule, PowerDelta)
        assert rule.p == 0.25

    def test_rejects_garbage(self):
        with pytest.raises(ProblemFormatError):
            parse_rule("power:abc")
        with pytest.raises(ProblemFormatError):
            parse_rule("power:1.5")
        with pytest.raises(ProblemFormatError):
            parse_rule("discrepancy")


class TestLoadScalarProblems:
    def test_minimal_dense_problem(self, tmp_path):
        p = load_problem(write_problem(tmp_path, scalar_problem()))
        np.testing.assert_array_equal(p.operator.as_matrix(), [[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(p.rhs, [1.0, 1.0])
        assert p.delta == 0.01
        assert p.alpha == 0.1
        assert p.rule is None
        assert p.basis is None
        assert p.q_max == 0.5  # default

    def test_volterra_problem_with_interval(self, tmp_path):
        payload = {
            "operator": "volterra",
            "interval": [0.0, 3.0],
            "rhs": [0.0] * 16,
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "rule": "sqrt",
        }
        p = load_problem(write_problem(tmp_path, payload))
        assert p.operator.is_volterra
        assert (p.operator.a, p.operator.b, p.operator.n) == (0.0, 3.0, 16)
        assert isinstance(p.rule, SqrtDelta)

    def test_interval_defaults_to_unit(self, tmp_path):
        payload = {
            "operator": "volterra",
            "rhs": [0.0, 0.0, 0.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.5,
        }
        p = load_problem(write_problem(tmp_path, payload))
        assert (p.operator.a, p.operator.b) == (0.0, 1.0)

    def test_exact_problem_attachments(self, tmp_path):
        payload = scalar_problem(
            exact_solution=[0.5, 1.0],
            exact_matrix=[[2.0, 0.0], [0.0, 1.0]],
        )
        p = load_problem(write_problem(tmp_path, payload))
        np.testing.assert_array_equal(p.exact_solution, [0.5, 1.0])
        np.testing.assert_array_equal(p.exact_operator.as_matrix(),
                                      [[2.0, 0.0], [0.0, 1.0]])

    def test_exact_matrix_may_name_the_integral_operator(self, tmp_path):
        payload = {
            "operator": "volterra",
            "rhs": [0.0, 0.0, 0.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.5,
            "exact_matrix": "volterra",
        }
        p = load_problem(write_problem(tmp_path, payload))
        assert p.exact_operator.is_volterra


class TestLoadFiniteDimProblems:
    def test_basis_is_built(self, tmp_path):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0]]}},
            "delta": 0.0,
        }
        p = load_problem(write_problem(tmp_path, payload))
        assert p.basis is not None
        assert p.basis.rank == 1
        assert p.alpha is None and p.rule is None

    def test_vector_length_mismatch(self, tmp_path):
        payload = {
            "matrix": [[0.0, 0.0], [0.0, 1.0]],
            "rhs": [0.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0]]}},
            "delta": 0.0,
        }
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, payload))

    @pytest.mark.parametrize("extra", [{"alpha": 0.1}, {"rule": "sqrt"},
                                       {"alpha": 0.1, "rule": "sqrt"}])
    def test_alpha_and_rule_rejected(self, tmp_path, extra):
        payload = {
            "matrix": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "rhs": [0.0, 1.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0]]}},
            "delta": 0.0,
            **extra,
        }
        validate_problem(payload)  # the structure alone allows them
        with pytest.raises(ProblemFormatError, match="takes no 'alpha' or 'rule'"):
            load_problem(write_problem(tmp_path, payload))

    def test_degenerate_basis_propagates(self, tmp_path):
        payload = {
            "matrix": [[0.0, 0.0], [0.0, 1.0]],
            "rhs": [0.0, 1.0],
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0]],
                                          "psis": [[1.0, 0.0]],
                                          "gammas": [[0.0, 1.0]]}},
            "delta": 0.0,
        }
        with pytest.raises(DegenerateGram):
            load_problem(write_problem(tmp_path, payload))


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            load_problem(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_nesting_too_deep_to_decode(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"rhs": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ProblemFormatError, match="is not valid JSON"):
            load_problem(path)

    def test_schema_violations(self, tmp_path):
        for payload in (
            scalar_problem(delta=-0.5),
            scalar_problem(q_max=1.0),
            scalar_problem(surprise=1),
            scalar_problem(stabilizer={}),
            scalar_problem(stabilizer={"scalar_alpha": {}, "finite_dim": {}}),
        ):
            with pytest.raises(ProblemFormatError):
                load_problem(write_problem(tmp_path, payload))

    def test_matrix_and_operator_are_exclusive(self, tmp_path):
        both = scalar_problem(operator="volterra")
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, both))
        neither = scalar_problem()
        del neither["matrix"]
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, neither))

    def test_matrix_must_match_rhs(self, tmp_path):
        bad = scalar_problem(matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ProblemFormatError,
                           match=r"^matrix must be 2x2 to match rhs, got \(3, 3\)$"):
            load_problem(write_problem(tmp_path, bad))

    def test_wide_exact_matrix_must_match_rhs(self, tmp_path):
        bad = scalar_problem(exact_solution=[1.0, 1.0],
                             exact_matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ProblemFormatError,
                           match=r"^exact_matrix must be 2x2 to match rhs, got \(2, 3\)$"):
            load_problem(write_problem(tmp_path, bad))

    def test_ragged_matrix(self, tmp_path):
        bad = scalar_problem(matrix=[[1.0, 0.0], [0.0]])
        with pytest.raises(ProblemFormatError, match="^matrix rows have unequal lengths$"):
            load_problem(write_problem(tmp_path, bad))

    def test_integer_and_float_entries_convert_exactly(self, tmp_path):
        p = load_problem(write_problem(tmp_path, scalar_problem(
            matrix=[[2, 10**300], [0.1, -3]], exact_solution=[1.0, 1.0],
            exact_matrix=[[1, 0], [0, 1]])))
        np.testing.assert_array_equal(p.operator.as_matrix(), [[2.0, 1e300], [0.1, -3.0]])
        assert p.operator.as_matrix().dtype == np.float64
        np.testing.assert_array_equal(p.exact_operator.as_matrix(), np.eye(2))

    @pytest.mark.parametrize("key", ["operator", "exact_matrix"])
    def test_integral_step_below_the_float_spacing(self, tmp_path, key):
        payload = scalar_problem(interval=[1e16, 1e16 + 8], rhs=[0.0] * 100,
                                 exact_solution=[0.0] * 100)
        if key == "operator":
            del payload["matrix"]
            payload["operator"] = "volterra"
        else:
            payload["matrix"] = np.eye(100).tolist()
            payload["exact_matrix"] = "volterra"
        with pytest.raises(ProblemFormatError, match="below the float64 spacing 2 there"):
            load_problem(write_problem(tmp_path, payload))

    def test_alpha_and_rule_exclusive(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, scalar_problem(rule="sqrt")))

    def test_scalar_needs_alpha_or_rule(self, tmp_path):
        p = scalar_problem()
        del p["alpha"]
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, p))

    def test_empty_interval(self, tmp_path):
        payload = {
            "operator": "volterra",
            "interval": [1.0, 1.0],
            "rhs": [0.0, 0.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.1,
        }
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, payload))

    @pytest.mark.parametrize("interval", [[-1e308, 1e308], [-10**308, 10**308]])
    def test_interval_wider_than_float64_range(self, tmp_path, interval):
        payload = {
            "operator": "volterra",
            "interval": interval,
            "rhs": [0.0, 0.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.1,
        }
        with pytest.raises(ProblemFormatError, match="is wider than the float64 range$"):
            load_problem(write_problem(tmp_path, payload))

    def test_single_point_integral_operator(self, tmp_path):
        payload = {
            "operator": "volterra",
            "rhs": [1.0],
            "stabilizer": {"scalar_alpha": {}},
            "delta": 0.0,
            "alpha": 0.1,
        }
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, payload))

    def test_exact_solution_length_checked(self, tmp_path):
        bad = scalar_problem(exact_solution=[1.0, 2.0, 3.0])
        with pytest.raises(ProblemFormatError):
            load_problem(write_problem(tmp_path, bad))


def write_text_problem(tmp_path, text, name="problem.json"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestNonFiniteNumbers:
    """JSON decoding accepts NaN, Infinity, 1e999 and huge integers; the
    validator rejects each of them before any numerics run."""

    def text(self, **fields):
        body = {"matrix": "[[2.0, 0.0], [0.0, 1.0]]", "rhs": "[1.0, 1.0]",
                "stabilizer": '{"scalar_alpha": {}}', "delta": "0.01", "alpha": "0.1"}
        body.update(fields)
        return "{" + ", ".join(f'"{k}": {v}' for k, v in body.items()) + "}"

    def rejection(self, tmp_path, **fields):
        with pytest.raises(ProblemFormatError) as info:
            load_problem(write_text_problem(tmp_path, self.text(**fields)))
        return str(info.value)

    def test_nan_in_matrix(self, tmp_path):
        assert self.rejection(tmp_path, matrix="[[2.0, 0.0], [NaN, 1.0]]") == \
            "schema violation at matrix/1/0: nan is not a finite number"

    def test_nan_in_rhs(self, tmp_path):
        assert self.rejection(tmp_path, rhs="[1.0, NaN]") == \
            "schema violation at rhs/1: nan is not a finite number"

    def test_nan_delta(self, tmp_path):
        assert self.rejection(tmp_path, delta="NaN") == \
            "schema violation at delta: nan is not a finite number"

    def test_overflowing_literal_in_rhs(self, tmp_path):
        assert self.rejection(tmp_path, rhs="[1e999, 1.0]") == \
            "schema violation at rhs/0: inf is not a finite number"

    def test_infinity_in_rhs(self, tmp_path):
        assert self.rejection(tmp_path, rhs="[1.0, -Infinity]") == \
            "schema violation at rhs/1: -inf is not a finite number"

    def test_integer_beyond_float_range(self, tmp_path):
        message = self.rejection(tmp_path, rhs="[1.0, 1" + "0" * 400 + "]")
        assert message.startswith("schema violation at rhs/1: 1000")
        assert message.endswith("is out of the float64 range")

    def test_integer_literal_too_long_to_parse(self, tmp_path):
        message = self.rejection(tmp_path, rhs="[1.0, 1" + "0" * 5000 + "]")
        assert "is not valid JSON" in message

    def test_large_finite_values_pass(self, tmp_path):
        # Entries near the top of the float range whose sum overflows are
        # finite one by one, and an integer within range converts.
        p = load_problem(write_text_problem(tmp_path, self.text(
            rhs="[1.7e308, 1.7e308]", exact_solution="[1" + "0" * 300 + ", 1]")))
        assert p.rhs.tolist() == [1.7e308, 1.7e308]
        assert p.exact_solution.tolist() == [1e300, 1.0]


# What jsonschema.validate does, with the schema checked once instead of on
# every call (20 ms a call).
jsonschema.Draft202012Validator.check_schema(PROBLEM_SCHEMA)
_SCHEMA_VALIDATOR = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)


def _schema_error(payload):
    """The error jsonschema.validate raises on payload, or None."""
    return jsonschema.exceptions.best_match(_SCHEMA_VALIDATOR.iter_errors(payload))


def _validator_error(payload):
    try:
        validate_problem(payload)
    except ProblemFormatError as exc:
        return exc
    return None


def _schema_path(exc) -> str:
    return "/".join(str(p) for p in exc.absolute_path) or "<root>"


def _out_of_range(node) -> bool:
    """True when a number anywhere in node is not a finite float64."""
    if type(node) is float:
        return not math.isfinite(node)
    if type(node) is int:
        try:
            float(node)
        except OverflowError:
            return True
        return False
    if isinstance(node, dict):
        return any(_out_of_range(v) for v in node.values())
    if isinstance(node, list):
        return any(_out_of_range(v) for v in node)
    return False


def _assert_agrees_with_schema(payload, same_place=False):
    """The validator rejects exactly what the schema rejects, and what holds
    a non-finite or out-of-range number besides.

    With ``same_place``, a payload the schema finds one violation in must be
    rejected at the same path.
    """
    payload = json.loads(json.dumps(payload))  # as a problem file decodes
    schema_error = _schema_error(payload)
    ours = _validator_error(payload)
    expect_reject = schema_error is not None or _out_of_range(payload)
    assert (ours is not None) == expect_reject, (payload, schema_error, ours)
    if same_place and schema_error is not None \
            and len(list(_SCHEMA_VALIDATOR.iter_errors(payload))) == 1:
        assert str(ours).startswith(f"schema violation at {_schema_path(schema_error)}: ")


# Small copies of the benchmark's three problem files (same keys, n = 4).
def dense_payload():
    a = [[2.0, 0.25, 0.0, 0.0], [0.0, 1.5, 0.25, 0.0],
         [0.0, 0.0, 1.0, 0.25], [0.125, 0.0, 0.0, 0.5]]
    return {"matrix": a, "rhs": [1.0, 0.5, 0.25, 0.125], "delta": 1e-4, "rule": "sqrt",
            "stabilizer": {"scalar_alpha": {}}, "exact_solution": [0.5, 0.25, 0.125, 0.25],
            "exact_matrix": copy.deepcopy(a)}


def fredholm_payload():
    return {"matrix": [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]],
            "rhs": [0.0, 1.0, 1.0, 1.0], "delta": 1e-4,
            "stabilizer": {"finite_dim": {"phis": [[1.0, 0.0, 0.0, 0.0]],
                                          "psis": [[1.0, 0.0, 0.0, 0.0]]}},
            "exact_solution": [0.0, 1.0, 0.5, 1.0 / 3.0]}


def volterra_payload():
    return {"operator": "volterra", "interval": [0.0, 1.0], "rhs": [0.0, 0.25, 0.5, 0.75],
            "delta": 1e-4, "rule": "sqrt", "stabilizer": {"scalar_alpha": {}},
            "exact_solution": [1.0, 1.0, 1.0, 1.0], "exact_matrix": "volterra"}


PAYLOADS = {"dense": dense_payload, "fredholm": fredholm_payload,
            "volterra": volterra_payload}

_KEYS = [*PROBLEM_SCHEMA["properties"], "scalar_alpha", "finite_dim", "phis", "psis",
         "gammas", "zs", "surprise"]
_RULES = ["sqrt", "power:", "power:0.5", "power:x", "power: ", "sqrt ", " sqrt", "SQRT",
          "sqrt\n", "power:\n", "power:0.5\n", "\nsqrt", "", "pow:0.5", "sqrtsqrt",
          "power:power:", "volterra"]
_VALUES = [True, False, None, "1.0", [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0]], [[]],
           [[1.0, 2.0]], {}, {"scalar_alpha": {}}, {"x": 1}, 0, 0.0, -0.0, -1, -1.0, 1, 1.0,
           0.5, 2, 1e-300, float("nan"), float("inf"), float("-inf"), 10**400, *_RULES]


def _slots(node):
    """(container, key) for every value below node, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


def _containers(payload, kind):
    return [payload, *(c for parent, key in _slots(payload)
                       if isinstance(c := parent[key], kind))]


def _mutate(payload, data) -> None:
    op = data.draw(st.sampled_from(["drop", "set", "replace", "resize"]))
    if op == "drop":
        obj = data.draw(st.sampled_from([d for d in _containers(payload, dict) if d]))
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    elif op == "set":
        obj = data.draw(st.sampled_from(_containers(payload, dict)))
        key = data.draw(st.sampled_from(_KEYS))
        obj[key] = copy.deepcopy(data.draw(st.sampled_from(_VALUES) | st.text(max_size=8)))
    elif op == "replace":
        parent, key = data.draw(st.sampled_from(list(_slots(payload))))
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_VALUES)))
    else:
        lists = _containers(payload, list)[1:]
        if not lists:
            return
        arr = data.draw(st.sampled_from(lists))
        size = data.draw(st.integers(0, 3))
        arr[:] = (arr * 3)[:size] if arr else [1.0] * size


class TestValidatorMatchesSchema:
    @pytest.mark.parametrize("make", PAYLOADS.values(), ids=PAYLOADS.keys())
    def test_unmutated_payloads_load(self, make, tmp_path):
        assert _schema_error(make()) is None
        load_problem(write_problem(tmp_path, make()))

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(sorted(PAYLOADS)), data=st.data())
    def test_mutations_agree(self, kind, data):
        payload = PAYLOADS[kind]()
        mutations = data.draw(st.integers(1, 3))
        for _ in range(mutations):
            _mutate(payload, data)
        _assert_agrees_with_schema(payload, same_place=mutations == 1)

    NAMED = {
        "drop rhs": lambda p: p.pop("rhs"),
        "drop stabilizer": lambda p: p.pop("stabilizer"),
        "drop delta": lambda p: p.pop("delta"),
        "unknown key": lambda p: p.update(surprise=1),
        "bool delta": lambda p: p.update(delta=True),
        "string rhs entry": lambda p: p["rhs"].__setitem__(0, "1.0"),
        "null rhs entry": lambda p: p["rhs"].__setitem__(1, None),
        "list rhs entry": lambda p: p["rhs"].__setitem__(1, [1.0]),
        "nan rhs entry": lambda p: p["rhs"].__setitem__(1, float("nan")),
        "empty rhs": lambda p: p.update(rhs=[]),
        "interval of 1": lambda p: p.update(interval=[0.0]),
        "interval of 3": lambda p: p.update(interval=[0.0, 1.0, 2.0]),
        "bool interval end": lambda p: p.update(interval=[0.0, True]),
        "stabilizer of 0 keys": lambda p: p.update(stabilizer={}),
        "stabilizer of 2 keys": lambda p: p["stabilizer"].update(
            scalar_alpha={}, finite_dim={"phis": [[1.0]], "psis": [[1.0]]}),
        "non-empty scalar_alpha": lambda p: p.update(stabilizer={"scalar_alpha": {"a": 1}}),
        "finite_dim without psis": lambda p: p.update(
            stabilizer={"finite_dim": {"phis": [[1.0]]}}),
        "finite_dim with an empty vector": lambda p: p.update(
            stabilizer={"finite_dim": {"phis": [[1.0]], "psis": [[]]}}),
        "alpha of 0": lambda p: p.update(alpha=0),
        "alpha of 1e-300": lambda p: p.update(alpha=1e-300),
        "delta of -0.0": lambda p: p.update(delta=-0.0),
        "delta of -1": lambda p: p.update(delta=-1),
        "delta of 0": lambda p: p.update(delta=0),
        "q_max of 0": lambda p: p.update(q_max=0),
        "q_max of 1": lambda p: p.update(q_max=1.0),
        "q_max of 0.99": lambda p: p.update(q_max=0.99),
        "rule with trailing newline": lambda p: p.update(rule="sqrt\n"),
        "rule power: alone": lambda p: p.update(rule="power:"),
        "rule power:x": lambda p: p.update(rule="power:x"),
        "rule with leading space": lambda p: p.update(rule=" sqrt"),
        "rule as number": lambda p: p.update(rule=0.5),
        "operator misspelt": lambda p: p.update(operator="Volterra"),
        "exact_matrix string": lambda p: p.update(exact_matrix="dense"),
        "exact_matrix empty row": lambda p: p.update(exact_matrix=[[]]),
        "exact_matrix bool entry": lambda p: p.update(exact_matrix=[[1.0, False]]),
        "huge integer delta": lambda p: p.update(delta=10**400),
    }

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_mutations_agree(self, kind, name):
        payload = PAYLOADS[kind]()
        self.NAMED[name](payload)
        _assert_agrees_with_schema(payload, same_place=True)

    def test_root_must_be_an_object(self):
        _assert_agrees_with_schema([dense_payload()], same_place=True)

    @pytest.mark.parametrize("mutate, where", [
        (lambda p: p["matrix"][3].__setitem__(1, "x"), "matrix/3/1"),
        (lambda p: p.update(surprise=1), "<root>"),
        (lambda p: p.pop("delta"), "<root>"),
        (lambda p: p["stabilizer"].update(finite_dim={}), "stabilizer"),
        (lambda p: p["exact_matrix"][0].__setitem__(1, True), "exact_matrix/0/1"),
        (lambda p: p["stabilizer"]["scalar_alpha"].update(x=1), "stabilizer/scalar_alpha"),
        (lambda p: p.update(q_max=1), "q_max"),
    ])
    def test_message_paths(self, mutate, where):
        payload = dense_payload()
        mutate(payload)
        with pytest.raises(ProblemFormatError, match=f"^schema violation at {where}: "):
            validate_problem(payload)
        assert _schema_path(_schema_error(payload)) == where
