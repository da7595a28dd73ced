"""Loading and validating structured problem files (JSON).

A problem file describes one stabilized solve: the observed operator (dense
matrix or the running-integral operator), the observed right-hand side, the
noise level, the stabilizer, and optionally the exact problem for error
reporting. Structure is checked first, in one typed pass over the decoded
JSON (``validate_problem``); what that pass does not cover (dimension
agreement, exclusive keys) is checked here too, so the numerics never see a
malformed problem.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ProblemFormatError
from .fredholm import FredholmBasis, build_stabilizer
from .operators import DiscreteOperator
from .solve import CoordinationRule, PowerDelta, SqrtDelta

_RULE_PATTERN = "^(sqrt|power:.+)$"
_STABILIZER_KEYS = ("scalar_alpha", "finite_dim")
_FINITE_DIM_KEYS = ("phis", "psis", "gammas", "zs")
_REQUIRED_KEYS = ("rhs", "stabilizer", "delta")
_FLOATS_ONLY = {float}


def _reject(path: tuple, message: str):
    where = "/".join(str(p) for p in path) or "<root>"
    raise ProblemFormatError(f"schema violation at {where}: {message}")


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _check_keys(obj, path: tuple, allowed, required=()) -> None:
    if type(obj) is not dict:
        _reject(path, f"{_show(obj)} is not of type 'object'")
    extra = [key for key in obj if key not in allowed]
    if extra:
        _reject(path, f"unexpected key {extra[0]!r}")
    for key in required:
        if key not in obj:
            _reject(path, f"{key!r} is a required property")


def _check_number(x, path: tuple) -> None:
    # JSON numbers decode to int or float; bool is an int subclass but not a
    # number here. A number must also be a finite float64 once converted.
    if type(x) is float:
        if not math.isfinite(x):
            _reject(path, f"{x!r} is not a finite number")
    elif type(x) is int:
        try:
            float(x)
        except OverflowError:
            _reject(path, f"{_show(x)} is out of the float64 range")
    else:
        _reject(path, f"{_show(x)} is not of type 'number'")


def _check_array(values, path: tuple) -> None:
    if type(values) is not list:
        _reject(path, f"{_show(values)} is not of type 'array'")
    if not values:
        _reject(path, "[] should be non-empty")


def _check_numbers(values, path: tuple) -> None:
    """A nonempty array of finite numbers."""
    _check_array(values, path)
    # Fast path: all floats, and a finite sum, which no NaN or infinity
    # leaves. Anything else (ints, wrong types, non-finite values or a sum
    # that merely overflowed) is looked at one entry at a time.
    if set(map(type, values)) == _FLOATS_ONLY and math.isfinite(sum(values)):
        return
    for i, x in enumerate(values):
        _check_number(x, (*path, i))


def _check_rows(rows, path: tuple) -> None:
    """A nonempty array of nonempty arrays of finite numbers."""
    _check_array(rows, path)
    for i, row in enumerate(rows):
        _check_numbers(row, (*path, i))


def _check_range(x, path: tuple, minimum=None, exclusive_minimum=None,
                 exclusive_maximum=None) -> None:
    _check_number(x, path)
    if minimum is not None and x < minimum:
        _reject(path, f"{x!r} is less than the minimum of {minimum!r}")
    if exclusive_minimum is not None and x <= exclusive_minimum:
        _reject(path, f"{x!r} is less than or equal to the minimum of {exclusive_minimum!r}")
    if exclusive_maximum is not None and x >= exclusive_maximum:
        _reject(path, f"{x!r} is greater than or equal to the maximum of {exclusive_maximum!r}")


def _check_volterra(value, path: tuple) -> None:
    if type(value) is not str or value != "volterra":
        _reject(path, f"{_show(value)} is not 'volterra'")


def _check_rule(value, path: tuple) -> None:
    if type(value) is not str:
        _reject(path, f"{_show(value)} is not of type 'string'")
    if re.search(_RULE_PATTERN, value) is None:
        _reject(path, f"{_show(value)} does not match {_RULE_PATTERN!r}")


def _check_stabilizer(stab, path: tuple) -> None:
    _check_keys(stab, path, _STABILIZER_KEYS)
    if len(stab) != 1:
        _reject(path, f"{_show(stab)} must have exactly one key")
    if "scalar_alpha" in stab:
        _check_keys(stab["scalar_alpha"], (*path, "scalar_alpha"), ())
    else:
        spec_path = (*path, "finite_dim")
        spec = stab["finite_dim"]
        _check_keys(spec, spec_path, _FINITE_DIM_KEYS, ("phis", "psis"))
        for key in _FINITE_DIM_KEYS:
            if key in spec:
                _check_rows(spec[key], (*spec_path, key))


def _check_interval(value, path: tuple) -> None:
    if type(value) is list and len(value) != 2:
        _reject(path, f"{_show(value)} must have exactly 2 items")
    _check_numbers(value, path)


def _check_exact_matrix(value, path: tuple) -> None:
    if type(value) is list:
        _check_rows(value, path)
    else:
        _check_volterra(value, path)


_KEY_CHECKS = {
    "operator": _check_volterra,
    "delta": partial(_check_range, minimum=0),
    "alpha": partial(_check_range, exclusive_minimum=0),
    "q_max": partial(_check_range, exclusive_minimum=0, exclusive_maximum=1),
    "rule": _check_rule,
    "stabilizer": _check_stabilizer,
    "interval": _check_interval,
    "rhs": _check_numbers,
    "exact_solution": _check_numbers,
    "matrix": _check_rows,
    "exact_matrix": _check_exact_matrix,
}


def validate_problem(raw) -> None:
    """Check the structure of a decoded problem file, in one pass.

    The rules: unknown keys are rejected and ``rhs``, ``stabilizer`` and
    ``delta`` are required; a number is a JSON int or float (never a bool)
    that is finite as a float64; arrays and matrix rows are nonempty and
    ``interval`` has two entries; ``stabilizer`` holds exactly one of
    ``scalar_alpha`` (an empty object) and ``finite_dim`` (``phis`` and
    ``psis`` required, ``gammas`` and ``zs`` optional, each a nonempty list
    of nonempty vectors); ``delta >= 0``, ``alpha > 0``, ``0 < q_max < 1``;
    ``rule`` matches ``^(sqrt|power:.+)$``; ``operator`` is ``"volterra"``
    and ``exact_matrix`` is ``"volterra"`` or a matrix.

    Raises
    ------
    ProblemFormatError
        ``schema violation at <path>: <message>``, where the path joins the
        keys and indices with ``/`` and is ``<root>`` for the whole object.
    """
    _check_keys(raw, (), _KEY_CHECKS, _REQUIRED_KEYS)
    # Scalars first, then the stabilizer, then the arrays: the shallowest
    # violation is the one reported, as far as one pass allows.
    for key, check in _KEY_CHECKS.items():
        if key in raw:
            check(raw[key], (key,))


@dataclass(frozen=True)
class Problem:
    """A validated problem file, with operators and basis already built.

    ``basis`` is None for the scalar-alpha stabilizer. ``alpha`` and ``rule``
    are mutually exclusive and only meaningful on the scalar path.
    """

    operator: DiscreteOperator
    rhs: np.ndarray
    delta: float
    q_max: float
    alpha: float | None = None
    rule: CoordinationRule | None = None
    basis: FredholmBasis | None = None
    exact_solution: np.ndarray | None = None
    exact_operator: DiscreteOperator | None = None


def parse_rule(text: str) -> CoordinationRule:
    """Parse a rule spelled as ``sqrt`` or ``power:p`` (0 < p < 1)."""
    if text == "sqrt":
        return SqrtDelta()
    if text.startswith("power:"):
        try:
            return PowerDelta(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ProblemFormatError(f"bad rule {text!r}: {exc}") from exc
    raise ProblemFormatError(f"unknown rule {text!r}; expected 'sqrt' or 'power:p'")


def _square_matrix(raw, n: int, what: str) -> np.ndarray:
    m = [list(row) for row in raw]
    width = len(m[0])
    if any(len(row) != width for row in m):
        raise ProblemFormatError(f"{what} rows have unequal lengths")
    arr = np.asarray(m, dtype=float)
    if arr.shape != (n, n):
        raise ProblemFormatError(f"{what} must be {n}x{n} to match rhs, got {arr.shape}")
    return arr


def load_problem(path) -> Problem:
    """Read, validate, and cross-check a problem file.

    Raises
    ------
    ProblemFormatError
        On unreadable files, structural violations (see ``validate_problem``),
        or inconsistent dimensions.
    DegenerateGram, BiorthogonalityFailed
        Propagated from building a finite-rank stabilizer out of bad bases.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, an integer literal longer than
        # the interpreter converts, or arrays nested too deep to decode.
        raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc

    validate_problem(raw)

    rhs = np.asarray(raw["rhs"], dtype=float)
    n = rhs.size

    has_matrix = "matrix" in raw
    has_operator = "operator" in raw
    if has_matrix == has_operator:
        raise ProblemFormatError("exactly one of 'matrix' and 'operator' must be given")

    a, b = raw.get("interval", [0.0, 1.0])
    if not b > a:
        raise ProblemFormatError(f"interval [{a}, {b}] is empty")
    if not math.isfinite(float(b) - float(a)):
        raise ProblemFormatError(f"interval [{a}, {b}] is wider than the float64 range")

    if has_matrix:
        operator = DiscreteOperator.dense(_square_matrix(raw["matrix"], n, "matrix"))
    else:
        if n < 2:
            raise ProblemFormatError("the integral operator needs at least two grid points")
        operator = DiscreteOperator.volterra(a, b, n)

    stab = raw["stabilizer"]
    basis = None
    if "finite_dim" in stab:
        spec = stab["finite_dim"]
        for key in ("phis", "psis", "gammas", "zs"):
            for vec in spec.get(key, []):
                if len(vec) != n:
                    raise ProblemFormatError(
                        f"stabilizer {key} entries must have length {n} to match rhs")
        basis = build_stabilizer(spec["phis"], spec["psis"],
                                 gammas=spec.get("gammas"), zs=spec.get("zs"))

    alpha = raw.get("alpha")
    rule = parse_rule(raw["rule"]) if "rule" in raw else None
    if alpha is not None and rule is not None:
        raise ProblemFormatError("'alpha' and 'rule' are mutually exclusive")
    if basis is None and alpha is None and rule is None:
        raise ProblemFormatError("the scalar stabilizer needs 'alpha' or 'rule'")

    exact_solution = None
    if "exact_solution" in raw:
        exact_solution = np.asarray(raw["exact_solution"], dtype=float)
        if exact_solution.size != n:
            raise ProblemFormatError(
                f"exact_solution must have length {n}, got {exact_solution.size}")

    exact_operator = None
    if "exact_matrix" in raw:
        if raw["exact_matrix"] == "volterra":
            if n < 2:
                raise ProblemFormatError("the integral operator needs at least two grid points")
            exact_operator = DiscreteOperator.volterra(a, b, n)
        else:
            exact_operator = DiscreteOperator.dense(
                _square_matrix(raw["exact_matrix"], n, "exact_matrix"))

    return Problem(
        operator=operator,
        rhs=rhs,
        delta=float(raw["delta"]),
        q_max=float(raw.get("q_max", 0.5)),
        alpha=None if alpha is None else float(alpha),
        rule=rule,
        basis=basis,
        exact_solution=exact_solution,
        exact_operator=exact_operator,
    )
