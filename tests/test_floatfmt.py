"""The vectorized float formatter against ``repr`` as the oracle."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perturbreg import _floatfmt
from perturbreg.cli import CSV_BLOCK_ROWS, _csv_text


def by_repr(*columns):
    """The rows of ``columns`` with each value printed by ``repr(float(v))``."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float)
    got = _csv_text(None, [values])
    expected = "\n".join(map(repr, values.tolist())) + "\n"
    if got != expected:
        pairs = zip(expected.split("\n"), got.split("\n"))
        raise AssertionError([(e, g) for e, g in pairs if e != g][:10])


def neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


class TestAgainstRepr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=40), st.lists(st.floats(), max_size=40))
    def test_any_float64_columns(self, a, b):
        rows = min(len(a), len(b))
        assert _csv_text(None, [np.array(a), np.array(b)]) == \
            (by_repr(a, b) if rows else "\n")

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float32, st.integers(1, 50), elements=st.floats(width=32)))
    def test_float32_columns_print_their_float64_values(self, values):
        # _csv_text upcasts, as fmt(float(v)) does
        assert _csv_text(["v"], [values]) == "v\n" + by_repr(values.astype(float))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                     5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 0.1]),
                    min_size=1, max_size=30),
           st.lists(st.floats(allow_subnormal=True), min_size=30, max_size=30))
    def test_special_values_among_normal_ones(self, specials, normals):
        values = normals[:len(specials)]
        mixed = [v for pair in zip(specials, values) for v in pair]
        assert_matches_repr(mixed)

    def test_two_million_random_bit_patterns(self):
        # every sign, exponent and fraction, NaN payloads and subnormals too
        rng = np.random.default_rng(20201)
        for _ in range(8):
            assert_matches_repr(rng.integers(0, 2**64, 256_000, dtype=np.uint64)
                                .view(np.float64))

    def test_edges(self):
        largest = sys.float_info.max
        smallest_normal = 2.0 ** -1022
        assert_matches_repr(neighbours([
            1e-4, 1e-5, 0.0001, 0.00001, 9.999999999999999e-05,  # fixed vs exponent below
            1e15, 1e16, 9999999999999998.0, 1e16 - 2,  # fixed vs exponent above
            9007199254740993.0, 2.0 ** 53, 2.0 ** 53 + 2,
            1e22, 1e23, 8.41e21, 5e-324, smallest_normal, largest,
            1e100, 1e-100, 1.5e300, 2.5e-300, 1e308, 1e-307, 123456789012345680.0,
            0.1, 0.2, 0.3, 1 / 3, 2 / 3, 100.0, 0.5, 1.0, 2.0, 3.0,
        ]))
        assert_matches_repr([-v for v in neighbours([1e-5, 1e16, largest, smallest_normal])])

    def test_every_power_of_two(self):
        # Below a power of two the next double down is half as far away,
        # except at the smallest normal, whose lower neighbour is subnormal.
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_matches_repr(neighbours(powers))
        assert_matches_repr(-powers)

    def test_every_power_of_ten(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert_matches_repr(neighbours(powers))

    def test_shortest_digits_of_every_length(self):
        rng = np.random.default_rng(7)
        for digits in range(1, 18):
            mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 500, dtype=np.int64)
            exponents = rng.integers(-320, 300, 500)
            assert_matches_repr([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(),
                                                                    exponents.tolist())])

    def test_columns_of_several_blocks_share_no_state(self):
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(CSV_BLOCK_ROWS + 5),
                   np.exp(40.0 * rng.standard_normal(CSV_BLOCK_ROWS + 5))]
        assert _csv_text(None, columns) == by_repr(*columns)


class TestCells:
    def test_width_holds_the_longest_repr(self):
        longest = max(len(repr(v)) for v in (-2.2250738585072014e-308, -1.2345678901234567e+308,
                                              -0.00012345678901234567, -1234567890123456.7))
        assert longest <= _floatfmt.WIDTH

    def test_short_columns_share_a_pass(self, monkeypatch):
        calls = []
        layout = _floatfmt._layout
        monkeypatch.setattr(_floatfmt, "_layout", lambda out, bits: calls.append(bits.size)
                            or layout(out, bits))
        columns = [np.arange(1.0, 4.0) / 7.0 for _ in range(4)]
        out = _floatfmt.cells(columns)
        assert calls == [12]
        texts = [bytes(col[col != 0]).decode() for col in out.T]
        assert texts == [repr(v) for col in columns for v in col.tolist()]

    def test_chunk_boundary_inside_a_column(self, monkeypatch):
        # columns of _CHUNK // 2 + 1 rows: the first pass ends inside the
        # second column, and the second pass starts there and spans two
        calls = []
        layout = _floatfmt._layout
        monkeypatch.setattr(_floatfmt, "_layout", lambda out, bits: calls.append(bits.size)
                            or layout(out, bits))
        rows = _floatfmt._CHUNK // 2 + 1
        rng = np.random.default_rng(11)
        columns = [rng.standard_normal(rows), np.exp(30.0 * rng.standard_normal(rows)),
                   np.linspace(0.0, 3.0, rows)]
        out = _floatfmt.cells(columns)
        assert calls == [_floatfmt._CHUNK, 3 * rows - _floatfmt._CHUNK]
        texts = [bytes(col[col != 0]).decode() for col in out.T]
        assert texts == [repr(v) for col in columns for v in col.tolist()]
