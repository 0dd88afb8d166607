"""Tests for the order-preserving key transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms import keys
from repro.algorithms.keys import (
    canonical_order,
    canonical_topk,
    decode,
    digit,
    encode,
    key_bits,
    key_bytes,
)
from repro.errors import InvalidParameterError
from repro.sharding.merge import merge_topk


class TestWidths:
    def test_key_bits(self):
        assert key_bits(np.dtype(np.float32)) == 32
        assert key_bits(np.dtype(np.float64)) == 64
        assert key_bits(np.dtype(np.uint32)) == 32
        assert key_bits(np.dtype(np.int64)) == 64

    def test_key_bytes(self):
        assert key_bytes(np.dtype(np.float32)) == 4
        assert key_bytes(np.dtype(np.uint64)) == 8

    def test_unsupported_dtype(self):
        with pytest.raises(InvalidParameterError):
            key_bits(np.dtype(np.int16))


class TestRoundtrip:
    @given(
        values=arrays(
            np.float32,
            st.integers(min_value=1, max_value=50),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_float32_roundtrip(self, values):
        assert np.array_equal(decode(encode(values), np.float32), values)

    @given(
        values=arrays(
            np.int64,
            st.integers(min_value=1, max_value=50),
            elements=st.integers(min_value=-(2**62), max_value=2**62),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_int64_roundtrip(self, values):
        assert np.array_equal(decode(encode(values), np.int64), values)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_roundtrip_random(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = (rng.standard_normal(1000) * 1e6).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, 1000, dtype=dtype)
        assert np.array_equal(decode(encode(values), dtype), values)


class TestOrderPreservation:
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_encoded_order_matches_value_order(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = (rng.standard_normal(2000) * 100).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(info.min, info.max, 2000, dtype=dtype)
        codes = encode(values)
        value_order = np.argsort(values, kind="stable")
        code_order = np.argsort(codes, kind="stable")
        assert np.array_equal(values[value_order], values[code_order])

    def test_negative_floats_sort_below_positive(self):
        values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0], dtype=np.float32)
        codes = encode(values)
        assert np.array_equal(np.argsort(codes), np.arange(5))

    def test_negative_zero_orders_with_zero(self):
        values = np.array([-0.0, 0.0], dtype=np.float32)
        codes = encode(values)
        # -0.0 == 0.0 numerically, and the canonical codes tie too.
        assert codes[0] == codes[1]


class TestDigit:
    def test_extracts_expected_bits(self):
        codes = np.array([0xAABBCCDD], dtype=np.uint32)
        assert digit(codes, 0)[0] == 0xDD
        assert digit(codes, 8)[0] == 0xCC
        assert digit(codes, 16)[0] == 0xBB
        assert digit(codes, 24)[0] == 0xAA

    def test_digit_width(self):
        codes = np.array([0xFF], dtype=np.uint32)
        assert digit(codes, 0, digit_bits=4)[0] == 0xF

    def test_invalid_shift(self):
        with pytest.raises(InvalidParameterError):
            digit(np.array([1], dtype=np.uint32), -1)


@st.composite
def _cut_inputs(draw):
    """Codes (wide, heavily tied, or all equal; code 0 is NaN), distinct
    rows in no particular order, and k at the edges."""
    dtype = draw(st.sampled_from([np.uint32, np.uint64]))
    n = draw(st.integers(min_value=0, max_value=80))
    top = int(np.iinfo(dtype).max)
    spread = draw(st.sampled_from(["wide", "ties", "equal"]))
    if spread == "equal":
        codes = [draw(st.sampled_from([0, 1, top]))] * n
    else:
        high = top if spread == "wide" else 3
        element = st.one_of(st.just(0), st.just(top), st.integers(0, high))
        codes = draw(st.lists(element, min_size=n, max_size=n))
    rows = draw(
        st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)
    )
    k = draw(st.sampled_from(sorted({0, 1, max(n - 1, 0), n, n + 1})))
    return np.array(codes, dtype=dtype), np.array(rows, dtype=np.int64), k


class TestCanonicalTopk:
    @given(_cut_inputs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_is_the_canonical_order_prefix(self, case):
        codes, rows, k = case
        chosen = canonical_topk(codes, rows, k)
        assert np.array_equal(chosen, canonical_order(codes, rows)[:k])
        assert chosen.dtype == np.int64

    def test_k_zero_is_empty(self):
        chosen = canonical_topk(np.arange(4, dtype=np.uint32), np.arange(4), 0)
        assert chosen.dtype == np.int64 and len(chosen) == 0

    def test_sorts_only_the_rows_that_can_place(self, monkeypatch):
        # A work guard without a clock: the merge's cut sorts the k rows
        # at or above the k-th code, and every row only when all tie.
        sorted_sizes = []
        full_sort = keys.canonical_order

        def counting(codes, rows):
            sorted_sizes.append(len(codes))
            return full_sort(codes, rows)

        monkeypatch.setattr(keys, "canonical_order", counting)
        n, k = 16384, 64
        rows = np.arange(n, dtype=np.int64)
        distinct = np.random.default_rng(0).permutation(n).astype(np.float32)
        _, indices = merge_topk(distinct, rows, k)
        assert sorted_sizes == [k]
        assert np.array_equal(indices, np.argsort(-distinct, kind="stable")[:k])
        sorted_sizes.clear()
        _, indices = merge_topk(np.ones(n, dtype=np.float32), rows, k)
        assert sorted_sizes == [n]
        assert np.array_equal(indices, rows[:k])
