import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import _oracles as oracles
from chevkit.errors import InputError
from chevkit.indices import (
    degree,
    dominates,
    index_add,
    index_count,
    indices_of_degree,
    indices_up_to,
    mono_key,
)


def test_enumeration_order_two_vars():
    assert indices_up_to(2, 2) == (
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    )


def test_enumeration_order_one_var():
    assert indices_up_to(1, 3) == ((0,), (1,), (2,), (3,))


@given(st.integers(1, 4), st.integers(0, 6))
def test_counts_are_binomials(arity, d):
    assert len(indices_up_to(arity, d)) == index_count(arity, d)
    assert index_count(arity, d) == math.comb(arity + d, d)


def test_count_of_negative_degree_is_zero():
    assert index_count(3, -1) == 0


@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 5))
def test_prefix_property(arity, d1, d2):
    # the shorter enumeration is literally a prefix of the longer one
    lo, hi = sorted((d1, d2))
    assert indices_up_to(arity, hi)[: index_count(arity, lo)] == \
        indices_up_to(arity, lo)


@given(st.integers(1, 4), st.integers(0, 5))
def test_degree_slices(arity, d):
    block = list(indices_of_degree(arity, d))
    assert all(degree(b) == d for b in block)
    assert len(set(block)) == len(block)


def test_degree_slices_are_built_once():
    block = indices_of_degree(3, 4)
    assert type(block) is tuple
    assert indices_of_degree(3, 4) is block
    assert block[:2] == ((0, 0, 4), (0, 1, 3))


BAD_DEGREE_ARGS = [(1, -1), (0, 2)]


@pytest.mark.parametrize("arity, d", BAD_DEGREE_ARGS)
def test_indices_of_degree_refuses_bad_arguments(arity, d):
    with pytest.raises(InputError, match="(arity|degree) must be an int >= "):
        list(indices_of_degree(arity, d))


def test_indices_of_degree_refuses_bad_arguments_under_O():
    # the check must not be an assert, which python -O strips: (1, -1)
    # would yield a negative exponent and (0, 2) recurse without end
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from chevkit.errors import InputError\n"
        "from chevkit.indices import indices_of_degree\n"
        f"for args in {BAD_DEGREE_ARGS!r}:\n"
        "    try:\n"
        "        list(indices_of_degree(*args))\n"
        "    except InputError:\n"
        "        print('refused')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused\n" * len(BAD_DEGREE_ARGS)


def test_mono_key_orders_degree_then_lex():
    assert mono_key((0, 1)) < mono_key((1, 0))
    assert mono_key((1, 0)) < mono_key((0, 2))
    assert oracles.mono_cmp((0, 1), (1, 0)) == -1
    assert oracles.mono_cmp((2, 0), (2, 0)) == 0


def test_mono_cmp_rejects_mixed_arity():
    with pytest.raises(InputError):
        oracles.mono_cmp((1, 0), (1, 0, 0))


def test_dominates_is_componentwise():
    assert dominates((2, 3), (2, 1))
    assert not dominates((2, 3), (3, 3))
    assert dominates((0, 0), (0, 0))


def test_index_add():
    assert index_add((1, 2), (3, 0)) == (4, 2)


def test_position_map_matches_enumeration():
    pos = oracles.position_map(2, 3)
    order = indices_up_to(2, 3)
    assert all(order[pos[b]] == b for b in order)
