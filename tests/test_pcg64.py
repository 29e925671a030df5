"""The PCG64 reader against numpy.random, and its jump table against the step-by-step oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff._pcg64 import _BLOCK, _pcg64_jumps, uniforms

from oracles import pcg64_jumps_by_steps
from test_counterexample import UNIFORM_KEYS

# no draw, one double, and both sides of one and of two block lengths
BLOCK_EDGES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1]


@given(st.sampled_from(UNIFORM_KEYS), st.sampled_from(BLOCK_EDGES))
@example(2**64 + 5, 2 * _BLOCK + 1)
@settings(max_examples=30, deadline=None)
def test_uniforms_match_numpy_bit_for_bit(seed, size):
    got = uniforms(seed, size)
    want = np.random.default_rng(seed).random(size)
    assert got.dtype == np.float64 and got.shape == (size,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_uniforms_refuse_a_negative_seed_as_numpy_does(seed):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(ValueError) as ours:
        uniforms(seed, 3)
    assert str(ours.value) == str(numpy_error.value) == "expected non-negative integer"


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5, 17, 625, 3125, _BLOCK])
def test_jump_table_by_doubling_matches_step_by_step(steps):
    got, want = _pcg64_jumps(steps), pcg64_jumps_by_steps(steps)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == np.uint64 and np.array_equal(g, w)
