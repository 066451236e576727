"""The GA draws through ``random.Random._randbelow`` directly. That method is
private, so these tests pin what the program relies on: each direct form
returns what its public ``random.Random`` call returns and leaves the
generator in the same state. The file imports neither numpy nor evopep, so it
runs alone on any Python, as ``pytest tests/test_rng_stream.py``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

SIZES = st.integers(1, 5000)
SEEDS = st.integers(0, 2**64)
DRAWS = st.integers(1, 20)


def both(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, DRAWS)
def test_choice_is_an_index_below_the_length(seed, size, draws):
    public, direct = both(seed)
    items = list(range(size))
    for _ in range(draws):
        assert items[direct._randbelow(len(items))] == public.choice(items)
    assert direct.getstate() == public.getstate()


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, DRAWS)
def test_randrange_of_one_bound_is_randbelow(seed, size, draws):
    public, direct = both(seed)
    for _ in range(draws):
        assert direct._randbelow(size) == public.randrange(size)
    assert direct.getstate() == public.getstate()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(-5000, 5000), SIZES, DRAWS)
def test_randrange_of_two_bounds_is_start_plus_randbelow(seed, start, size, draws):
    public, direct = both(seed)
    for _ in range(draws):
        assert start + direct._randbelow(size) == public.randrange(start, start + size)
    assert direct.getstate() == public.getstate()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(-5000, 5000), SIZES, DRAWS)
def test_randint_is_low_plus_randbelow(seed, low, size, draws):
    public, direct = both(seed)
    for _ in range(draws):
        assert low + direct._randbelow(size) == public.randint(low, low + size - 1)
    assert direct.getstate() == public.getstate()


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.lists(st.sampled_from(["choice", "randrange", "randint"]), max_size=30))
def test_mixed_draws_keep_one_stream(seed, calls):
    # The forms interleave in the GA; a mix must also leave the same state,
    # including the random() that picks each operator.
    public, direct = both(seed)
    for size, call in enumerate(calls, start=1):
        if call == "choice":
            assert direct._randbelow(size) == public.choice(range(size))
        elif call == "randrange":
            assert 3 + direct._randbelow(size) == public.randrange(3, 3 + size)
        else:
            assert 1 + direct._randbelow(size) == public.randint(1, size)
        assert direct.random() == public.random()
    assert direct.getstate() == public.getstate()


# The GA's tournaments take their entrants from one getrandbits(32 * m) call
# and cut each 32-bit word as _randbelow would (evopep.engine._draws_below).
# That rests on two more facts, pinned with their generator state.
WORDS = st.integers(1, 1000)


@settings(max_examples=300, deadline=None)
@given(SEEDS, WORDS)
def test_wide_getrandbits_is_successive_words_first_lowest(seed, words):
    wide, narrow = both(seed)
    value = wide.getrandbits(32 * words)
    assert value == sum(narrow.getrandbits(32) << (32 * i) for i in range(words))
    assert wide.getstate() == narrow.getstate()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(1, 32), DRAWS)
def test_narrow_getrandbits_is_the_top_bits_of_one_word(seed, bits, draws):
    narrow, word = both(seed)
    for _ in range(draws):
        assert narrow.getrandbits(bits) == word.getrandbits(32) >> (32 - bits)
    assert narrow.getstate() == word.getstate()
