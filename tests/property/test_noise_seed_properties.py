"""The folded frame-noise seed equals numpy's ``SeedSequence`` build.

``EmbeddingSpace.observe`` sets a frame's noise generator to the state
:func:`repro.vision.features._noise_seed` computes instead of building
``PCG64(SeedSequence([0x5EED, class, key]))``; every descriptor, match
decision and digest rests on the two being the same stream.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.vision.features import _noise_seed

from test_vision_render_properties import (SPACE, SPACE_GEOMETRY,
                                           reference_observation)

WORD = st.integers(min_value=0, max_value=2**32 - 1)


def reference_state(object_class, key):
    bits = np.random.PCG64(np.random.SeedSequence([0x5EED, object_class,
                                                   key]))
    state = bits.state["state"]
    return state["state"], state["inc"]


@given(object_class=WORD, key=WORD)
@example(object_class=0, key=0)
@example(object_class=2**32 - 1, key=2**32 - 1)
@example(object_class=0, key=2**32 - 1)
@example(object_class=2**32 - 1, key=0)
@settings(max_examples=300, deadline=None)
def test_folded_state_equals_the_seed_sequence_state(object_class, key):
    assert _noise_seed(object_class, key) == reference_state(object_class,
                                                             key)


@given(cls=st.integers(min_value=0, max_value=39),
       viewpoint=st.floats(min_value=-5, max_value=5, allow_nan=False),
       key=st.one_of(WORD, st.integers(min_value=2**32, max_value=2**96)))
@example(cls=3, viewpoint=0.5, key=2**32 - 1)
@example(cls=3, viewpoint=0.5, key=2**32)
@settings(max_examples=60, deadline=None)
def test_observe_draws_the_seed_sequence_stream_for_any_key(cls, viewpoint,
                                                            key):
    # Below 2**32 observe takes the folded path, from 2**32 on it builds
    # the SeedSequence itself; both must equal the reference.
    assert np.array_equal(
        SPACE.observe(cls, viewpoint, noise_key=key).vector,
        reference_observation(SPACE, SPACE_GEOMETRY, cls, viewpoint, key))


def test_keyed_noise_does_not_depend_on_what_was_observed_before():
    first = SPACE.observe(7, 0.2, noise_key=99).vector
    SPACE.observe(8, 0.1, noise_key=2**40)
    SPACE.observe(9, 0.3)
    assert np.array_equal(SPACE.observe(7, 0.2, noise_key=99).vector, first)


def test_numpy_integer_class_and_key_give_the_same_noise():
    # Folded in Python ints: numpy int64 arithmetic would wrap.
    want = SPACE.observe(11, 0.5, noise_key=1234).vector
    got = SPACE.observe(np.int64(11), 0.5, noise_key=np.uint32(1234))
    assert np.array_equal(got.vector, want)


@pytest.mark.parametrize("key", [-1, -(2**32), -(2**70)])
def test_negative_key_still_raises(key):
    with pytest.raises(ValueError):
        SPACE.observe(1, 0.0, noise_key=key)
