import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmwsim.rng import STAGE_CHANNEL, STAGE_DATA, STAGE_PILOT, streams, substream

STAGES = [STAGE_CHANNEL, STAGE_PILOT, STAGE_DATA]
LAST_TRIAL = 2 ** 32 - 1
SHAPES = [(), (1,), (7,), (2, 3, 3, 2), (0,), (24, 3)]


def _assert_streams_match(seed, trials, stage, shapes):
    for trial, rng in zip(trials, streams(seed, stage)(trials), strict=True):
        ref = substream(seed, trial, stage)
        for shape in shapes:
            assert rng.uniform(0.0, np.pi, size=shape).tobytes() == \
                ref.uniform(0.0, np.pi, size=shape).tobytes()
            assert rng.standard_normal(shape).tobytes() == ref.standard_normal(shape).tobytes()


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 + 5,
                                  2 ** 128 - 1, 2 ** 128, 2 ** 160 - 1, 2 ** 160])
@pytest.mark.parametrize("stage", STAGES)
def test_streams_match_substream_at_word_edges(seed, stage):
    # the seed's w words fill numpy's 4-word pool, and its hash keys past
    # 4 * max(4, w) start at w = 4, 5, 5 and 6 for the last four seeds; the
    # trial is one word
    _assert_streams_match(seed, [0, LAST_TRIAL, 9, 9, 3, 0], stage, SHAPES)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 200), stage=st.sampled_from(STAGES),
       trials=st.lists(st.one_of(st.sampled_from([0, LAST_TRIAL]), st.integers(0, LAST_TRIAL)),
                       max_size=8),
       shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3))
@example(seed=2 ** 128, stage=STAGE_DATA, trials=[], shapes=[(3,)])
@example(seed=2 ** 200, stage=STAGE_PILOT, trials=[LAST_TRIAL, 0, 5, 5], shapes=[(2, 2)])
def test_streams_match_substream(seed, stage, trials, shapes):
    # seeds past 128 bits add pool words that are mixed in before the trial's
    _assert_streams_match(seed, trials, stage, shapes)


@pytest.mark.parametrize("trials", [[-1], [0, 2 ** 32], [2 ** 64], [3, -5, 4]])
def test_streams_take_one_word_trials(trials):
    with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
        list(streams(1, STAGE_CHANNEL)(trials))


def test_streams_reuse_one_generator():
    # each trial's state is set in turn: a stream is used before the next is taken
    gens = streams(5, STAGE_CHANNEL)(range(3))
    first = next(gens)
    draw = first.random()
    assert next(gens) is first
    assert draw == substream(5, 0, STAGE_CHANNEL).random()
    assert first.random() == substream(5, 1, STAGE_CHANNEL).random()
