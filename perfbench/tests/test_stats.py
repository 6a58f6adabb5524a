import pytest

import stats


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(reversed(xs), 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.beyond(200, 90) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
