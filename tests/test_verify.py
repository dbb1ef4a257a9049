import pytest

from gtrotor.verify import HEIGHT_CAPS, suite_bispectral, suite_polys, suite_rotations


@pytest.mark.parametrize(
    "suite, fn",
    [("polys", suite_polys), ("rotations", suite_rotations), ("bispectral", suite_bispectral)],
)
def test_suite_refuses_height_above_its_cap(suite, fn):
    cap = HEIGHT_CAPS[suite]
    with pytest.raises(ValueError, match=f"suite {suite} is capped at height {cap}"):
        fn(cap + 1, threads=1)
