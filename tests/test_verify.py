import pytest

from gtrotor.verify import (
    ACCEPTANCE_HEIGHTS,
    HEIGHT_CAPS,
    suite_bispectral,
    suite_heights,
    suite_polys,
    suite_rotations,
)


@pytest.mark.parametrize(
    "suite, fn",
    [("polys", suite_polys), ("rotations", suite_rotations), ("bispectral", suite_bispectral)],
)
def test_suite_refuses_height_above_its_cap(suite, fn):
    cap = HEIGHT_CAPS[suite]
    with pytest.raises(ValueError, match=f"suite {suite} is capped at height {cap}"):
        fn(cap + 1, threads=1)


def test_default_heights_are_the_acceptance_sizes():
    """--suite all without a height runs every suite at its own acceptance
    height, each within its cap."""
    heights = suite_heights(["all"])
    assert heights == {
        "rep": 6, "polys": 5, "rotations": 5, "bispectral": 4,
        "racah-algebra": 6, "hilbert": None,
    }
    for name, height in ACCEPTANCE_HEIGHTS.items():
        assert height <= HEIGHT_CAPS.get(name, height)
    assert suite_heights(["rep", "bispectral"], 3) == {"rep": 3, "bispectral": 3}
