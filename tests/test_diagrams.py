import pytest

from skew_shapes import enumerate_skew, is_anchored
from twistfusion.diagrams import (
    SkewDiagram,
    column_tableau,
    parse_skew,
    sharp,
    ssyt_count,
)
from twistfusion.errors import MalformedShape

FIG = SkewDiagram((6, 5, 3, 1), (3, 2))


def test_parse_examples():
    assert parse_skew("6,5,3,1/3,2") == FIG
    assert parse_skew("1") == SkewDiagram((1,))
    with pytest.raises(MalformedShape):
        parse_skew("2,3/0")
    with pytest.raises(MalformedShape):
        parse_skew("3/4")
    with pytest.raises(MalformedShape):
        parse_skew("")


def test_canonical_trailing_zeros():
    assert SkewDiagram((2, 1, 0, 0), (1, 0)) == SkewDiagram((2, 1), (1,))
    assert str(SkewDiagram((2, 1), (1,))) == "2,1/1"
    assert str(SkewDiagram((3,))) == "3"


def test_column_tableau_figure():
    ct = column_tableau(FIG)
    assert ct.contents == (-2, -3, -1, 1, 0, 3, 2, 4, 3, 5)
    # contents recomputable from box coordinates
    assert all(c == j - i for (i, j), c in zip(ct.boxes, ct.contents))


def test_column_tableau_small():
    assert column_tableau(SkewDiagram((1,))).contents == (0,)
    ct = column_tableau(SkewDiagram((2, 2)))
    assert ct.boxes == ((1, 1), (2, 1), (1, 2), (2, 2))
    assert ct.contents == (0, -1, 1, 0)


def test_sharp_figure():
    rot, c = sharp(FIG)
    assert rot == SkewDiagram((6, 6, 4, 3), (5, 3, 1))
    assert c == 2


def test_sharp_single_box():
    rot, c = sharp(SkewDiagram((1,)))
    assert rot == SkewDiagram((1,))
    assert c == 0  # z_sharp = -z


def test_sharp_involution_small():
    for d in enumerate_skew(5):
        rot, c = sharp(d)
        assert rot.size == d.size
        back, c2 = sharp(rot)
        assert back == d
        assert c2 == c


def test_sharp_constancy_is_checked():
    # the constant equals c_p + c'_{sigma(p)} for every p
    for d in [FIG, SkewDiagram((3, 1)), SkewDiagram((2, 2), (1,))]:
        rot, c = sharp(d)
        c1 = column_tableau(d).contents
        c2 = column_tableau(rot).contents
        n = d.size
        assert all(c1[p] + c2[n - 1 - p] == c for p in range(n))


def test_sharp_empty():
    rot, c = sharp(SkewDiagram(()))
    assert rot.size == 0 and c == 0


@pytest.mark.parametrize(
    "dia,N,expect",
    [
        (SkewDiagram((1,)), 3, 3),
        (SkewDiagram((2, 2)), 3, 6),
        (SkewDiagram((2, 1), (1,)), 2, 4),
        (SkewDiagram((1, 1)), 2, 1),
        (SkewDiagram((2,)), 2, 3),
        (SkewDiagram(()), 3, 1),
    ],
)
def test_ssyt_counts(dia, N, expect):
    assert ssyt_count(dia, N) == expect


def test_fits_and_heights():
    assert SkewDiagram((1, 1, 1)).max_column_height() == 3
    assert not SkewDiagram((1, 1, 1)).fits(2)
    assert SkewDiagram((2, 2), (1,)).fits(2)


def test_enumerate_is_anchored_and_bounded():
    seen = set()
    for d in enumerate_skew(3):
        assert 0 < d.size <= 3
        assert is_anchored(d)
        assert d not in seen
        seen.add(d)
    assert SkewDiagram((2, 1), (1,)) in seen
    assert SkewDiagram((3,)) in seen
    assert SkewDiagram((1, 1, 1)) in seen
