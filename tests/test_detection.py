"""Threshold click model: exact probabilities and their small-signal limit."""

from fractions import Fraction

import pytest

from biphoton import DetectorModel, click_prob


def test_exact_clicks_on_known_cases():
    assert click_prob(DetectorModel(0.3), 1) == pytest.approx(0.3, rel=1e-15)
    assert click_prob(DetectorModel(0.3), 2) == pytest.approx(0.51, rel=1e-15)
    assert click_prob(DetectorModel(0.0, 0.01), 5) == pytest.approx(0.01, rel=1e-15)
    assert click_prob(DetectorModel(0.25, 0.001), 0) == pytest.approx(0.001, rel=1e-15)
    assert click_prob(DetectorModel(1.0), 1) == 1.0
    assert click_prob(DetectorModel(0.0), 7) == 0.0


def test_exact_mode_is_fraction_transparent():
    # exact rational inputs must come back as exact rationals, so the
    # enumeration cross-checks elsewhere can assert bitwise equality
    det = DetectorModel(Fraction(1, 3), Fraction(1, 100))
    got = click_prob(det, 2)
    assert isinstance(got, Fraction)
    assert got == 1 - Fraction(99, 100) * Fraction(2, 3) ** 2


def test_exact_mode_monotone_and_bounded():
    grid = [0.0, 0.05, 0.3, 0.9, 1.0]
    darks = [0.0, 1e-4, 0.2]
    for d in darks:
        for a in grid:
            det = DetectorModel(a, d)
            probs = [click_prob(det, x) for x in range(12)]
            assert probs[0] == d
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert all(b >= a for a, b in zip(probs, probs[1:]))
    for x in (0, 1, 4):
        for d in darks:
            vals = [click_prob(DetectorModel(a, d), x) for a in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for a in grid:
            vals = [click_prob(DetectorModel(a, d), x) for d in darks]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_linearization_error_is_second_order():
    # |exact - linear| <= (x*alpha + d)^2 whenever x*alpha + d <= 0.1
    for alpha in (1e-4, 1e-3, 0.01, 0.025):
        for dark in (0.0, 1e-5, 1e-3):
            for x in range(5):
                lin = x * alpha + dark
                if lin > 0.1:
                    continue
                exact = click_prob(DetectorModel(alpha, dark), x)
                assert abs(exact - lin) <= lin * lin


def test_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(-0.1)
    with pytest.raises(ValueError):
        DetectorModel(1.1)
    with pytest.raises(ValueError):
        DetectorModel(0.5, 1.0)
    with pytest.raises(ValueError):
        DetectorModel(0.5, -0.1)
    with pytest.raises(ValueError):
        click_prob(DetectorModel(0.5), -1)
    for alpha, dark, name in (("0.1", 0.0, "alpha"), (True, 0.0, "alpha"), (0.1, "0", "dark")):
        with pytest.raises(TypeError, match=name):
            DetectorModel(alpha, dark)
    exact = DetectorModel(Fraction(1, 3), Fraction(1, 100))
    assert click_prob(exact, 1) == Fraction(1, 100) + Fraction(99, 100) * Fraction(1, 3)
