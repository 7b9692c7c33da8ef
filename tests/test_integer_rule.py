"""The one integer rule: every integer parameter is an int or numpy integer,
not a bool, within its range, and is refused with the module's own error
(exit code 2) in the one message form of tubelab.check_int."""

from fractions import Fraction as F

import numpy as np
import pytest

import tubelab
from tubelab import exponents, fields, geometry, lemmas

EXP, GEO, LEM = exponents.ExponentDomainError, geometry.GeometryError, lemmas.LemmaError
FLD = fields.FieldError
OMEGA = lemmas.random_omega_set(3, 3, 7)

# (entry point, its module's error, a call taking the bad value, bad values);
# unchecked, each bad value raises a bare TypeError or is silently taken
ENTRY_POINTS = [
    ("sharp_line", EXP, lambda v: exponents.sharp_line(v, F(4)), (2.5, "3")),
    ("sharp_line_inverse", EXP, lambda v: exponents.sharp_line_inverse(v, F(2)), (2.5, "3")),
    ("region", EXP, lambda v: exponents.region("restriction", v), (2.5, "3")),
    ("lemma_alpha", EXP, lambda v: exponents.lemma_alpha(F(5, 2), F(10, 3), F(3, 80), v),
     (2.5, "3")),
    ("modest_threshold", EXP, exponents.modest_threshold, (2.5, "3")),
    ("whitney_exponent_check", EXP,
     lambda v: exponents.whitney_exponent_check(v, F(2), F(199, 100), F(2)), (2.5, "3")),
    ("bootstrap_iterate", EXP, lambda v: exponents.bootstrap_iterate(F(1), v),
     (2.5, True, "3")),
    ("dyadic_cubes-n", GEO, lambda v: geometry.dyadic_cubes(v, 1), (2.5, "3")),
    ("dyadic_cubes-j", GEO, lambda v: geometry.dyadic_cubes(2, v), (1.5, True, "3")),
    ("close_pairs-n", GEO, lambda v: geometry.close_pairs(v, 1), (2.5, "3")),
    ("close_pairs-j", GEO, lambda v: geometry.close_pairs(2, v), (1.5, True, "3")),
    ("DyadicCube", GEO, lambda v: geometry.DyadicCube(v, (0,)), (1.5, True, "3")),
    ("quadratic_phase", GEO, geometry.quadratic_phase, (1.5, True, "3")),
    ("cube_counts", LEM, OMEGA.cube_counts, (1.5, True, "3")),
    ("stopping_thresholds-j0", LEM, lambda v: lemmas.stopping_thresholds(v, 2.0),
     (2.5, "3")),
    ("stopping_thresholds-m", LEM, lambda v: lemmas.stopping_thresholds(3, 2.0, m=v),
     (2.5, "3")),
    ("stopping_thresholds-max_level", LEM,
     lambda v: lemmas.stopping_thresholds(3, 2.0, max_level=v), (2.5, True, "3")),
    ("xr_bounds_check", LEM, lambda v: lemmas.xr_bounds_check(OMEGA, v, 2.0, F(1)),
     (1.5, True, "3")),
    ("random_omega_set-seed", LEM, lambda v: lemmas.random_omega_set(3, 3, v),
     (2.5, -1, True, "3")),
    ("quasi_orthogonality_ratio-seed", LEM,
     lambda v: lemmas.quasi_orthogonality_ratio([lemmas.FreqRect((0,), (4,))], v, 2.0),
     (2.5, -1, True, "3")),
    ("grid_from_sampler", FLD,
     lambda v: fields.grid_from_sampler(lambda P: np.ones(len(P)), [0.0], [1.0], [v]),
     (4.7, True, 0, "4")),
]


@pytest.mark.parametrize("error, call, bad", [
    pytest.param(error, call, bad, id=f"{name}-{bad!r}")
    for name, error, call, bads in ENTRY_POINTS for bad in bads])
def test_an_integer_parameter_that_is_not_an_integer_is_refused(error, call, bad):
    with pytest.raises(error, match=f", an integer, got .* = {bad!r}$") as err:
        call(bad)
    assert err.value.exit_code == 2


def test_the_message_names_the_parameter_and_its_range():
    with pytest.raises(tubelab.TubelabError) as err:
        tubelab.check_int("n", 2.5, 2)
    assert str(err.value) == "need n >= 2, an integer, got n = 2.5"
    with pytest.raises(GEO) as err:
        tubelab.check_int("j", 11, -511, 10, GEO)
    assert str(err.value) == "need j in [-511, 10], an integer, got j = 11"
    with pytest.raises(LEM, match="got j = -1$"):
        tubelab.check_int("j", -1, 0, 3, LEM)
    assert tubelab.check_int("j", -511, -511, 10) is None


def test_an_integer_is_an_int_or_numpy_integer_and_not_a_bool():
    for v in (0, -3, 2**70, np.int64(3), np.uint8(3), np.int32(-1)):
        assert tubelab.is_int(v)
    for v in (True, False, np.bool_(True), 2.0, np.float64(2.0), F(2), "2", None, [2]):
        assert not tubelab.is_int(v)


def test_numpy_integers_are_taken_like_ints():
    assert exponents.sharp_line(np.int64(3), F(4)) == exponents.sharp_line(3, F(4))
    assert geometry.dyadic_cubes(np.int32(3), np.int64(1)) == geometry.dyadic_cubes(3, 1)
    assert np.array_equal(OMEGA.cube_counts(np.int64(2)), OMEGA.cube_counts(2))
