import math

import pytest

from telegraph import (
    MotionParams,
    TelegraphPath,
    VelocitySign,
    first_passage,
    first_return,
    position_at,
    running_max,
    running_min,
)
from telegraph.path import validate

PARAMS = MotionParams(c=1.0, lam=1.0)


def test_velocity_sign_values():
    assert VelocitySign.PLUS.value == "+"
    assert VelocitySign.MINUS.value == "-"
    assert VelocitySign.PLUS.value_sign == 1
    assert VelocitySign.MINUS.value_sign == -1


def test_motion_params_validation():
    with pytest.raises(ValueError):
        MotionParams(c=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        MotionParams(c=1.0, lam=-2.0)


@pytest.mark.parametrize("v0", [VelocitySign.PLUS, VelocitySign.MINUS])
def test_position_no_switches_is_linear(v0):
    path = TelegraphPath(v0=v0, horizon=2.0)
    sgn = v0.value_sign
    for s in (0.0, 0.5, 1.3, 2.0):
        assert position_at(path, s, PARAMS) == pytest.approx(sgn * s)


def test_position_piecewise_linear_midpoints():
    # +c on (0, 1.5), -c on (1.5, 3), +c on (3, 4)
    path = TelegraphPath(v0=VelocitySign.PLUS, horizon=4.0, switch_times=(1.5, 3.0))
    assert position_at(path, 1.5, PARAMS) == pytest.approx(1.5)
    assert position_at(path, 3.0, PARAMS) == pytest.approx(0.0)
    assert position_at(path, 4.0, PARAMS) == pytest.approx(1.0)
    assert position_at(path, 2.0, PARAMS) == pytest.approx(1.0)


def test_running_extrema_at_vertices():
    path = TelegraphPath(v0=VelocitySign.PLUS, horizon=4.0, switch_times=(1.5, 3.0))
    assert running_max(path, PARAMS) == pytest.approx(1.5)
    assert running_min(path, PARAMS) == pytest.approx(0.0)
    down = TelegraphPath(v0=VelocitySign.MINUS, horizon=4.0, switch_times=(1.5, 3.0))
    assert running_max(down, PARAMS) == pytest.approx(0.0)
    assert running_min(down, PARAMS) == pytest.approx(-1.5)


def test_first_passage_interpolates_inside_segment():
    path = TelegraphPath(v0=VelocitySign.PLUS, horizon=4.0, switch_times=(1.5, 3.0))
    assert first_passage(path, 1.0, PARAMS) == pytest.approx(1.0)
    assert first_passage(path, 1.5, PARAMS) == pytest.approx(1.5)
    assert first_passage(path, 2.0, PARAMS) is None


def test_first_passage_found_after_dip():
    path = TelegraphPath(v0=VelocitySign.MINUS, horizon=4.0, switch_times=(0.5,))
    # down to -0.5, then up with slope +1: hits 1.0 at time 2.0
    assert first_passage(path, 1.0, PARAMS) == pytest.approx(2.0)


def test_first_return_is_first_positive_zero():
    path = TelegraphPath(v0=VelocitySign.PLUS, horizon=4.0, switch_times=(1.5, 3.0))
    assert first_return(path, PARAMS) == pytest.approx(3.0)
    no_return = TelegraphPath(v0=VelocitySign.PLUS, horizon=4.0, switch_times=(3.0,))
    assert first_return(no_return, PARAMS) is None


def test_first_return_scales_with_speed():
    fast = MotionParams(c=3.0, lam=1.0)
    path = TelegraphPath(v0=VelocitySign.MINUS, horizon=4.0, switch_times=(1.0,))
    assert first_return(path, fast) == pytest.approx(2.0)


def test_validate_rejects_bad_switch_times():
    assert validate(TelegraphPath(VelocitySign.PLUS, 1.0, (0.2, 0.7))) is None
    with pytest.raises(ValueError):
        TelegraphPath(VelocitySign.PLUS, 1.0, (0.7, 0.2))
    with pytest.raises(ValueError):
        TelegraphPath(VelocitySign.PLUS, 1.0, (0.2, 1.2))
    with pytest.raises(ValueError):
        TelegraphPath(VelocitySign.PLUS, -1.0, ())


def test_position_respects_speed():
    fast = MotionParams(c=2.5, lam=1.0)
    path = TelegraphPath(v0=VelocitySign.PLUS, horizon=2.0, switch_times=(1.0,))
    assert position_at(path, 2.0, fast) == pytest.approx(0.0)
    assert running_max(path, fast) == pytest.approx(2.5)
    assert math.isclose(running_min(path, fast), 0.0, abs_tol=1e-15)
