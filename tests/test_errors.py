import math

import numpy as np
import pytest

from crosssec import (DesignSpec, FabricationParams, arc_points,
                      area_max_oracle, center_area, center_area_derivative,
                      eversion_force, membrane_curvature,
                      solve_center_arc_angle, solve_side_height,
                      sweep_constant_perimeter)
from crosssec.errors import check_number


class TestCheckNumber:
    @pytest.mark.parametrize("kind, value", [
        ("real", -math.inf), ("real", math.nan), ("finite", -1.5),
        ("non-negative", 0.0), ("positive", 1e-300), ("integer", 7.0),
    ])
    def test_accepts(self, kind, value):
        number = check_number(value, "x", kind)
        assert number == value or math.isnan(number) and math.isnan(value)

    @pytest.mark.parametrize("kind, value, message", [
        ("positive", 0.0, "x must be positive and finite, got 0.0"),
        ("positive", math.inf, "x must be positive and finite, got inf"),
        ("positive", math.nan, "x must be positive and finite, got nan"),
        ("non-negative", -1, "x must be non-negative and finite, got -1"),
        ("non-negative", math.inf, "x must be non-negative and finite"),
        ("finite", math.nan, "x must be finite, got nan"),
        ("finite", -math.inf, "x must be finite, got -inf"),
        ("integer", 20.5, "x must be an integer, got 20.5"),
        ("integer", math.inf, "x must be an integer, got inf"),
        ("real", 10**400, "x is out of range"),
        ("integer", 10**400, "x is out of range"),
        ("real", True, "x must be a number, got True"),
        ("real", np.True_, "x must be a number"),
        ("real", None, "x must be a number, got None"),
        ("real", "1", "x must be a number, got '1'"),
        ("real", [1.0], "x must be a number, got [1.0]"),
    ])
    def test_refuses(self, kind, value, message):
        with pytest.raises(ValueError) as info:
            check_number(value, "x", kind)
        assert message in str(info.value)

    def test_float_comes_back_as_is(self):
        value = 101.6
        assert check_number(value, "x", "positive") is value

    @pytest.mark.parametrize("value", [np.float32(2.5), np.float64(2.5),
                                       np.int64(3), 3])
    def test_other_reals_become_plain_floats(self, value):
        number = check_number(value, "x", "positive")
        assert type(number) is float
        assert number == float(value)

    @pytest.mark.parametrize("value", [1e6, np.float32(1e6), np.int64(10**6),
                                       10**6])
    def test_integer_kind_returns_an_int(self, value):
        number = check_number(value, "x", "integer")
        assert type(number) is int and number == 10**6

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown kind"):
            check_number(1.0, "x", "positiv")


#: Every public entry point that takes numbers, with valid arguments.
#: The values are integral so that each also has an ``np.int64`` form.
ENTRIES = {
    "DesignSpec": (DesignSpec, (100, 50, 190)),
    "FabricationParams": (FabricationParams, (152, 127, 76)),
    "center_area": (center_area, (152, 76, 2)),
    "center_area_derivative": (center_area_derivative, (152, 76, 2)),
    "solve_center_arc_angle": (solve_center_arc_angle, (152, 76)),
    "solve_side_height": (solve_side_height, (127, 76)),
    "area_max_oracle": (area_max_oracle, (152, 76, 1000)),
    "arc_points": (arc_points, (0, 0, 5, 0, 1, 1)),
    "eversion_force": (eversion_force, (34, 100)),
    "membrane_curvature": (membrane_curvature, (34, 1)),
    "sweep_constant_perimeter": (
        lambda p, s, l: sweep_constant_perimeter(p, [s], [l]), (558, 152, 76)),
}

#: Values no numeric input may take.  Non-finite ones are refused except
#: where a value's range is reported elsewhere (the sweep grid entries,
#: whose cells are recorded as infeasible).
NOT_NUMBERS = [None, True, "1", [1.0], 10**400]
NOT_FINITE = [math.nan, math.inf]

#: (entry, argument position) pairs that take any real.
ANY_REAL = {("sweep_constant_perimeter", 1), ("sweep_constant_perimeter", 2)}


def _call(name, position, value):
    func, args = ENTRIES[name]
    args = list(args)
    args[position] = value
    return func(*args)


def _bad_cases():
    for name, (_, args) in ENTRIES.items():
        for position in range(len(args)):
            bad = NOT_NUMBERS
            if (name, position) not in ANY_REAL:
                bad = bad + NOT_FINITE
            for value in bad:
                yield pytest.param(name, position, value,
                                   id=f"{name}-{position}-{value!r:.12}")


def _numpy_cases():
    for name, (_, args) in ENTRIES.items():
        for position in range(len(args)):
            for dtype in (np.int64, np.float32):
                yield pytest.param(name, position, dtype,
                                   id=f"{name}-{position}-{dtype.__name__}")


class TestLibraryBoundary:
    @pytest.mark.parametrize("name, position, value", _bad_cases())
    def test_bad_value_is_a_value_error(self, name, position, value):
        # never a TypeError or an OverflowError
        with pytest.raises(ValueError):
            _call(name, position, value)

    @pytest.mark.parametrize("name, position, dtype", _numpy_cases())
    def test_numpy_scalar_accepted(self, name, position, dtype):
        valid = ENTRIES[name][1][position]
        assert repr(_call(name, position, dtype(valid))) == repr(
            _call(name, position, valid))

    def test_records_store_plain_floats(self):
        spec = DesignSpec(np.float32(100.5), np.int64(50), 190)
        assert [type(v) for v in (spec.center_height, spec.side_height,
                                  spec.width)] == [float] * 3
        assert spec == DesignSpec(100.5, 50.0, 190.0)

    def test_float_fields_kept_as_given(self):
        width = 190.0
        assert DesignSpec(100.0, 50.0, width).width is width


class TestReportedDefects:
    # each of these was accepted, silently wrong, or a TypeError or an
    # OverflowError before every input went through check_number
    def test_fractional_grid_points_refused(self):
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            area_max_oracle(152.0, 76.2, grid_points=1500.5)

    def test_bool_spec_field_refused(self):
        with pytest.raises(ValueError, match="center_height must be a number"):
            DesignSpec(True, 1, 3)

    def test_bool_pressure_refused(self):
        with pytest.raises(ValueError, match="pressure must be a number"):
            eversion_force(True, 5)

    @pytest.mark.parametrize("record, args, name", [
        (DesignSpec, (10**400, 1, 3), "center_height"),
        (FabricationParams, (1, 1, 10**400), "strip_width"),
    ])
    def test_huge_integer_field_refused(self, record, args, name):
        with pytest.raises(ValueError, match=f"{name} is out of range"):
            record(*args)
