import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from platoon_stab import (
    ControllerSpec,
    ErrorModel,
    InvalidPlatoonError,
    UnsupportedControllerError,
    controller_spec_from_dict,
    controller_spec_to_dict,
    error_model,
    failed_conjunct,
)
from platoon_stab.model import _MODELS
from conftest import AUT, BI, CS, NON, SUPPORTED_COMBOS, UNI, VS, VTH, make_params, make_spec, random_params


class TestValidity:
    def test_all_positive_params_valid(self, base_params):
        assert failed_conjunct(base_params) is None

    def test_zero_mass_invalid(self):
        assert failed_conjunct(make_params(m=0.0)) is not None

    def test_single_vehicle_invalid(self):
        assert failed_conjunct(make_params(n=1)) is not None

    def test_minimum_platoon_of_two_valid(self):
        assert failed_conjunct(make_params(n=2)) is None

    @pytest.mark.parametrize("field,conjunct", [
        ("m", "0 < m"), ("k", "0 < k"), ("c", "0 < c"), ("h", "0 < h"),
        ("ch", "0 < ch"), ("vd", "0 < vd"), ("h0", "0 < h0"),
        ("ca", "0 < ca"), ("cd", "0 < cd"),
    ])
    def test_each_conjunct_named(self, field, conjunct):
        assert failed_conjunct(make_params(**{field: 0.0})) == conjunct
        assert failed_conjunct(make_params(**{field: -1.0})) == conjunct

    def test_vehicle_count_conjunct_named(self):
        assert failed_conjunct(make_params(n=1)) == "1 < n"
        assert failed_conjunct(make_params(n=0)) == "1 < n"

    def test_valid_params_have_no_failed_conjunct(self, base_params):
        assert failed_conjunct(base_params) is None

    def test_nonfinite_fields_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make_params(m=float("nan"))
        with pytest.raises(ValueError):
            make_params(k=float("inf"))
        with pytest.raises(ValueError):
            make_params(n=2.5)

    def test_integer_beyond_float_range_rejected_at_construction(self):
        with pytest.raises(ValueError, match="m must be finite"):
            make_params(m=10**400)


class TestErrorModel:
    def test_unidirectional_constant_spacing_coefficients(self, const_spacing_spec):
        model = error_model(const_spacing_spec)
        assert model == ErrorModel(a0=2.0, a1=0.4, b0=2.0, b1=0.4)

    def test_bidirectional_constant_spacing_coefficients(self):
        model = error_model(make_spec(AUT, BI, CS))
        assert model == ErrorModel(a0=4.0, a1=0.8, b0=2.0, b1=0.4)

    def test_variable_time_headway_coefficients(self):
        # Independent arithmetic: (400 + 2000*1 + 2000*0.01*25)/1000 = 2.9
        # and (400 + 2000*0.01*25)/1000 = 0.9.
        model = error_model(make_spec(AUT, UNI, VTH, ch=0.01))
        assert model.a0 == pytest.approx(2.0, abs=1e-15)
        assert model.a1 == pytest.approx(2.9, abs=1e-12)
        assert model.b0 == pytest.approx(2.0, abs=1e-15)
        assert model.b1 == pytest.approx(0.9, abs=1e-12)

    def test_all_models_match_reference_formulas(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_params(rng)
            expected = {
                (AUT, UNI, CS): (p.k / p.m, p.c / p.m, p.k / p.m, p.c / p.m),
                (AUT, UNI, VS): (p.k / p.m, (p.c + p.k * p.h) / p.m, p.k / p.m, p.c / p.m),
                (AUT, UNI, VTH): (
                    p.k / p.m,
                    (p.c + p.k * p.h0 + p.k * p.ch * p.vd) / p.m,
                    p.k / p.m,
                    (p.c + p.k * p.ch * p.vd) / p.m,
                ),
                (AUT, BI, CS): (2 * p.k / p.m, 2 * p.c / p.m, p.k / p.m, p.c / p.m),
                (AUT, BI, VS): (2 * p.k / p.m, (2 * p.c + p.k * p.h) / p.m, p.k / p.m, p.c / p.m),
                (NON, UNI, CS): (p.k / p.m, (p.c + p.ca) / p.m, p.k / p.m, p.c / p.m),
            }
            for combo, (a0, a1, b0, b1) in expected.items():
                model = error_model(ControllerSpec(*combo, p))
                assert model.a0 == pytest.approx(a0, rel=1e-14)
                assert model.a1 == pytest.approx(a1, rel=1e-14)
                assert model.b0 == pytest.approx(b0, rel=1e-14)
                assert model.b1 == pytest.approx(b1, rel=1e-14)

    def test_model_table_runs_exactly_on_fractions(self):
        p = SimpleNamespace(**{key: Fraction(value)
                               for key, value in dataclasses.asdict(make_params()).items()})
        for formulas in _MODELS.values():
            coefficients = formulas(p)
            assert len(coefficients) == 4
            assert all(type(x) is Fraction for x in coefficients)

    def test_coefficients_positive_for_valid_platoons(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_params(rng)
            for combo in SUPPORTED_COMBOS:
                model = error_model(ControllerSpec(*combo, p))
                assert model.a0 > 0 and model.a1 > 0 and model.b0 > 0 and model.b1 > 0

    def test_non_autonomous_ignores_configuration_and_strategy(self, base_params):
        models = {
            error_model(ControllerSpec(NON, cf, st, base_params))
            for cf in (UNI, BI) for st in (CS, VS, VTH)
        }
        assert len(models) == 1
        (model,) = models
        assert model.a1 == pytest.approx((400.0 + 50.0) / 1000.0)

    def test_variable_spacing_reduces_to_constant_spacing_as_h_vanishes(self):
        vs = error_model(make_spec(AUT, UNI, VS, h=1e-30))
        cs = error_model(make_spec(AUT, UNI, CS))
        for field in ("a0", "a1", "b0", "b1"):
            assert abs(getattr(vs, field) - getattr(cs, field)) < 1e-12

    def test_variable_headway_reduces_to_constant_spacing_in_the_limit(self):
        vth = error_model(make_spec(AUT, UNI, VTH, h0=1e-30, ch=1e-30))
        cs = error_model(make_spec(AUT, UNI, CS))
        for field in ("a0", "a1", "b0", "b1"):
            assert abs(getattr(vth, field) - getattr(cs, field)) < 1e-12

    def test_bidirectional_doubles_left_hand_side_only(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng)
            uni = error_model(ControllerSpec(AUT, UNI, CS, p))
            bi = error_model(ControllerSpec(AUT, BI, CS, p))
            assert bi.a0 == 2.0 * uni.a0
            assert bi.a1 == 2.0 * uni.a1
            assert bi.b0 == uni.b0
            assert bi.b1 == uni.b1

    def test_pure_function_bitwise_repeatable(self, const_spacing_spec):
        first = error_model(const_spacing_spec)
        second = error_model(const_spacing_spec)
        assert (first.a0, first.a1, first.b0, first.b1) == (
            second.a0, second.a1, second.b0, second.b1)

    def test_invalid_platoon_rejected_with_conjunct(self):
        with pytest.raises(InvalidPlatoonError, match="0 < h violated"):
            error_model(make_spec(h=0.0))
        with pytest.raises(InvalidPlatoonError, match="1 < n violated"):
            error_model(make_spec(n=1))

    def test_bidirectional_variable_headway_unsupported(self):
        with pytest.raises(UnsupportedControllerError):
            error_model(make_spec(AUT, BI, VTH))


class TestSpecJson:
    def test_round_trip(self):
        spec = make_spec(NON, BI, VS, ch=0.25)
        assert controller_spec_from_dict(controller_spec_to_dict(spec)) == spec

    def test_enums_serialised_as_wire_strings(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        assert obj["controller_type"] == "autonomous"
        assert obj["configuration"] == "unidirectional"
        assert obj["strategy"] == "constant_spacing"

    def test_unknown_enum_value_rejected(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        obj["strategy"] = "adaptive"
        with pytest.raises(ValueError, match="strategy"):
            controller_spec_from_dict(obj)

    def test_unknown_and_missing_keys_rejected(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        obj["params"]["mass"] = 1.0
        with pytest.raises(ValueError, match="unknown key 'mass'"):
            controller_spec_from_dict(obj)
        obj = controller_spec_to_dict(const_spacing_spec)
        del obj["params"]["cd"]
        with pytest.raises(ValueError, match="missing key 'cd'"):
            controller_spec_from_dict(obj)

    def test_vehicle_count_must_be_nonnegative_integer(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        obj["params"]["n"] = 2.0
        with pytest.raises(ValueError, match="params.n"):
            controller_spec_from_dict(obj)
        obj["params"]["n"] = -1
        with pytest.raises(ValueError, match="params.n"):
            controller_spec_from_dict(obj)

    def test_nonfinite_number_rejected(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        obj["params"]["m"] = math.inf
        with pytest.raises(ValueError, match="params.m"):
            controller_spec_from_dict(obj)

    def test_parse_time_zero_n_is_valid_json_but_invalid_platoon(self, const_spacing_spec):
        obj = controller_spec_to_dict(const_spacing_spec)
        obj["params"]["n"] = 0
        spec = controller_spec_from_dict(obj)
        assert failed_conjunct(spec.params) is not None
