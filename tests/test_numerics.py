"""The floor-sum kernel against direct sums and the full-period closed form,
the integer-argument check that every entry point shares, and the value
semantics that the package's classes take from ``Frozen``."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effcone import (
    DivisorSpec,
    FamilyRequest,
    RationalPoint,
    ReductionChain,
    branch_interval,
    calibrate_delta,
    classify,
    coefficients,
    deficit,
    floor_sum_linear,
    frac_sum,
    gamma_search,
    make_surface,
    paper_delta,
    reduce_chain,
    section_counts,
    standard_chain,
    step_error,
    step_error_bounds,
    sweep,
    triangle,
)
from effcone.numerics import Frozen, require_int
from effcone.verify import margin_at_multiple

from conftest import (
    c0_middle_terms,
    c0_upper_bound,
    floor_sum,
    full_sum,
    outer_bound,
    reference_triangle,
)


small_or_huge = st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30))


class TestFloorSumLinear:
    @pytest.mark.parametrize(
        "n, m, a, b, expected",
        [(0, 5, 3, 2, 0), (4, 3, 2, 1, 4), (5, 1, 0, -3, -15), (3, 4, -5, 1, -4)],
    )
    def test_frozen(self, n, m, a, b, expected):
        assert floor_sum_linear(n, m, a, b) == expected

    @given(st.integers(0, 80), st.one_of(st.integers(1, 50), st.integers(1, 10**12)),
           small_or_huge, small_or_huge)
    @settings(max_examples=300)
    @example(1, 1, 0, 0)
    @example(7, 10**12, -(10**30), 10**30 - 1)
    def test_direct_sum(self, n, m, a, b):
        assert floor_sum_linear(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @given(st.integers(1, 10**15), st.integers(1, 10**15))
    def test_full_period_closed_form(self, a, m):
        # Over a whole period the sum is the closed form (a-1)(m-1)/2 of
        # floor_sum in conftest, which is out of reach of a direct sum here.
        if gcd(a, m) != 1:
            return
        assert floor_sum_linear(m, m, a, 0) == floor_sum(a, m)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="n >= 0"):
            floor_sum_linear(-1, 3, 1, 0)
        with pytest.raises(ValueError, match="m >= 1"):
            floor_sum_linear(3, 0, 1, 0)


P457 = make_surface(4, 5, 7)
CLS457 = classify(5, -2)[0]
CHAIN = ReductionChain(pairs=((3, 7), (1, 2)))

# One row per checked argument: (id, call taking the argument, its name, its
# least value or None, a value the call accepts).
INT_ARGUMENTS = [
    ("floor_sum_linear-n", lambda v: floor_sum_linear(v, 3, 1, 0), "n", 0, 4),
    ("floor_sum_linear-m", lambda v: floor_sum_linear(3, v, 1, 0), "m", 1, 2),
    ("DivisorSpec-n", lambda v: DivisorSpec("B", v), "n", 1, 3),
    ("coefficients-n", lambda v: coefficients(P457, "B", v), "n", 1, 2),
    ("c0_middle_terms-n", lambda v: c0_middle_terms(P457, v), "n", 0, 0),
    ("c0_upper_bound-n", lambda v: c0_upper_bound(P457, v), "n", 1, 1),
    ("section_counts-n_max", lambda v: section_counts(P457, "B", v), "n_max", 1, 2),
    ("FamilyRequest-alpha", lambda v: FamilyRequest(v, 3, 1, 2), "alpha", None, 1),
    ("FamilyRequest-beta", lambda v: FamilyRequest(1, v, 1, 2), "beta", None, 3),
    ("FamilyRequest-tau", lambda v: FamilyRequest(1, 3, v, 2), "tau", None, -1),
    ("FamilyRequest-count", lambda v: FamilyRequest(1, 3, 1, v), "count", 1, 2),
    ("frac_sum-beta", lambda v: frac_sum(1, v, 0), "beta", 1, 5),
    ("frac_sum-u", lambda v: frac_sum(2, 5, v), "u", 0, 7),
    ("frac_sum-alpha", lambda v: frac_sum(v, 5, 3), "alpha", None, 2),
    ("deficit-beta", lambda v: deficit(v, 0, 1), "beta", 1, 2),
    ("deficit-u", lambda v: deficit(5, v, 2), "u", None, 1),
    ("deficit-alpha", lambda v: deficit(5, 1, v), "alpha", None, 2),
    ("floor_sum-alpha", lambda v: floor_sum(v, 5), "alpha", None, 2),
    ("floor_sum-beta", lambda v: floor_sum(2, v), "beta", None, 5),
    ("full_sum-alpha0", lambda v: full_sum(v, 5, 2, -1), "alpha0", None, 3),
    ("full_sum-beta0", lambda v: full_sum(3, v, 2, -1), "beta0", None, 5),
    ("full_sum-beta1", lambda v: full_sum(3, 5, v, -1), "beta1", None, 2),
    ("full_sum-sigma", lambda v: full_sum(2, 5, 2, v), "sigma", None, 1),
    ("step_error-sigma", lambda v: step_error(v, 0, 1, 5, 2), "sigma", None, 1),
    ("step_error-t", lambda v: step_error(1, v, 0, 5, 2), "t", 0, 1),
    ("step_error-u", lambda v: step_error(1, 0, v, 5, 2), "u", None, 1),
    ("step_error-beta0", lambda v: step_error(1, 0, 1, v, 2), "beta0", None, 5),
    ("step_error-beta1", lambda v: step_error(1, 0, 1, 5, v), "beta1", None, 2),
    ("paper_delta-sigma", lambda v: paper_delta(v, 0, 1, 5, 2), "sigma", None, -1),
    ("paper_delta-t", lambda v: paper_delta(-1, v, 1, 5, 2), "t", 0, 3),
    ("step_error_bounds-sigma", lambda v: step_error_bounds(v, 5, 3), "sigma", None, -1),
    ("step_error_bounds-beta0", lambda v: step_error_bounds(-1, v, 3), "beta0", None, 5),
    ("step_error_bounds-beta1", lambda v: step_error_bounds(-1, 5, v), "beta1", None, 3),
    ("ReductionChain-alpha", lambda v: ReductionChain(pairs=((v, 7), (1, 2))), "alpha", None, 3),
    ("ReductionChain-beta", lambda v: ReductionChain(pairs=((3, v), (1, 2))), "beta", None, 7),
    ("reduce_chain-u0", lambda v: reduce_chain(CHAIN, v), "u0", None, 4),
    ("standard_chain-entry", lambda v: standard_chain(v, 2), "entry", None, 2),
    ("standard_chain-k", lambda v: standard_chain(2, v), "k", 1, 1),
    ("outer_bound-k", outer_bound, "k", 1, 1),
    ("branch_interval-k", lambda v: branch_interval(v, "I'-"), "k", 1, 1),
    ("reference_triangle-k", lambda v: reference_triangle(v, "large"), "k", 1, 1),
    ("classify-b", lambda v: classify(v, -2), "b", 1, 5),
    ("sweep-n_max", lambda v: sweep([P457], v), "n_max", 1, 2),
    ("sweep-jobs", lambda v: sweep([P457], 2, jobs=v), "jobs", 1, 1),
    ("margin_at_multiple-t", lambda v: margin_at_multiple(CLS457, v, 3), "t", 1, 2),
    ("calibrate_delta-beta_max", lambda v: calibrate_delta(v, instances=False), "beta_max", 3, 3),
]


class TestRequireInt:
    def test_the_rule(self):
        require_int("n", 0)
        require_int("n", -5)
        require_int("n", 10**30, 1)
        for bad in (True, False, 2.5, 2.0, Fraction(2), "2", None):
            with pytest.raises(TypeError) as caught:
                require_int("n", bad, 0)
            assert str(caught.value) == f"n must be an int, got {bad!r}"
        with pytest.raises(ValueError) as caught:
            require_int("n_max", 0, 1)
        assert str(caught.value) == "require n_max >= 1, got 0"

    @pytest.mark.parametrize("call, name, least, good",
                             [row[1:] for row in INT_ARGUMENTS],
                             ids=[row[0] for row in INT_ARGUMENTS])
    def test_every_entry_point_refuses(self, call, name, least, good):
        call(good)
        for bad in (True, 2.5, Fraction(2)):
            with pytest.raises(TypeError) as caught:
                call(bad)
            assert str(caught.value) == f"{name} must be an int, got {bad!r}"
        if least is not None:
            with pytest.raises(ValueError) as caught:
                call(least - 1)
            assert str(caught.value) == f"require {name} >= {least}, got {least - 1}"

    @pytest.mark.parametrize("call, bad", [
        (lambda v: c0_upper_bound(P457, v), True),  # returned 33/35, as n = 1
        (lambda v: c0_middle_terms(P457, v), 2.5),  # died inside Fraction
        (lambda v: standard_chain(2, v), True),  # built pairs holding True
        (lambda v: floor_sum_linear(v, 2, 1, 0), 3.0),  # returned 1.0
        (lambda v: frac_sum(2, 5, v), True),
        (outer_bound, True),
        (calibrate_delta, True),
        (lambda v: frac_sum(v, 5, 3), True),  # returned 6/5, as alpha = 1
        (lambda v: deficit(5, 1, v), True),  # returned 3/5
        (lambda v: ReductionChain(pairs=((v, 2),)), True),  # stored True
        (lambda v: step_error(v, 0, 1, 5, 2), True),  # read as sigma = 1
        (lambda v: standard_chain(v, 2), True),  # read as entry 1
        (lambda v: frac_sum(v, 5, 3), 2.5),  # died inside Fraction
        (lambda v: step_error(1, 0, v, 5, 2), 1.0),  # died inside Fraction
        (lambda v: step_error_bounds(-1, v, 3), 5.0),  # died inside Fraction
    ], ids=["c0_upper_bound", "c0_middle_terms", "standard_chain", "floor_sum_linear",
            "frac_sum", "outer_bound", "calibrate_delta", "frac_sum-alpha", "deficit-alpha",
            "ReductionChain-pair", "step_error-sigma", "standard_chain-entry",
            "frac_sum-alpha-float", "step_error-u-float", "step_error_bounds-beta0-float"])
    def test_what_once_slipped_through(self, call, bad):
        with pytest.raises(TypeError, match="must be an int"):
            call(bad)


VALUE_CLASSES = (
    "RationalPoint", "RationalTriangle", "WeightedSurface", "DivisorSpec", "EhrhartCoeffs",
    "Classification", "GammaSearchResult", "StepErrorBounds", "ReductionChain", "ReductionStep",
    "ReductionTrace", "FamilyRequest",
)


def value_instances():
    """One instance of each of the package's twelve value classes, built
    afresh on every call, with its ``repr`` as a frozen dataclass wrote it."""
    chain = ReductionChain(pairs=((3, 7), (1, 2)))
    surface = make_surface(4, 5, 7)
    step = "ReductionStep(alpha=1, beta=2, sigma=1, t=2, u=0, error=Fraction(-11, 28))"
    return [
        (RationalPoint(Fraction(1, 2), Fraction(-3)),
         "RationalPoint(x=Fraction(1, 2), y=Fraction(-3, 1))"),
        (triangle((0, 0), (1, 0), ("1/3", 2)),
         "RationalTriangle(vertices=(RationalPoint(x=Fraction(0, 1), y=Fraction(0, 1)), "
         "RationalPoint(x=Fraction(1, 1), y=Fraction(0, 1)), "
         "RationalPoint(x=Fraction(1, 3), y=Fraction(2, 1))))"),
        (surface, "P(4,5,7)"),
        (DivisorSpec("B", 3), "DivisorSpec(family='B', n=3)"),
        (coefficients(surface, "B", 1),
         "EhrhartCoeffs(c2=Fraction(10, 7), c1=Fraction(8, 7), c0=Fraction(3, 7), n=1, "
         "family='B')"),
        (classify(5, -2)[0],
         "Classification(k=2, branch=\"I'-\", m0=7, family='B', nu0=12, "
         "gamma_pred=Fraction(12, 1))"),
        (gamma_search(surface, 2),
         "GammaSearchResult(best=Fraction(21, 2), witnesses=(('B', 2, 3),), "
         "columns=(('B', 7, (3, 9), (1, 3)), ('C', 5, (5, 15), (2, 4))), "
         "prediction=Fraction(12, 1), matches=False)"),
        (step_error_bounds(-1, 5, 3),
         "StepErrorBounds(lower=Fraction(1, 15), upper_small=Fraction(1, 24), "
         "upper_large=Fraction(1, 1))"),
        (chain, "ReductionChain(pairs=((3, 7), (1, 2)), sigmas=(1,))"),
        (reduce_chain(chain, 4).steps[0], step),
        (reduce_chain(chain, 4),
         f"ReductionTrace(steps=({step},), terminal=Fraction(1, 4), total=Fraction(-1, 7))"),
        (FamilyRequest(1, 3, 1, 2, interval=("5/2", 3)),
         "FamilyRequest(alpha=1, beta=3, tau=1, count=2, "
         "interval=(Fraction(5, 2), Fraction(3, 1)))"),
    ]


class TestValueClasses:
    def test_the_twelve_classes(self):
        assert tuple(type(value).__name__ for value, _ in value_instances()) == VALUE_CLASSES
        for value, _ in value_instances():
            cls = type(value)
            # A docstring of its own, not one made up from the signature.
            assert isinstance(value, Frozen) and not cls.__doc__.startswith(f"{cls.__name__}(")

    @pytest.mark.parametrize("index", range(len(VALUE_CLASSES)), ids=VALUE_CLASSES)
    def test_value_semantics(self, index):
        value, text = value_instances()[index]
        twin, _ = value_instances()[index]
        other, _ = value_instances()[index - 1]
        assert twin is not value and twin == value and not twin != value
        assert value.__eq__(other) is NotImplemented and value != other
        assert hash(value) == hash(twin) == hash(tuple(vars(value).values()))
        assert repr(value) == text
        name = next(iter(vars(value)))
        for attribute in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attribute, 1)
            with pytest.raises(AttributeError):
                delattr(value, attribute)
        assert repr(value) == text and "extra" not in vars(value)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(value, protocol))
            assert type(loaded) is type(value) and loaded == value, protocol
            assert list(vars(loaded).items()) == list(vars(value).items()), protocol
        deep = copy.deepcopy(value)
        assert deep is not value and deep == value and repr(deep) == text
