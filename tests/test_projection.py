import random

import pytest

from cadorder import (
    Polynomial,
    PolySystem,
    Variable,
    canonicalize,
    format_ordering,
    full_projection,
    parse_ordering,
    project_once,
    projection,
)
from conftest import random_system, rename

x, y, z = Variable("x"), Variable("y"), Variable("z")
X, Y, Z = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)


class TestProjectOnce:
    def test_discriminant_and_coefficients(self):
        assert project_once([X**2 + Y], x) == (Y,)

    def test_linear_in_eliminated_variable(self):
        assert project_once([X**2 + Y], y) == (X**2,)

    def test_all_constant_coefficients(self):
        assert project_once([X - 1], x) == ()

    def test_pairwise_resultants(self):
        level = project_once([X**2 - Y, X - Y], x)
        # coefficients {1, -y, -y+... }, discriminant 4y -> y, resultant y^2 - y
        assert Y in level
        assert Y**2 - Y in level

    def test_member_free_of_the_variable_passes_through(self):
        # only the free member survives: x^2 + 1 gives constants alone
        assert project_once([X**2 + 1, 2 * Y + 2], x) == (Y + 1,)

    def test_linear_member_with_a_free_one(self):
        # x + y gives its coefficients and no discriminant
        assert project_once([X + Y, Y**2 - 2], x) == (Y, Y**2 - 2)

    def test_empty_level_rejected(self):
        with pytest.raises(ValueError, match="empty level"):
            project_once([], x)

    def test_output_is_reduced(self):
        level = project_once([2 * X**2 + 4 * Y, X * Y + 3], x)
        for p in level:
            assert canonicalize(p) == p
            assert not p.is_constant()
        assert len(set(level)) == len(level)

    def test_one_discriminant_and_one_resultant(self, monkeypatch):
        # only x^2 + y has degree 2 in x, and y^2 - 2 is free of x, so one
        # discriminant and one resultant, each of the members that need it
        level = [X**2 + Y, X * Y + 1, Y**2 - 2]
        expected = project_once(level, x)
        calls = []

        def recording(name, real):
            def call(*args):
                calls.append((name, args))
                return real(*args)
            return call
        for name in ("discriminant", "resultant"):
            monkeypatch.setattr(projection, name, recording(name, getattr(projection, name)))
        assert project_once(level, x) == expected
        assert calls == [("discriminant", (X**2 + Y, x)), ("resultant", (X**2 + Y, X * Y + 1, x))]


class TestFullProjection:
    def test_two_orderings_of_bivariate(self):
        system = PolySystem.make([X**2 + Y])
        assert full_projection(system, (y, x)).levels == ((X**2 + Y,), (Y,))
        assert full_projection(system, (x, y)).levels == ((X**2 + Y,), (X**2,))

    def test_single_variable(self):
        system = PolySystem.make([X - 1])
        assert full_projection(system, (x,)).levels == ((X - 1,),)

    def test_permutation_mismatch(self):
        system = PolySystem.make([X**2 + Y])
        with pytest.raises(ValueError, match="permutation"):
            full_projection(system, (x, z))

    def test_empty_levels_propagate(self):
        # after eliminating x, nothing nonconstant remains
        system = PolySystem.make([X - 1, X + 2], variables=[x, y, z])
        ps = full_projection(system, (z, y, x))
        assert ps.levels[1] == ()
        assert ps.levels[2] == ()

    def test_level_count_and_variable_containment(self):
        rng = random.Random(31)
        for _ in range(40):
            system = random_system(rng, 3, rng.randint(1, 3), max_degree=3)
            ordering = tuple(rng.sample(system.variables, 3))
            ps = full_projection(system, ordering)
            assert len(ps.levels) == 3
            for i, level in enumerate(ps.levels):
                allowed = set(ordering[: 3 - i])
                for p in level:
                    assert p.variables() <= allowed

    def test_renaming_equivariance(self):
        rng = random.Random(32)
        fresh = [Variable("a"), Variable("b"), Variable("c")]
        for _ in range(40):
            system = random_system(rng, 3, rng.randint(1, 3), max_degree=3)
            mapping = dict(zip(system.variables, rng.sample(fresh, 3)))
            ordering = tuple(rng.sample(system.variables, 3))
            ps = full_projection(system, ordering)
            renamed_system = PolySystem.make(
                [rename(p, mapping) for p in system.polynomials],
                variables=mapping.values(),
            )
            ps_renamed = full_projection(
                renamed_system, tuple(mapping[v] for v in ordering)
            )
            for lvl, lvl_renamed in zip(ps.levels, ps_renamed.levels):
                expected = {canonicalize(rename(p, mapping)) for p in lvl}
                assert set(lvl_renamed) == expected


class TestOrderingText:
    def test_round_trip(self):
        assert format_ordering(parse_ordering("x>y>z")) == "x>y>z"

    def test_repeated_variable(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_ordering("x>x")

    def test_names_stripped_of_spaces_and_tabs_only(self):
        assert parse_ordering(" x > y ") == (x, y)
        assert parse_ordering("x\t>\ty") == (x, y)
        with pytest.raises(ValueError, match="invalid variable name"):
            parse_ordering("x >\u3000y")
