import random
import re
from fractions import Fraction

import pytest

from chevkern.derivations import (
    BaseRing,
    PointNotOnVarietyError,
    PresentedAlgebra,
    ProblemFormatError,
    apply_derivation,
    der_dim,
    extend_point,
    localize,
    number_ring_rigidity,
    parse_problem,
    smoothness_scan,
)
from chevkern.kernel import MultiPoly, NumberField, parse_polynomial


X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")


def cusp():
    return PresentedAlgebra(BaseRing("rational"), ("X", "Y"), (X ** 3 - Y ** 2,))


def test_cusp_dimension_jump_at_origin():
    alg = cusp()
    assert der_dim(alg, {"X": 0, "Y": 0}).dim == 2
    assert der_dim(alg, {"X": 1, "Y": 1}).dim == 1
    assert der_dim(alg, {"X": 4, "Y": 8}).dim == 1


def test_cusp_tangent_direction():
    report = der_dim(cusp(), {"X": 1, "Y": 1})
    assert len(report.tangent_basis) == 1
    v = report.tangent_basis[0]
    # kernel of (3 -2) is spanned by (2, 3)
    assert 3 * v[0] == 2 * v[1] and v != (0, 0)


def test_smooth_circle_point():
    circle = PresentedAlgebra(BaseRing("rational"), ("X", "Y"),
                              (X ** 2 + Y ** 2 - 1,))
    report = der_dim(circle, {"X": Fraction(3, 5), "Y": Fraction(4, 5)})
    assert report.dim == 1


def test_free_algebra_has_full_tangent_space():
    alg = PresentedAlgebra(BaseRing("rational"), ("X", "Y"), ())
    assert der_dim(alg, {"X": 2, "Y": 5}).dim == 2


def test_point_validation():
    alg = cusp()
    with pytest.raises(PointNotOnVarietyError):
        der_dim(alg, {"X": 1, "Y": 2})
    with pytest.raises(ValueError):
        der_dim(alg, {"X": 0})
    with pytest.raises(ValueError):
        der_dim(alg, {"X": 0, "Y": 0, "W": 1})


@pytest.mark.parametrize("bad", [1.0, "4", 2.5])
def test_point_values_go_through_the_base_ring(bad):
    # as Matrix.from_rows and NumberField.coerce do, a float or a string is refused
    w2 = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    for alg in (PresentedAlgebra(BaseRing("rational"), ("X", "Y"), ()),
                PresentedAlgebra(w2, ("X", "Y"), ())):
        point = {"X": bad, "Y": 1}
        with pytest.raises(ValueError, match="point value"):
            der_dim(alg, point)
        with pytest.raises(ValueError, match="point value"):
            extend_point(alg, Y, point)
    field = w2.field()
    with pytest.raises(ValueError, match="point value"):
        der_dim(cusp(), {"X": field.one(), "Y": 1})


def test_apply_derivation_without_columns_is_the_ring_zero():
    rational = PresentedAlgebra(BaseRing("rational"), (), ())
    value = apply_derivation(rational, {}, (), MultiPoly.constant(3))
    assert type(value) is Fraction and value == 0
    w2 = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    over_w2 = PresentedAlgebra(w2, (), ())
    assert apply_derivation(over_w2, {}, (), MultiPoly.constant(3)) == w2.field().zero()


def test_leibniz_rule_of_tangent_vectors():
    alg = cusp()
    point = {"X": Fraction(1), "Y": Fraction(1)}
    report = der_dim(alg, point)
    tangent = report.tangent_basis[0]
    rng = random.Random(13)

    def rand_poly():
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-4, 4))
        return sum(c * X ** i * Y ** j for (i, j), c in terms.items())

    from chevkern.kernel import poly_eval
    for _ in range(20):
        f, g = rand_poly(), rand_poly()
        lhs = apply_derivation(alg, point, tangent, f * g)
        rhs = (poly_eval(f, point) * apply_derivation(alg, point, tangent, g)
               + poly_eval(g, point) * apply_derivation(alg, point, tangent, f))
        assert lhs == rhs
    # tangent vectors kill the defining relation
    assert apply_derivation(alg, point, tangent, alg.relations[0]) == 0


def test_number_ring_is_rigid():
    base = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    report = number_ring_rigidity(base)
    assert report.rigid
    assert report.absolute_dim == 0
    field = NumberField("w", (-2, 0, 1))
    assert report.derivative_value == field.element((0, 2))  # 2w != 0


def test_polynomials_over_number_ring():
    base = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    alg = PresentedAlgebra(base, ("X",), ())
    point = {"X": Fraction(7)}
    assert der_dim(alg, point, mode="relative").dim == 1
    report = der_dim(alg, point, mode="absolute")
    # the generator column is killed by the minimal polynomial row
    assert report.dim == 1
    assert report.jacobian.ncols == 2


def test_number_ring_point_with_irrational_coordinate():
    base = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    field = base.field()
    rel = parse_polynomial("X^2 - 2", variables=("X", "w"))
    alg = PresentedAlgebra(base, ("X",), (rel,))
    point = {"X": field.generator()}
    assert der_dim(alg, point, mode="relative").dim == 0
    assert der_dim(alg, point, mode="absolute").dim == 0
    with pytest.raises(PointNotOnVarietyError):
        der_dim(alg, {"X": 1})


def test_absolute_equals_relative_over_prime_bases():
    for kind in ("rational", "integers"):
        alg = PresentedAlgebra(BaseRing(kind), ("X", "Y"), (X ** 3 - Y ** 2,))
        for point in ({"X": 0, "Y": 0}, {"X": 1, "Y": 1}):
            assert (der_dim(alg, point, "relative").dim
                    == der_dim(alg, point, "absolute").dim)


def test_smoothness_scan_flags_the_cusp():
    scan = smoothness_scan(cusp(), [{"X": 0, "Y": 0}, {"X": 1, "Y": 1},
                                    {"X": 4, "Y": 8}])
    assert scan.min_dim == 1
    assert scan.flagged == [{"X": 0, "Y": 0}]


def test_localization_preserves_dimensions():
    alg = cusp()
    loc = localize(alg, X)
    assert loc.variables == ("X", "Y", "Zloc")
    for point in ({"X": 1, "Y": 1}, {"X": 4, "Y": 8}, {"X": 9, "Y": -27}):
        lifted = extend_point(alg, X, point)
        assert lifted["Zloc"] == Fraction(1, point["X"])
        assert der_dim(loc, lifted).dim == der_dim(alg, point).dim
    with pytest.raises(ValueError):
        extend_point(alg, X, {"X": 0, "Y": 0})
    with pytest.raises(ValueError):
        localize(loc, X)  # Zloc is taken


def test_presentation_validation():
    with pytest.raises(ValueError):
        PresentedAlgebra(BaseRing("rational"), ("X", "X"), ())
    with pytest.raises(ValueError):
        base = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
        PresentedAlgebra(base, ("w", "X"), ())
    with pytest.raises(ValueError):
        PresentedAlgebra(BaseRing("rational"), ("X",), (Y,))
    with pytest.raises(ValueError):
        BaseRing("gaussian")
    with pytest.raises(ValueError):
        BaseRing("numberring", generator="w", minpoly=(1, 1))


CUSP_FILE = """
# plane curve with one bad point
base rational
vars X Y
rel X^3 - Y^2
point X=0 Y=0
point X=1 Y=1
"""


def test_parse_problem_cusp():
    alg, points = parse_problem(CUSP_FILE)
    assert alg.base.kind == "rational"
    assert alg.variables == ("X", "Y")
    assert [der_dim(alg, p).dim for p in points] == [2, 1]


NUMBER_RING_FILE = """
base numberring
gen w : w^2 - 2
vars X
rel X^2 - 2
point X=w
point X=-w
"""


def test_parse_problem_number_ring():
    alg, points = parse_problem(NUMBER_RING_FILE)
    assert alg.base.generator == "w"
    assert alg.base.minpoly == (-2, 0, 1)
    field = alg.field
    assert points[0] == {"X": field.generator()}
    assert points[1] == {"X": -field.generator()}
    assert der_dim(alg, points[0], mode="absolute").dim == 0


def test_parse_problem_errors():
    with pytest.raises(ProblemFormatError):
        parse_problem("vars X\nrel X")  # no base
    with pytest.raises(ProblemFormatError):
        parse_problem("base rational\ngen w : w^2 - 2\nvars X")
    with pytest.raises(ProblemFormatError):
        parse_problem("base numberring\nvars X")  # no gen line
    with pytest.raises(ProblemFormatError):
        parse_problem("base rational\nfrobnicate X")
    with pytest.raises(ProblemFormatError):
        parse_problem("base rational\nvars X\npoint X:1")
    with pytest.raises(ProblemFormatError):
        parse_problem("base numberring\ngen w : w^2 - 1/2\nvars X")


@pytest.mark.parametrize("text, old, new", [
    (CUSP_FILE, "point X=1 Y=1", "point X=5 X=1 Y=1"),
    (CUSP_FILE, "base rational", "base rational\nbase integers"),
    (CUSP_FILE, "vars X Y", "vars X Y\nvars X"),
    (NUMBER_RING_FILE, "gen w : w^2 - 2", "gen w : w^2 - 2\ngen w : w^2 - 3"),
])
def test_parse_problem_rejects_contradictory_declarations(text, old, new):
    # a repeated declaration is an error naming its line, not an override
    with pytest.raises(ProblemFormatError, match=re.escape(new.split("\n")[-1])):
        parse_problem(text.replace(old, new))


# --- der_dim against the rank of sympy's Jacobian ----------------------------

# plane curves with a rational parametrization t -> (X, Y)
PARAMETRIZED_CURVES = {
    "cusp": ("X**3 - Y**2", lambda t: (t * t, t ** 3)),
    "circle": ("X**2 + Y**2 - 1", lambda t: ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))),
    "line": ("X + Y - 3", lambda t: (t, 3 - t)),
    "node": ("Y**2 - X**2*(X + 1)", lambda t: (t * t - 1, t * (t * t - 1))),
}


@pytest.mark.parametrize("name", sorted(PARAMETRIZED_CURVES))
def test_der_dim_matches_sympy_jacobian_rank(name):
    sympy = pytest.importorskip("sympy")
    relation, param = PARAMETRIZED_CURVES[name]
    alg = PresentedAlgebra(BaseRing("rational"), ("X", "Y"), (parse_polynomial(relation),))
    sx, sy = sympy.symbols("X Y")
    jacobian = sympy.Matrix([sympy.sympify(relation)]).jacobian([sx, sy])
    rng = random.Random(name)
    # t = 0 is the cusp, t = +-1 the node's double point
    params = [Fraction(0), Fraction(1), Fraction(-1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(12)]
    dims = set()
    for t in params:
        x, y = param(t)
        at = {sx: sympy.Rational(x.numerator, x.denominator),
              sy: sympy.Rational(y.numerator, y.denominator)}
        rank = jacobian.subs(at).rank()
        dim = der_dim(alg, {"X": x, "Y": y}, mode="relative").dim
        assert dim == len(alg.variables) - rank, (name, t)
        dims.add(dim)
    # the singular curves reach their singular point, the smooth ones never do
    assert dims == ({1, 2} if name in ("cusp", "node") else {1})
