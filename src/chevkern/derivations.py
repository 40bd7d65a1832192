"""Derivation spaces of finitely presented algebras at rational points.

A presentation B[X1..Xn]/(f1..fm) together with a point determines the space
of derivations into the residue field: values on the generators subject to
the Jacobian of the relations.  In relative mode the base is held fixed; in
absolute mode over a number ring the ring generator gets its own column and
its minimal polynomial its own row, so rigidity of the base is part of the
computation (the derivative of the minimal polynomial at the generator is the
obstruction).

Problems can be read from a small line-oriented text format, see
``parse_problem``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .kernel import (
    QQ,
    DomainMismatchError,
    Matrix,
    MultiPoly,
    NumberField,
    is_zero,
    parse_polynomial,
    poly_eval,
    ring_inv,
    rref,
)


class PointNotOnVarietyError(ValueError):
    """Raised when a point fails to satisfy the defining relations."""


class ProblemFormatError(ValueError):
    """Raised for malformed problem files."""


@dataclass(frozen=True)
class BaseRing:
    """Base of the presentation: the rationals, the integers, or Z[w]/(m)."""

    kind: str  # "rational" | "integers" | "numberring"
    generator: Optional[str] = None
    minpoly: tuple = ()  # ascending integer coefficients

    def __post_init__(self):
        if self.kind not in ("rational", "integers", "numberring"):
            raise ValueError("unknown base kind %r" % self.kind)
        if self.kind == "numberring":
            if not self.generator or len(self.minpoly) < 3:
                raise ValueError("a number ring needs a generator of degree >= 2")

    def minimal_polynomial(self) -> MultiPoly:
        """The generator's minimal polynomial m(w); a number ring only."""
        w = MultiPoly.variable(self.generator)
        return sum(c * w ** k for k, c in enumerate(self.minpoly))

    def field(self) -> Optional[NumberField]:
        if self.kind != "numberring":
            return None
        return NumberField(self.generator, self.minpoly)


class PresentedAlgebra:
    """B[X1..Xn]/(f1..fm) with relations as exact multivariate polynomials."""

    def __init__(self, base: BaseRing, variables: Sequence[str],
                 relations: Sequence[MultiPoly]):
        self.base = base
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if base.generator in self.variables:
            raise ValueError("generator name %r clashes with a variable" % base.generator)
        self.relations = tuple(relations)
        self.field = base.field()
        self.ring = self.field or QQ  # the ring that point values live in
        names = set(self.variables)
        if base.generator:
            names.add(base.generator)
        for f in self.relations:
            extra = set(f.variables) - names
            if extra:
                raise ValueError("relation uses unknown names %s" % sorted(extra))

    # -- points --------------------------------------------------------------

    def full_assignment(self, point: dict) -> dict:
        """Point values for all variables plus the base generator, coerced."""
        unknown = set(point) - set(self.variables)
        if unknown:
            raise ValueError("point assigns unknown names %s" % sorted(unknown))
        missing = set(self.variables) - set(point)
        if missing:
            raise ValueError("point misses variables %s" % sorted(missing))
        try:
            full = {name: self.ring.coerce(v) for name, v in point.items()}
        except DomainMismatchError as exc:
            raise ValueError("bad point value: %s" % exc) from None
        if self.field is not None:
            full[self.base.generator] = self.field.generator()
        return full

    def check_point(self, point: dict) -> dict:
        """Validate the relations at the point; returns the full assignment."""
        full = self.full_assignment(point)
        for f in self.relations:
            val = poly_eval(f, full)
            if not is_zero(val):
                raise PointNotOnVarietyError(
                    "relation %s does not vanish at %r (value %s)" % (f, point, val))
        return full


@dataclass
class DerivationReport:
    jacobian: Optional[Matrix]
    dim: int
    tangent_basis: tuple


def der_dim(algebra: PresentedAlgebra, point: dict,
            mode: str = "relative") -> DerivationReport:
    """Dimension of the derivation space at a point.

    A derivation is determined by its values on the columns; each relation
    contributes the row of its partial derivatives evaluated at the point.
    Absolute mode over a number ring adjoins the generator column and the
    minimal polynomial row.
    """
    if mode not in ("relative", "absolute"):
        raise ValueError("mode must be 'relative' or 'absolute'")
    full = algebra.check_point(point)
    columns = list(algebra.variables)
    rel_polys = list(algebra.relations)
    if mode == "absolute" and algebra.field is not None:
        columns.append(algebra.base.generator)
        rel_polys.append(algebra.base.minimal_polynomial())
    if not columns:
        return DerivationReport(jacobian=None, dim=0, tangent_basis=())
    rows = []
    for f in rel_polys:
        rows.append([poly_eval(f.derivative(x), full) for x in columns])
    if not rows:
        rows.append([Fraction(0)] * len(columns))
    jac = Matrix.from_rows(rows)
    _, rank, nullspace = rref(jac)
    return DerivationReport(jacobian=jac, dim=len(columns) - rank, tangent_basis=nullspace)


def apply_derivation(algebra: PresentedAlgebra, point: dict,
                     tangent: Sequence, poly: MultiPoly):
    """Value of the derivation with the given column values on a polynomial."""
    full = algebra.check_point(point)
    columns = list(algebra.variables)
    if algebra.field is not None and len(tangent) == len(columns) + 1:
        columns.append(algebra.base.generator)
    if len(tangent) != len(columns):
        raise ValueError("tangent vector length does not match the columns")
    ring = algebra.ring
    total = ring.zero()
    for x, t in zip(columns, tangent):
        total = total + ring.coerce(poly_eval(poly.derivative(x), full)) * ring.coerce(t)
    return total


@dataclass
class RigidityReport:
    rigid: bool
    derivative_value: object
    absolute_dim: int


def number_ring_rigidity(base: BaseRing) -> RigidityReport:
    """Absolute derivations of a number ring itself.

    The single obstruction is m'(w): nonzero forces every derivation to kill
    the generator.
    """
    if base.kind != "numberring":
        raise ValueError("rigidity applies to number ring bases")
    algebra = PresentedAlgebra(base, (), ())
    report = der_dim(algebra, {}, mode="absolute")
    # the Jacobian's one row and column: m'(w) at the generator
    return RigidityReport(rigid=(report.dim == 0),
                          derivative_value=report.jacobian.entry(0, 0),
                          absolute_dim=report.dim)


@dataclass
class SmoothnessScan:
    min_dim: int
    flagged: list  # points whose derivation space jumps above the minimum


def smoothness_scan(algebra: PresentedAlgebra, points: Sequence[dict]) -> SmoothnessScan:
    """Compare relative derivation dimensions across points; jumps mark singularities."""
    dims = [der_dim(algebra, p).dim for p in points]
    if not dims:
        raise ValueError("need at least one point")
    min_dim = min(dims)
    flagged = [dict(p) for p, dim in zip(points, dims) if dim > min_dim]
    return SmoothnessScan(min_dim=min_dim, flagged=flagged)


# one name for the variable that localize adjoins and extend_point assigns
LOCAL_VAR = "Zloc"


def localize(algebra: PresentedAlgebra, h: MultiPoly) -> PresentedAlgebra:
    """Invert h by the extra relation Zloc * h - 1."""
    if LOCAL_VAR in algebra.variables or LOCAL_VAR == algebra.base.generator:
        raise ValueError("localization variable %r already in use" % LOCAL_VAR)
    rel = MultiPoly.variable(LOCAL_VAR) * h - 1
    return PresentedAlgebra(algebra.base, algebra.variables + (LOCAL_VAR,),
                            algebra.relations + (rel,))


def extend_point(algebra: PresentedAlgebra, h: MultiPoly, point: dict) -> dict:
    """The unique lift of a point to the localization at h."""
    full = algebra.full_assignment(point)
    val = poly_eval(h, full)
    if is_zero(val):
        raise ValueError("the point kills %s; it has no lift" % h)
    out = dict(point)
    out[LOCAL_VAR] = ring_inv(val)
    return out


# ---------------------------------------------------------------------------
# problem files

def parse_problem(text: str):
    """Parse a problem file; returns (algebra, points).

    Format, one declaration per line (# starts a comment):

        base rational            (or: integers, numberring)
        gen w : w^2 - 2          (numberring only)
        vars X Y
        rel X^3 - Y^2
        point X=0 Y=0
        point X=1 Y=1

    Point values are expressions in the ring generator, e.g. ``X=w/2``.  A
    second base, gen or vars line, or a point naming a variable twice, is an error.
    """
    decl = {}  # base, gen, vars -> the rest of their line
    rel_texts = []
    point_texts = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(" ")
        tail = tail.strip()
        if head in decl:
            raise ProblemFormatError("second %s line %r" % (head, raw))
        if head in ("base", "gen", "vars"):
            decl[head] = tail
        elif head == "rel":
            rel_texts.append(tail)
        elif head == "point":
            point_texts.append(tail)
        else:
            raise ProblemFormatError("cannot parse line %r" % raw)
    if "base" not in decl:
        raise ProblemFormatError("missing base declaration")
    base_kind = decl["base"]
    variables = tuple(decl.get("vars", "").split())
    gen_name = None
    if "gen" in decl:
        if ":" not in decl["gen"]:
            raise ProblemFormatError("gen line needs 'name : minpoly'")
        gen_name, gen_poly = (s.strip() for s in decl["gen"].split(":", 1))

    if base_kind == "numberring":
        if gen_name is None:
            raise ProblemFormatError("numberring base needs a gen line")
        mp = parse_polynomial(gen_poly, variables=(gen_name,))
        coeffs = _univariate_int_coeffs(mp, gen_name)
        base = BaseRing(kind="numberring", generator=gen_name, minpoly=coeffs)
    else:
        if gen_name is not None:
            raise ProblemFormatError("gen line requires a numberring base")
        base = BaseRing(kind=base_kind)

    parse_names = variables + ((gen_name,) if gen_name else ())
    relations = [parse_polynomial(t, variables=parse_names) for t in rel_texts]
    algebra = PresentedAlgebra(base, variables, relations)

    points = []
    for t in point_texts:
        point = {}
        for token in t.split():
            if "=" not in token:
                raise ProblemFormatError("point token %r is not name=value" % token)
            name, expr = token.split("=", 1)
            if name in point:
                raise ProblemFormatError("line 'point %s' sets %s twice" % (t, name))
            value_poly = parse_polynomial(
                expr, variables=(gen_name,) if gen_name else ())
            if value_poly.is_constant():
                point[name] = value_poly.constant_value()
            else:
                point[name] = poly_eval(value_poly,
                                        {gen_name: algebra.field.generator()})
        points.append(point)
    return algebra, points


def _univariate_int_coeffs(p: MultiPoly, name: str) -> tuple:
    degree = p.degree()
    coeffs = []
    for k in range(degree + 1):
        c = p.coefficient({name: k})
        if c.denominator != 1:
            raise ProblemFormatError("minimal polynomial must have integer coefficients")
        coeffs.append(c.numerator)
    return tuple(coeffs)


