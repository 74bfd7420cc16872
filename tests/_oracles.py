"""Independent oracles built on sympy, plus reference copies of package
routines that the package has replaced.

The sympy oracles recompute package results from scratch through symbolic
composition and sympy linear algebra, sharing no code with the package
beyond the index enumeration contract (degree then lexicographic), so
agreement is meaningful.  The reference copies (shift_by_compose,
map_power) are the straightforward versions of a faster package routine,
written on Poly arithmetic; tests compare the package against them.
"""

from fractions import Fraction

import sympy

from chevkit.errors import InputError, TruncationError
from chevkit.indices import indices_up_to
from chevkit.poly import Poly, TruncatedSeries


def _to_sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


def _from_sympy(r):
    return Fraction(int(r.p), int(r.q))


def sympy_poly(p, symbols):
    expr = sympy.Integer(0)
    for beta, c in p.terms.items():
        term = _to_sympy(c)
        for s, e in zip(symbols, beta):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def taylor_coeff(expr, symbols, point, alpha):
    """Coefficient of prod (x - a)^alpha in the expansion of expr at point."""
    shifted = expr
    for s, a in zip(symbols, point):
        shifted = shifted.subs(s, s + _to_sympy(a))
    shifted = sympy.expand(shifted)
    poly = sympy.Poly(shifted, *symbols)
    return _from_sympy(sympy.Rational(poly.coeff_monomial(
        sympy.prod([s ** e for s, e in zip(symbols, alpha)])
    )))


def jet_matrix_by_composition(components, points, image, l):
    """Jet matrix rebuilt by expanding (phi - b)^beta symbolically."""
    m = len(points[0])
    n = len(components)
    xs = sympy.symbols(f"x0:{m}")
    comps = [sympy_poly(c, xs) for c in components]
    cols = indices_up_to(n, l)
    row_alphas = indices_up_to(m, l)
    rows = []
    col_exprs = []
    for beta in cols:
        expr = sympy.Integer(1)
        for comp, bj, e in zip(comps, image, beta):
            expr *= (comp - _to_sympy(bj)) ** e
        col_exprs.append(sympy.expand(expr))
    for a in points:
        for alpha in row_alphas:
            rows.append([
                taylor_coeff(expr, xs, a, alpha) for expr in col_exprs
            ])
    return rows


def sympy_rank(rows):
    if not rows:
        return 0
    mat = sympy.Matrix([[_to_sympy(Fraction(v)) for v in r] for r in rows])
    return mat.rank()


def sympy_nullspace(rows, ncols):
    if not rows:
        rows = [[0] * ncols]
    mat = sympy.Matrix([[_to_sympy(Fraction(v)) for v in r] for r in rows])
    return [
        [_from_sympy(sympy.Rational(v)) for v in vec]
        for vec in mat.nullspace()
    ]


def projected_kernel_dim(components, points, image, l, k):
    """dim of the degree-<= k prefixes of the order-l jet kernel, from the
    symbolically rebuilt matrix."""
    n = len(components)
    rows = jet_matrix_by_composition(components, points, image, l)
    ncols = len(indices_up_to(n, l))
    kern = sympy_nullspace(rows, ncols)
    keep = len(indices_up_to(n, k))
    prefixes = [v[:keep] for v in kern]
    return sympy_rank(prefixes)


def threshold_by_search(components, points, image, k, l_cap):
    """Least l with zero projected kernel, for maps with zero relation
    ideal; None if not reached by l_cap."""
    for l in range(k, l_cap + 1):
        if projected_kernel_dim(components, points, image, l, k) == 0:
            return l
    return None


def threshold_by_stabilization(components, points, image, k, l_cap):
    """Least l whose projected kernel dimension equals the value at l_cap.
    Meaningful when the chain is known to settle within the cap."""
    dims = [
        projected_kernel_dim(components, points, image, l, k)
        for l in range(k, l_cap + 1)
    ]
    final = dims[-1]
    for l, d in zip(range(k, l_cap + 1), dims):
        if d == final:
            return l
    return None


def in_row_span(rows, vector):
    """Whether vector lies in the row span, by a rank comparison."""
    base = sympy_rank(rows)
    return sympy_rank(rows + [vector]) == base


def composition_taylor_vector(f_local, components, image, a, l):
    """Taylor coefficients (degree <= l, shared enumeration) at a of
    f_local((phi - b)(x)), computed purely in sympy."""
    m = len(a)
    n = len(components)
    xs = sympy.symbols(f"x0:{m}")
    comps = [sympy_poly(c, xs) for c in components]
    diffs = [comp - _to_sympy(bj) for comp, bj in zip(comps, image)]
    expr = sympy.Integer(0)
    for beta, c in f_local.terms.items():
        term = _to_sympy(c)
        for d, e in zip(diffs, beta):
            term *= d ** e
        expr += term
    expr = sympy.expand(expr)
    return [
        taylor_coeff(expr, xs, a, alpha)
        for alpha in indices_up_to(m, l)
    ]


def sympy_det(rows):
    return _from_sympy(sympy.Rational(sympy.Matrix(
        [[_to_sympy(Fraction(v)) for v in r] for r in rows]
    ).det()))


def sympy_rref(vectors, ncols):
    """(nonzero rows, pivot columns) of sympy's reduced row-echelon form of
    the vectors stacked as rows; entries are anything Fraction() accepts."""
    if not vectors or ncols == 0:
        return [], []
    m = sympy.Matrix([[_to_sympy(Fraction(x)) for x in v] for v in vectors])
    reduced, pivots = m.rref()
    basis = [[_from_sympy(reduced[i, j]) for j in range(ncols)]
             for i in range(len(pivots))]
    return basis, list(pivots)


def shift_by_compose(p, point):
    """p(x + point) by substituting x_i + a_i into p through Poly.compose:
    the body Poly.shift had before it expanded terms binomially."""
    if len(point) != p.arity:
        raise InputError(
            f"point has {len(point)} coordinates, expected {p.arity}"
        )
    point = tuple(Fraction(a) for a in point)
    args = [
        Poly.variable(p.arity, i) + Poly.constant(p.arity, point[i])
        for i in range(p.arity)
    ]
    return p.compose(args)


def map_power(series_list, beta, d):
    """Product series_list[0]^beta[0] * ... truncated past degree d.

    Every factor must already be truncated at >= d; the result is exact in
    degrees <= d because truncation commutes with multiplication there.
    """
    if len(series_list) != len(beta):
        raise InputError(
            f"power index {beta} does not match {len(series_list)} series"
        )
    arity = series_list[0].arity if series_list else 1
    result = TruncatedSeries.constant(arity, 1, d)
    for s, e in zip(series_list, beta):
        if s.trunc_degree < d:
            raise TruncationError(
                f"factor truncated at {s.trunc_degree}, need degree {d}"
            )
        for _ in range(e):
            result = result * s
    return result
