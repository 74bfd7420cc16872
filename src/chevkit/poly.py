"""Exact polynomial arithmetic over the rationals.

Polynomials wrap term dicts, from exponent tuples to nonzero Fractions;
everything stays exact, there is no floating point anywhere in this module.
Truncated series wrap the same representation together with the degree past
which terms have been discarded, so that downstream code can refuse to read
coefficients it does not actually know.  A truncated series may also hold
int coefficients, as the product probe's random factors do; their products
stay int.  The arithmetic lives in three
term-dict helpers (_sum_terms, _mul_terms, _pow_terms) that the classes and
the text parser share: the parser combines term dicts, int or Fraction, and
builds one Poly at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, prod
from operator import add, sub

from .errors import InputError, check_int
from .indices import degree, index_add, mono_key

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text):
    """Parse 'p' or 'p/q' into a Fraction.  Floats are rejected on purpose."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None


def _sum_terms(left, right, op, d=None):
    """Termwise op(left, right), add or sub, of two term dicts of nonzero
    coefficients; with d given, terms of degree > d are dropped from both.
    A term new to the result is stored as it comes, with no zero added."""
    if d is None:
        terms = dict(left)
        right = right.items()
    else:
        terms = {b: c for b, c in left.items() if degree(b) <= d}
        right = [(b, c) for b, c in right.items() if degree(b) <= d]
    for b, c in right:
        if b not in terms:
            terms[b] = c if op is add else -c
        elif s := op(terms[b], c):
            terms[b] = s
        else:
            del terms[b]
    return terms


def _mul_terms(left, right, d=None):
    """Product of two term dicts of nonzero coefficients; with d given, no
    term pair of degree > d is formed, and only then are degrees computed.
    A new term is stored as it comes, so products of ints stay int."""
    if d is None:
        right = right.items()
        rows = ((b1, c1, right) for b1, c1 in left.items())
    else:
        right = [(b2, c2, degree(b2)) for b2, c2 in right.items()]
        rows = ((b1, c1, [(b2, c2) for b2, c2, d2 in right if d2 <= room])
                for b1, c1 in left.items() if (room := d - degree(b1)) >= 0)
    terms = {}
    for b1, c1, row in rows:
        for b2, c2 in row:
            b = index_add(b1, b2)
            if b not in terms:
                terms[b] = c1 * c2
            elif s := terms[b] + c1 * c2:
                terms[b] = s
            else:
                del terms[b]
    return terms


def _negate(terms):
    return {b: -c for b, c in terms.items()}


def _pow_terms(terms, e, arity):
    """The e-th power, e >= 0, of a term dict of nonzero coefficients: a
    monomial's directly, anything else by repeated squaring."""
    if len(terms) == 1:
        ((b, c),) = terms.items()
        return {tuple(x * e for x in b): c ** e}
    result = {(0,) * arity: 1}
    while e:
        if e & 1:
            result = _mul_terms(result, terms)
        terms = _mul_terms(terms, terms) if e > 1 else terms
        e >>= 1
    return result


def _poly(arity, terms):
    """A Poly around a term dict that is already clean."""
    out = Poly.__new__(Poly)
    out.arity = arity
    out.terms = terms
    return out


class Poly:
    """A polynomial in `arity` variables with Fraction coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        check_int(arity, "arity", 1)
        self.arity = arity
        clean = {}
        if terms:
            for beta, c in terms.items():
                if len(beta) != arity:
                    raise InputError(
                        f"exponent {beta} has arity {len(beta)}, expected {arity}"
                    )
                if any(b < 0 for b in beta):
                    raise InputError(f"negative exponent in {beta}")
                c = Fraction(c)
                if c:
                    clean[tuple(beta)] = c
        self.terms = clean

    # construction helpers

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, arity, c):
        return cls(arity, {(0,) * arity: Fraction(c)})

    # predicates and views

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Degree of the polynomial, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(degree(b) for b in self.terms)

    def order(self):
        """Order of vanishing at the origin; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(degree(b) for b in self.terms)

    # arithmetic

    def _operand(self, other):
        """other as a Poly of this arity; a scalar becomes a constant."""
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.arity, other)
        if self.arity != other.arity:
            raise InputError(f"arity mismatch: {self.arity} vs {other.arity}")
        return other

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def _sum(self, other, op):
        return _poly(self.arity,
                     _sum_terms(self.terms, self._operand(other).terms, op))

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.arity, _negate(self.terms))

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return _poly(self.arity,
                     _mul_terms(self.terms, self._operand(other).terms))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise InputError("negative powers are not defined for polynomials")
        if not e:
            return Poly.constant(self.arity, 1)
        return _poly(self.arity, _pow_terms(self.terms, e, self.arity))

    # evaluation and substitution

    def eval(self, point):
        if len(point) != self.arity:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        point = tuple(Fraction(p) for p in point)
        total = Fraction(0)
        for b, c in self.terms.items():
            total += c * prod(p**e for p, e in zip(point, b) if e)
        return total

    def compose(self, args):
        """Substitute args[i] for variable i.  Args share one arity."""
        if len(args) != self.arity:
            raise InputError(
                f"expected {self.arity} substitution arguments, got {len(args)}"
            )
        if not args:
            raise InputError("cannot compose with an empty argument list")
        inner_arity = args[0].arity
        for a in args:
            if a.arity != inner_arity:
                raise InputError("substitution arguments have mixed arities")
        result = Poly.zero(inner_arity)
        # cache powers of each argument as they are needed
        powers = [{0: Poly.constant(inner_arity, 1)} for _ in args]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * args[i]
            return cache[e]

        for b, c in self.terms.items():
            term = Poly.constant(inner_arity, c)
            for i, e in enumerate(b):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def shift(self, point):
        """Recenter at `point`: returns q with q(x) = p(x + point).

        Each term expands binomially, prod (x_i + a_i)^alpha_i =
        sum_beta prod C(alpha_i, beta_i) a_i^(alpha_i - beta_i) x^beta, with
        beta running lexicographically and every beta_i from alpha_i down
        (fixed at alpha_i where a_i = 0).  That is the order in which
        substituting x_i + a_i would create the terms, so the result's term
        order is the substitution's too.
        """
        if len(point) != self.arity:
            raise InputError(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        point = tuple(Fraction(p) for p in point)
        if not any(point):
            # every factor is x_i itself: the same terms, in their order
            return _poly(self.arity, dict(self.terms))
        terms = {}
        for alpha, c in self.terms.items():
            partial = [((), c)]
            for a, e in zip(point, alpha):
                if not a or not e:
                    partial = [(b + (e,), v) for b, v in partial]
                    continue
                factors = [(j, comb(e, j) * a ** (e - j))
                           for j in range(e, -1, -1)]
                partial = [(b + (j,), v * f)
                           for b, v in partial for j, f in factors]
            for beta, v in partial:
                if beta not in terms:
                    terms[beta] = v
                elif s := terms[beta] + v:
                    terms[beta] = s
                else:
                    del terms[beta]
        return _poly(self.arity, terms)

    def truncate(self, d):
        """Drop all terms of degree > d, returning a TruncatedSeries."""
        check_int(d, "truncation degree")
        kept = {b: c for b, c in self.terms.items() if degree(b) <= d}
        return TruncatedSeries(self.arity, kept, d, _exact=True)

    def taylor(self, point, d):
        """Taylor expansion around `point`, truncated past degree d."""
        return self.shift(point).truncate(d)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


class TruncatedSeries:
    """A polynomial known only up to a stated degree.

    Arithmetic narrows the truncation degree the way interval arithmetic
    narrows intervals: the result is only claimed up to the degree both
    operands support.
    """

    __slots__ = ("arity", "terms", "trunc_degree")

    def __init__(self, arity, terms, trunc_degree, _exact=False):
        check_int(trunc_degree, "truncation degree")
        if not _exact:
            # Poly checks the exponents and makes the coefficients Fractions
            terms = Poly(arity, terms).terms
            for beta in terms:
                if degree(beta) > trunc_degree:
                    raise InputError(
                        f"term {beta} exceeds truncation degree {trunc_degree}"
                    )
        self.arity = arity
        self.trunc_degree = trunc_degree
        self.terms = terms

    order = Poly.order

    def _common_degree(self, other):
        if self.arity != other.arity:
            raise InputError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )
        return min(self.trunc_degree, other.trunc_degree)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.trunc_degree == other.trunc_degree
            and self.terms == other.terms
        )

    def _sum(self, other, op):
        d = self._common_degree(other)
        terms = _sum_terms(self.terms, other.terms, op, d)
        return TruncatedSeries(self.arity, terms, d, _exact=True)

    def __add__(self, other):
        return self._sum(other, add)

    def __sub__(self, other):
        return self._sum(other, sub)

    def __mul__(self, other):
        d = self._common_degree(other)
        terms = _mul_terms(self.terms, other.terms, d)
        return TruncatedSeries(self.arity, terms, d, _exact=True)

    def __repr__(self):
        return f"TruncatedSeries({format_poly(self)}, trunc={self.trunc_degree})"


def var_names(arity, names=None):
    if names is not None:
        if len(names) != arity:
            raise InputError(
                f"got {len(names)} variable names for arity {arity}"
            )
        return list(names)
    return [f"x{i + 1}" for i in range(arity)]


# a variable name, as the tokenizer reads one
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<name>{NAME_RE.pattern})"
    r"|(?P<op>\*\*|[-+*^()]))"
)


def _tokenize(text):
    """The (kind, text) tokens of text, kind "num", "name" or "op", read in
    one pass; text that no token starts, past leading whitespace, is
    refused."""
    tokens, pos = [], 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        tokens.append((m.lastgroup, m[m.lastindex]))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise InputError(f"cannot tokenize polynomial near {rest[:20]!r}")
    return tokens


# the token after the last, so that the parser reads tokens with no bound
# check; its kind is no token's
_END = (None, None)
_PLUS, _MINUS, _TIMES, _OPEN = (("op", "+"), ("op", "-"), ("op", "*"),
                                 ("op", "("))
_SIGNS = frozenset((_PLUS, _MINUS))
_POWERS = frozenset((("op", "^"), ("op", "**")))
_ATOM_KINDS = frozenset(("num", "name"))


class _Parser:
    """Recursive-descent parser for +, -, *, ^ (or **), parentheses.

    Adjacent factors multiply implicitly, so '2x y^2' works.  Exponents must
    be literal nonnegative integers.  Every rule returns a term dict of
    nonzero coefficients (int, or Fraction for p/q literals); parse builds
    the one Poly at the end.  The rules read self.tokens[self.pos] in
    place, and each variable name and alias maps to its variable's
    position, so a name's unit exponent tuple is made only where it is
    read.
    """

    def __init__(self, tokens, arity, names, aliases=None):
        self.tokens = tokens + [_END]
        self.pos = 0
        self.arity = arity
        # the exponents of the monomial 1
        self.one = (0,) * arity
        self.position = {n: i for i, n in enumerate(names)}
        if aliases:
            for alias, target in aliases.items():
                if target not in self.position:
                    raise InputError(
                        f"alias target {target!r} is not a variable name"
                    )
                self.position[alias] = self.position[target]

    def parse(self):
        terms = self.expr()
        kind, val = self.tokens[self.pos]
        if kind is not None:
            raise InputError(f"unexpected trailing token {val!r}")
        return _poly(self.arity, {b: c if c.__class__ is Fraction
                                  else Fraction(c)
                                  for b, c in terms.items()})

    def expr(self):
        tokens = self.tokens
        negate = False
        while tokens[self.pos] in _SIGNS:
            if tokens[self.pos] == _MINUS:
                negate = not negate
            self.pos += 1
        p = self.term()
        if negate:
            p = _negate(p)
        while (t := tokens[self.pos]) in _SIGNS:
            self.pos += 1
            p = _sum_terms(p, self.term(), add if t == _PLUS else sub)
        return p

    def term(self):
        tokens = self.tokens
        p = self.factor()
        while True:
            t = tokens[self.pos]
            if t == _TIMES:
                self.pos += 1
            elif t[0] not in _ATOM_KINDS and t != _OPEN:
                return p
            p = _mul_terms(p, self.factor())

    def factor(self):
        base = self.atom()
        if self.tokens[self.pos] not in _POWERS:
            return base
        kind, val = self.tokens[self.pos + 1]
        self.pos += 2
        if kind != "num" or "/" in val:
            raise InputError("exponent must be a nonnegative integer literal")
        return _pow_terms(base, int(val), self.arity)

    def atom(self):
        kind, val = self.tokens[self.pos]
        if kind is None:
            raise InputError("unexpected end of polynomial text")
        self.pos += 1
        if kind == "num":
            # allow p/q only when it forms a single rational literal
            if "/" in val:
                p, q = map(int, val.split("/"))
                if not q:
                    raise InputError(f"zero denominator in {val!r}")
                c = Fraction(p, q)
            else:
                c = int(val)
            return {self.one: c} if c else {}
        if kind == "name":
            i = self.position.get(val)
            if i is None:
                raise InputError(f"unknown variable {val!r}")
            one = self.one
            return {one[:i] + (1,) + one[i + 1:]: 1}
        if val == "(":
            p = self.expr()
            if self.tokens[self.pos][1] != ")":
                raise InputError("unbalanced parenthesis")
            self.pos += 1
            return p
        if val == "-":
            return _negate(self.atom())
        raise InputError(f"unexpected token {val!r}")


def parse_poly(text, arity, names=None, aliases=None):
    """Parse polynomial text like '2x1^2 - x2*x3 + 1/2' exactly.

    aliases maps extra accepted names to canonical variable names (used to
    accept bare 'x' for 'x1' in one-variable maps).  A text that is not a
    str, or nests too deeply for the parser's recursion, raises InputError,
    as does an arity that is not an int >= 1.
    """
    if not isinstance(text, str):
        raise InputError(f"polynomial text must be a string, got {text!r}")
    check_int(arity, "arity", 1)
    names = var_names(arity, names)
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial text")
    try:
        return _Parser(tokens, arity, names, aliases).parse()
    except RecursionError:
        raise InputError("polynomial text nested too deeply") from None


def format_poly(p, names=None):
    """Render a Poly or TruncatedSeries in the shared monomial order."""
    names = var_names(p.arity, names)
    if not p.terms:
        return "0"
    parts = []
    for beta in sorted(p.terms, key=mono_key):
        c = p.terms[beta]
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(names, beta) if e
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
