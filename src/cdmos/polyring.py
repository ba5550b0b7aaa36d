"""Sparse multivariate polynomials and the graded monomial index.

Monomials are exponent tuples (one non-negative int per variable).  Every
matrix built downstream (moment matrices, change-of-basis, SDP blocks) is
indexed by the graded lexicographic enumeration produced here, so there is
exactly one canonical ordering in the whole package.  `MonomialBasis.array`,
an `(m, n)` integer array, is the one exponent table, and `_grlex_rank` is the
one map back from exponents to positions: moments, monomial values, the
localizing-matrix patterns and coefficient vectors are array expressions over
the two.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

Exponent = Tuple[int, ...]


def grlex_key(alpha: Sequence[int]):
    """Sort key realizing graded lexicographic order (x1 heaviest within a degree)."""
    return (sum(alpha), tuple(-a for a in alpha))


class MonomialBasis:
    """All exponent tuples with |alpha| <= t in n variables, graded-lex ordered."""

    def __init__(self, n: int, t: int):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if t < 0:
            raise ValueError(f"degree bound must be >= 0, got {t}")
        self.n = n
        self.t = t
        # Sorted variable-index multisets of size d, in lexicographic order,
        # are the degree-d monomials in graded-lex order (x1 heaviest).
        blocks = []
        for d in range(t + 1):
            flat = itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(n), d))
            idx = np.fromiter(flat, dtype=np.intp).reshape(math.comb(n + d - 1, d), d)
            blocks.append((idx[:, :, None] == np.arange(n)).sum(axis=1))
        self.array: np.ndarray = np.concatenate(blocks)
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[Exponent]:
        return map(tuple, self.array.tolist())

    def __repr__(self) -> str:
        return f"MonomialBasis(n={self.n}, t={self.t}, size={len(self)})"


def _grlex_rank(alphas: np.ndarray) -> np.ndarray:
    """Graded-lex positions of the exponents along the last axis, in closed form.

    Before alpha come the C(n+d-1, n) monomials of lower degree d = |alpha|,
    then, for each i < n-1, the C(r_i + k_i - 1, k_i) monomials of degree d
    that agree with alpha before i and are larger at i, where
    r_i = alpha_{i+1} + ... + alpha_n and k_i = n-1-i.
    """
    n = alphas.shape[-1]
    tail = np.cumsum(alphas[..., ::-1], axis=-1)[..., ::-1]   # tail[i] = sum_{j>=i}
    binom = _binomials(int(tail[..., 0].max(initial=0)) + n, n)
    k = np.arange(n - 1, 0, -1)                                # k_i for i < n-1
    return binom[n + tail[..., 0] - 1, n] + binom[tail[..., 1:] + k - 1, k].sum(axis=-1)


@functools.lru_cache(maxsize=None)
def _binomials(top: int, n: int) -> np.ndarray:
    """The read-only table C(a, b) for a < top, b <= n."""
    table = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(top)],
                     dtype=np.intp)
    table.flags.writeable = False
    return table


def enumerate_basis(n: int, t: int) -> MonomialBasis:
    """All |alpha| <= t in graded-lex order; length C(n+t, t)."""
    return MonomialBasis(n, t)


class Polynomial:
    """Sparse polynomial: exponent tuple -> finite float coefficient, zeros dropped."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Exponent, float] | None = None):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.n = n
        clean: Dict[Exponent, float] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {alpha} for dimension {n}")
            c = float(c)
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + c
                if not math.isfinite(clean[alpha]):
                    raise ValueError(
                        f"non-finite coefficient {clean[alpha]} at exponent {alpha}")
                if clean[alpha] == 0.0:
                    del clean[alpha]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, n: int, c: float) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1.0})

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})
        self._check_dim(other)
        out: Dict[Exponent, float] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                ab = tuple(x + y for x, y in zip(a, b))
                out[ab] = out.get(ab, 0.0) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Sequence[float]) -> float:
        if len(x) != self.n:
            raise ValueError(f"point dimension {len(x)} != polynomial dimension {self.n}")
        total = 0.0
        for alpha, c in self.terms.items():
            m = c
            for xi, ai in zip(x, alpha):
                if ai:
                    m *= float(xi) ** ai
            total += m
        return total

    def to_string(self, var_names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else [f"x{i+1}" for i in range(self.n)]
        parts: List[str] = []
        for alpha in sorted(self.terms, key=grlex_key):
            c = self.terms[alpha]
            mono = " ".join(
                names[i] if a == 1 else f"{names[i]}^{a}"
                for i, a in enumerate(alpha) if a
            )
            # %g when it reads back as the same float, else repr's exact digits
            mag = f"{abs(c):g}"
            if float(mag) != abs(c):
                mag = repr(abs(c))
            if mono:
                body = mono if abs(c) == 1.0 else f"{mag} {mono}"
            else:
                body = mag
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def coeff_vector(p: Polynomial, basis: MonomialBasis) -> np.ndarray:
    """Dense coefficient vector f with <f, v_t(x)> = p(x)."""
    if p.n != basis.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {basis.n}")
    if p.degree > basis.t:
        raise ValueError(f"degree {p.degree} exceeds basis bound {basis.t}")
    v = np.zeros(len(basis))
    ranks = _grlex_rank(np.array(list(p.terms), dtype=np.intp).reshape(-1, p.n))
    v[ranks] = list(p.terms.values())
    return v


def monomial_values(basis: MonomialBasis, x) -> np.ndarray:
    """The vector v_t(x) = (x^alpha) over the basis; for a (k, n) array of
    points, the (k, m) array whose rows are v_t of each point."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != basis.n:
        raise ValueError(f"points of shape {x.shape} do not match basis dimension {basis.n}")
    v = np.ones(x.shape[:-1] + (len(basis),))
    for j in range(basis.n):
        v *= x[..., j, None] ** basis.array[:, j]
    return v


# ---------------------------------------------------------------------------
# Text syntax: terms separated by + / -, each term "[coeff][*] x<i>[^k]" products.
# Whitespace-insensitive; variable aliases supplied by the caller.
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Syntax or name error in polynomial text; carries a 0-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


# the variable names the grammar reads
VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{VARIABLE_NAME.pattern})"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                                 len(text) - len(text[pos:].lstrip()))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, var_names: Sequence[str]) -> Polynomial:
    """Parse polynomial text against an ordered list of variable names.

    Grammar: sum of signed terms; a term is a product of a numeric
    coefficient and powers `name[^k]`, with `*` optional between factors and
    allowed nowhere else.
    """
    n = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    tokens = _tokenize(text)
    # summed in file order, in the term order Polynomial addition gives: a
    # term that cancels is deleted, so one that reappears goes to the end
    terms: Dict[Exponent, float] = {}
    i = 0
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    while i < len(tokens):
        sign = 1.0
        # leading signs of the term
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolyParseError("dangling sign at end of polynomial",
                                 tokens[-1][2] if tokens else 0)
        coeff = sign
        exps = [0] * n
        factors = 0
        while i < len(tokens):
            kind, val, col = tokens[i]
            if kind == "num":
                coeff *= float(val)
                i += 1
                factors += 1
            elif kind == "name":
                if val not in index:
                    raise PolyParseError(f"unknown variable {val!r}", col)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise PolyParseError("expected integer exponent after '^'",
                                             tokens[i - 1][2])
                    ptxt = tokens[i][1]
                    if not ptxt.isdigit():
                        raise PolyParseError(f"exponent must be a non-negative integer, got {ptxt}",
                                             tokens[i][2])
                    power = int(ptxt)
                    i += 1
                exps[index[val]] += power
                factors += 1
            elif kind == "op" and val == "*":
                if not factors:
                    raise PolyParseError("empty term before '*'", col)
                if i + 1 == len(tokens) or tokens[i + 1][0] not in ("num", "name"):
                    raise PolyParseError("expected a factor after '*'", col)
                i += 1
            elif kind == "op" and val in "+-":
                break
            else:
                raise PolyParseError(f"unexpected token {val!r}", col)
        alpha = tuple(exps)
        total = terms.get(alpha, 0.0) + coeff
        if total == 0.0:
            terms.pop(alpha, None)
        else:
            terms[alpha] = total
    return Polynomial(n, terms)
