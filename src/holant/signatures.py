"""Dense-table Boolean functions and the clone operations on them.

A Signature stores all 2^k values of f: {0,1}^k -> scalars with x1 as the most
significant index bit, so the value vector of M o f is literally M^{tensor k}
times the value vector of f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import (Cyc, ONE, ZERO, I, INV_SQRT2, approx_eq, as_scalar,
                      conjugate, is_exact, is_zero, to_complex)


class ArityMismatch(ValueError):
    pass


class ArityTooLarge(ValueError):
    pass


class Signature:
    __slots__ = ("arity", "values")

    def __init__(self, values, arity=None):
        values = tuple(as_scalar(v) for v in values)
        n = len(values)
        if arity is None:
            arity = n.bit_length() - 1
        if n != 1 << arity:
            raise ArityMismatch(f"table length {n} is not 2^{arity}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):
        raise AttributeError("Signature is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def symmetric(cls, entries):
        entries = [as_scalar(v) for v in entries]
        k = len(entries) - 1
        return cls([entries[bin(x).count("1")] for x in range(1 << k)], k)

    @classmethod
    def unary(cls, a, b):
        return cls([a, b], 1)

    @classmethod
    def named(cls, name, arity=None, param=None):
        base = name.upper().replace("-", "_")
        if "_" in base:
            head, _, tail = base.partition("_")
            if tail.isdigit():
                base, arity = head, int(tail)
        if base == "EQ":
            if arity is None or arity < 1:
                raise ArityMismatch("EQ needs an arity >= 1")
            return cls.symmetric([1] + [0] * (arity - 1) + [1]) if arity > 1 else cls([1, 1], 1)
        if base == "ONE":
            if arity is None or arity < 1:
                raise ArityMismatch("ONE needs an arity >= 1")
            return cls([1 if bin(x).count("1") == 1 else 0 for x in range(1 << arity)], arity)
        if base == "NEQ":
            if arity not in (None, 2):
                raise ArityMismatch("NEQ has arity 2")
            return cls([0, 1, 1, 0], 2)
        if base == "NAND":
            if arity not in (None, 2):
                raise ArityMismatch("NAND has arity 2")
            return cls([1, 1, 1, 0], 2)
        if base == "EVEN3":
            if arity not in (None, 3):
                raise ArityMismatch("EVEN3 has arity 3")
            return cls.symmetric([1, 0, 1, 0])
        if base == "DELTA0":
            return cls([1, 0], 1)
        if base == "DELTA1":
            return cls([0, 1], 1)
        if base == "U":
            return cls([1, param], 1)
        raise ArityMismatch(f"unknown named function: {name}")

    # -- indexing ----------------------------------------------------------

    @staticmethod
    def index(bits) -> int:
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    def value(self, bits):
        return self.values[Signature.index(bits)]

    def bits_of(self, idx: int):
        return tuple((idx >> (self.arity - 1 - j)) & 1 for j in range(self.arity))

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Signature) and self.arity == other.arity
                and self.values == other.values)

    def __hash__(self):
        return hash((self.arity, self.values))

    def __repr__(self):
        sym = self.to_symmetric()
        if sym is not None and self.arity >= 1:
            return f"Signature.symmetric({[repr(v) for v in sym]})"
        return f"Signature({[repr(v) for v in self.values]})"

    def is_exact(self) -> bool:
        return all(isinstance(v, Cyc) for v in self.values)

    def to_approx(self) -> "Signature":
        return Signature([to_complex(v) for v in self.values], self.arity)

    def max_abs(self) -> float:
        return max((abs(to_complex(v)) for v in self.values), default=0.0)

    def support(self, tol: float = 1e-9):
        if self.is_exact():
            return [i for i, v in enumerate(self.values) if v]
        thresh = tol * max(1.0, self.max_abs())
        return [i for i, v in enumerate(self.values) if abs(to_complex(v)) > thresh]

    def is_zero(self, tol: float = 1e-9) -> bool:
        return not self.support(tol)

    def scale(self, s) -> "Signature":
        s = as_scalar(s)
        return Signature([s * v for v in self.values], self.arity)

    __rmul__ = scale
    __mul__ = scale

    def is_symmetric(self) -> bool:
        seen = {}
        for i, v in enumerate(self.values):
            w = bin(i).count("1")
            if w in seen:
                if seen[w] != v:
                    return False
            else:
                seen[w] = v
        return True

    def to_symmetric(self):
        seen = [None] * (self.arity + 1)
        for i, v in enumerate(self.values):
            w = bin(i).count("1")
            if seen[w] is None:
                seen[w] = v
            elif seen[w] != v:
                return None
        return seen

    # -- clone operations ----------------------------------------------------

    def tensor(self, other: "Signature") -> "Signature":
        vals = [a * b for a in self.values for b in other.values]
        return Signature(vals, self.arity + other.arity)

    def permute(self, pi) -> "Signature":
        """f_pi(x_1..x_k) = f(x_pi(1), .., x_pi(k)); pi is 1-based."""
        k = self.arity
        if sorted(pi) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {pi}")
        vals = [ZERO] * (1 << k)
        for idx in range(1 << k):
            x = self.bits_of(idx)
            y = tuple(x[p - 1] for p in pi)
            vals[idx] = self.values[Signature.index(y)]
        return Signature(vals, k)

    def contract(self, i: int, j: int) -> "Signature":
        """Sum positions i and j (1-based, i < j) over equal values."""
        k = self.arity
        if not (1 <= i < j <= k):
            raise IndexError(f"bad contraction pair ({i}, {j}) for arity {k}")
        vals = []
        rest = [p for p in range(k) if p not in (i - 1, j - 1)]
        for idx in range(1 << (k - 2)):
            out_bits = tuple((idx >> (k - 3 - t)) & 1 for t in range(k - 2))
            total = None
            for y in (0, 1):
                full = [0] * k
                for pos, b in zip(rest, out_bits):
                    full[pos] = b
                full[i - 1] = full[j - 1] = y
                v = self.values[Signature.index(full)]
                total = v if total is None else total + v
            vals.append(total)
        return Signature(vals, k - 2)


class Transform2:
    """A 2x2 scalar matrix [[a, b], [c, d]] acting on signatures leg-by-leg."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", as_scalar(a))
        object.__setattr__(self, "b", as_scalar(b))
        object.__setattr__(self, "c", as_scalar(c))
        object.__setattr__(self, "d", as_scalar(d))

    def __setattr__(self, *args):
        raise AttributeError("Transform2 is immutable")

    @classmethod
    def from_rows(cls, rows):
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    @classmethod
    def from_columns(cls, u, v):
        return cls(u[0], v[0], u[1], v[1])

    @property
    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def entry(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        return (self.rows[0][j], self.rows[1][j])

    def __eq__(self, other):
        return isinstance(other, Transform2) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Transform2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __matmul__(self, other: "Transform2") -> "Transform2":
        return Transform2(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def is_invertible(self, tol: float = 1e-9) -> bool:
        return not is_zero(self.det(), tol)

    def inverse(self) -> "Transform2":
        det = self.det()
        if is_zero(det, 0.0 if is_exact(det) else 1e-300):
            raise ZeroDivisionError("singular transform")
        inv = ONE / det if is_exact(det) else 1.0 / det
        return Transform2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def transpose(self) -> "Transform2":
        return Transform2(self.a, self.c, self.b, self.d)

    def conj_transpose(self) -> "Transform2":
        return Transform2(conjugate(self.a), conjugate(self.c),
                          conjugate(self.b), conjugate(self.d))

    def scale(self, s) -> "Transform2":
        s = as_scalar(s)
        return Transform2(s * self.a, s * self.b, s * self.c, s * self.d)

    def is_orthogonal(self, tol: float = 1e-9) -> bool:
        p = self.transpose() @ self
        return (approx_eq(p.a, ONE, tol) and approx_eq(p.d, ONE, tol)
                and approx_eq(p.b, ZERO, tol) and approx_eq(p.c, ZERO, tol))

    def apply_vec(self, v):
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def to_signature(self) -> Signature:
        """The binary function with f(x, y) = M[x][y]."""
        return Signature([self.a, self.b, self.c, self.d], 2)

    def is_exact(self) -> bool:
        return all(isinstance(v, Cyc) for v in (self.a, self.b, self.c, self.d))

    def to_approx(self) -> "Transform2":
        return Transform2(*[to_complex(v) for v in (self.a, self.b, self.c, self.d)])


ID2 = Transform2(1, 0, 0, 1)
X2 = Transform2(0, 1, 1, 0)
_IHALF = Cyc(0, Fraction(1, 2), 0, Fraction(1, 2))  # i/sqrt2
K1 = Transform2(INV_SQRT2, INV_SQRT2, _IHALF, -_IHALF)
K2 = Transform2(INV_SQRT2, INV_SQRT2, -_IHALF, _IHALF)


def holo(M: Transform2, f: Signature) -> Signature:
    """M o f: the signature whose value vector is M^{tensor k} f."""
    k = f.arity
    if k == 0:
        return f
    vals = list(f.values)
    rows = M.rows
    for j in range(k):
        stride = 1 << (k - 1 - j)
        new = [None] * (1 << k)
        for idx in range(1 << k):
            if idx & stride:
                continue
            v0, v1 = vals[idx], vals[idx | stride]
            new[idx] = rows[0][0] * v0 + rows[0][1] * v1
            new[idx | stride] = rows[1][0] * v0 + rows[1][1] * v1
        vals = new
    return Signature(vals, k)


def matrix_view(f: Signature) -> Transform2:
    if f.arity != 2:
        raise ArityMismatch("matrix view needs a binary signature")
    return Transform2(*f.values)


def sig_max_residual(f: Signature, g: Signature) -> float:
    if f.arity != g.arity:
        raise ArityMismatch("arity mismatch")
    return max((abs(to_complex(a) - to_complex(b)) for a, b in zip(f.values, g.values)),
               default=0.0)


def sig_approx_eq(f: Signature, g: Signature, tol: float = 1e-9) -> bool:
    if f.arity != g.arity:
        return False
    if f.is_exact() and g.is_exact():
        return f == g
    return sig_max_residual(f, g) <= tol


# -- tensor-atom decomposition ---------------------------------------------

@dataclass(frozen=True)
class AtomDecomposition:
    scalar: object
    atoms: tuple
    placement: tuple  # tuple of tuples of 1-based original positions

    def reassemble(self, arity: int) -> Signature:
        vals = []
        for idx in range(1 << arity):
            bits = tuple((idx >> (arity - 1 - j)) & 1 for j in range(arity))
            v = self.scalar
            for atom, places in zip(self.atoms, self.placement):
                v = v * atom.value(tuple(bits[p - 1] for p in places))
            vals.append(v)
        return Signature(vals, arity)


def _subsets_with_first(k):
    """Proper nonempty subsets of {0..k-1} containing 0, by (size, lex)."""
    from itertools import combinations
    for size in range(1, k):
        for rest in combinations(range(1, k), size - 1):
            yield (0,) + rest


def _flatten(f: Signature, block):
    """Value matrix with rows indexed by the block positions, columns by the rest."""
    k = f.arity
    other = [p for p in range(k) if p not in block]
    rows = []
    for ri in range(1 << len(block)):
        row = []
        for ci in range(1 << len(other)):
            bits = [0] * k
            for t, p in enumerate(block):
                bits[p] = (ri >> (len(block) - 1 - t)) & 1
            for t, p in enumerate(other):
                bits[p] = (ci >> (len(other) - 1 - t)) & 1
            row.append(f.values[Signature.index(bits)])
        rows.append(row)
    return rows, other


def _rank1_factor(rows, exact: bool, tol: float):
    """(col, row) factors if the matrix has rank 1, else None."""
    nr, nc = len(rows), len(rows[0])
    if exact:
        pivot = None
        for i in range(nr):
            for j in range(nc):
                if rows[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return None
        pi, pj = pivot
        u = [rows[i][pj] for i in range(nr)]
        pv = rows[pi][pj]
        v = [rows[pi][j] / pv for j in range(nc)]
        for i in range(nr):
            for j in range(nc):
                if rows[i][j] != u[i] * v[j]:
                    return None
        return u, v
    import numpy as np
    m = np.array([[to_complex(x) for x in row] for row in rows], dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)
    if len(sv) > 1 and sv[1] > tol * (sv[0] + 1):
        return None
    if sv[0] == 0.0:
        return None
    flat = [(-abs(to_complex(rows[i][j])), i, j) for i in range(nr) for j in range(nc)]
    _, pi, pj = min(flat)
    pv = to_complex(rows[pi][pj])
    u = [to_complex(rows[i][pj]) for i in range(nr)]
    v = [to_complex(rows[pi][j]) / pv for j in range(nc)]
    for i in range(nr):
        for j in range(nc):
            if abs(to_complex(rows[i][j]) - u[i] * v[j]) > tol * (abs(pv) + 1):
                return None
    return u, v


def decompose_atoms(f: Signature, cap: int = 12, tol: float = 1e-9) -> AtomDecomposition:
    if f.arity > cap:
        raise ArityTooLarge(f"arity {f.arity} above decomposition cap {cap}")
    if f.arity == 0:
        return AtomDecomposition(f.values[0], (), ())
    if f.is_zero(tol):
        delta0 = Signature([1, 0], 1)
        return AtomDecomposition(ZERO if f.is_exact() else 0j,
                                 (delta0,) * f.arity,
                                 tuple((p,) for p in range(1, f.arity + 1)))

    exact = f.is_exact()

    def norm_atom(g: Signature):
        vals = g.values
        if exact:
            piv = next(v for v in vals if v)
        else:
            piv = max(vals, key=lambda v: abs(to_complex(v)))
            piv = to_complex(piv)
        return piv, Signature([v / piv for v in vals], g.arity)

    def rec(sig: Signature, places):
        k = sig.arity
        if k == 1:
            s, atom = norm_atom(sig)
            return s, [atom], [tuple(places)]
        for block0 in _subsets_with_first(k):
            rows, other = _flatten(sig, block0)
            fac = _rank1_factor(rows, exact, tol)
            if fac is None:
                continue
            u, v = fac
            g = Signature(u, len(block0))
            h = Signature(v, len(other))
            s1, a1, p1 = rec(g, [places[p] for p in block0])
            s2, a2, p2 = rec(h, [places[p] for p in other])
            return s1 * s2, a1 + a2, p1 + p2
        s, atom = norm_atom(sig)
        return s, [atom], [tuple(places)]

    s, atoms, placement = rec(f, list(range(1, f.arity + 1)))
    return AtomDecomposition(s, tuple(atoms), tuple(placement))


# -- family membership -------------------------------------------------------

def in_E(f: Signature, tol: float = 1e-9) -> bool:
    """Support contained in a complementary pair {a, abar}."""
    sup = f.support(tol)
    if len(sup) <= 1:
        return True
    if len(sup) == 2:
        full = (1 << f.arity) - 1
        return sup[0] ^ sup[1] == full
    return False


def in_M(f: Signature, tol: float = 1e-9) -> bool:
    """Support only on inputs of Hamming weight <= 1."""
    return all(bin(i).count("1") <= 1 for i in f.support(tol))


def family_test(f: Signature, family: str, pre_transform: Transform2 = None,
                tol: float = 1e-9, cap: int = 12) -> bool:
    g = f
    if pre_transform is not None:
        g = holo(pre_transform.inverse(), f)
    if family == "E":
        return in_E(g, tol)
    if family == "M":
        return in_M(g, tol)
    if family == "T_atoms":
        dec = decompose_atoms(g, cap=cap, tol=tol)
        return all(a.arity <= 2 for a in dec.atoms)
    raise ValueError(f"unknown family: {family}")


MAX_LITERAL_ARITY = 16  # a function literal may expand to at most 2^16 values


def signature_from_json(obj) -> Signature:
    from .scalars import ParseError, parse_scalar

    def scalars(key, n=None):
        vals = obj[key]
        if not isinstance(vals, (list, tuple)) or n not in (None, len(vals)):
            raise ParseError(f"{key!r} must be a list of {f'{n} ' if n else ''}scalars")
        return [parse_scalar(v) for v in vals]

    def arity(k):
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise ParseError(f"arity must be an integer, got {k!r}")
        return k

    def expandable(k):  # checked before a short literal expands to 2^k values
        if k is not None and k > MAX_LITERAL_ARITY:
            raise ArityTooLarge(f"arity {k} above the literal limit {MAX_LITERAL_ARITY}")

    if not isinstance(obj, dict):
        raise ParseError(f"function literal must be an object, got {type(obj).__name__}")
    if "values" in obj:
        return Signature(scalars("values"), arity(obj.get("arity")))
    if "symmetric" in obj:
        entries = scalars("symmetric")
        expandable(len(entries) - 1)
        return Signature.symmetric(entries)
    if "named" in obj:
        name = obj["named"]
        if not isinstance(name, str):
            raise ParseError(f"function name must be a string, got {name!r}")
        tail = name.replace("-", "_").partition("_")[2]
        k = arity(obj.get("arity"))
        expandable(int(tail) if tail.isdigit() else k)
        param = obj.get("param")
        if param is not None:
            param = parse_scalar(param)
        return Signature.named(name, k, param)
    if "unary" in obj:
        return Signature(scalars("unary", 2), 1)
    raise ParseError(f"unrecognized function literal keys: {sorted(obj)}")


def signature_to_json(f: Signature) -> dict:
    from .scalars import format_scalar
    return {"arity": f.arity, "values": [format_scalar(v) for v in f.values]}


def is_unitary(f: Signature, tol: float = 1e-9) -> bool:
    if f.arity % 2:
        return False
    n = f.arity // 2
    dim = 1 << n
    # U[row = last n args][col = first n args]
    u = [[f.values[(c << n) | r] for c in range(dim)] for r in range(dim)]
    exact = f.is_exact()
    for i in range(dim):
        for j in range(dim):
            acc = None
            for r in range(dim):
                term = conjugate(u[r][i]) * u[r][j]
                acc = term if acc is None else acc + term
            want = ONE if i == j else ZERO
            if exact:
                if acc != want:
                    return False
            elif not approx_eq(acc, want, tol):
                return False
    return True
