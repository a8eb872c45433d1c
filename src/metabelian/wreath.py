"""The abelian wreath product carrying the faithful embedding of the algebra.

Elements have the shape  w = sum_i u_i p_i(x_1..x_n) + sum_i a_i v_i  with
polynomial u-coefficients and scalar v-coefficients.  The bracket is

    [W, W] = [V, V] = 0,      [u_i p, v_j] = u_i p x_j,

and the embedding sends x_i to u_i + v_i.  A commutator [x_i, x_j] (i > j)
lands on u_i x_j - u_j x_i, and acting by a polynomial multiplies the
u-coefficients, so the embedded image of the commutator ideal is exactly the
kernel of (p_1, ..., p_n) -> sum_i x_i p_i with zero v-part.  Both the
membership residual and the preimage group the u-coordinates (i, m) by their
content x_i * m: a commutator only moves coefficient between coordinates of
one content class, so the preimage clears every class independently and
hands the ad-actions it needs to ``lie.sum_of_actions`` in a single call.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, DomainError, MembershipError, RankError
from .lie import BasisCommutator, LieElement, sum_of_actions
from .polynomials import Polynomial, _require_ints, add_terms, as_fraction, signed_text, unit_vector

_ZERO = Fraction(0)


class WreathElement:
    """n polynomial u-coefficients plus n scalar v-coefficients."""

    __slots__ = ("n", "upart", "vpart")

    def __init__(self, n: int, upart=None, vpart=None):
        _require_ints(n)
        if n < 1:
            raise RankError(f"rank must be positive, got {n}")
        self.n = n
        if upart is None:
            self.upart = tuple(Polynomial.zero(n) for _ in range(n))
        else:
            upart = tuple(upart)
            if len(upart) != n:
                raise DimensionError(f"{len(upart)} u-coefficients, expected {n}")
            for p in upart:
                if p.nvars != n:
                    raise DimensionError(
                        f"u-coefficient over {p.nvars} variables, expected {n}"
                    )
            self.upart = upart
        if vpart is None:
            self.vpart = (_ZERO,) * n
        else:
            vpart = tuple(as_fraction(v) for v in vpart)
            if len(vpart) != n:
                raise DimensionError(f"{len(vpart)} v-coefficients, expected {n}")
            self.vpart = vpart

    @classmethod
    def zero(cls, n: int) -> "WreathElement":
        return cls(n)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.upart) and all(v == 0 for v in self.vpart)

    def vpart_is_zero(self) -> bool:
        return all(v == 0 for v in self.vpart)

    def _require_same(self, other: "WreathElement"):
        if self.n != other.n:
            raise DimensionError(f"ranks {self.n} and {other.n} differ")

    def __add__(self, other: "WreathElement") -> "WreathElement":
        self._require_same(other)
        return WreathElement(
            self.n,
            tuple(p + q for p, q in zip(self.upart, other.upart)),
            tuple(a + b for a, b in zip(self.vpart, other.vpart)),
        )

    def __neg__(self) -> "WreathElement":
        return WreathElement(
            self.n,
            tuple(-p for p in self.upart),
            tuple(-v for v in self.vpart),
        )

    def __sub__(self, other: "WreathElement") -> "WreathElement":
        return self + (-other)

    def __mul__(self, scalar) -> "WreathElement":
        scalar = as_fraction(scalar)
        return WreathElement(
            self.n,
            tuple(p * scalar for p in self.upart),
            tuple(v * scalar for v in self.vpart),
        )

    def __rmul__(self, scalar):
        return self * scalar

    def module_mul(self, p: Polynomial) -> "WreathElement":
        """Right action of the polynomial ring on the u-ideal."""
        if not self.vpart_is_zero():
            raise DomainError("the polynomial action is defined on the u-ideal only")
        if p.nvars != self.n:
            raise DimensionError(f"polynomial over {p.nvars} variables, rank {self.n}")
        return WreathElement(self.n, tuple(q * p for q in self.upart))

    def __eq__(self, other):
        return (
            isinstance(other, WreathElement)
            and self.n == other.n
            and self.upart == other.upart
            and self.vpart == other.vpart
        )

    __hash__ = None

    def to_text(self) -> str:
        pieces = [
            (1, f"u{i}*( {p.to_text()} )") for i, p in enumerate(self.upart, 1) if not p.is_zero()
        ]
        pieces += [(coeff, f"v{i}") for i, coeff in enumerate(self.vpart, 1) if coeff != 0]
        return signed_text(pieces)

    def __repr__(self):
        return self.to_text()


def embed(f: LieElement) -> WreathElement:
    """The faithful homomorphism determined by x_i -> u_i + v_i."""
    n = f.n
    udicts = [{} for _ in range(n)]
    zero_mono = (0,) * n
    for idx, coeff in enumerate(f.linear):
        if coeff != 0:
            udicts[idx][zero_mono] = coeff
    for c, gamma in f.comm.items():
        mono = [0] * n
        for t in c.tail:
            mono[t - 1] += 1
        m1 = list(mono)
        m1[c.i2 - 1] += 1
        m2 = list(mono)
        m2[c.i1 - 1] += 1
        add_terms(udicts[c.i1 - 1], ((tuple(m1), gamma),))
        add_terms(udicts[c.i2 - 1], ((tuple(m2), -gamma),))
    return WreathElement(
        n,
        tuple(Polynomial._wrap(n, d) for d in udicts),
        f.linear,
    )


def _content_classes(polys):
    """Group the u-coordinates (i, m) by their content x_i * m.

    ``polys`` holds one term dict per u-index; each class lists its
    (i, coefficient) pairs in increasing i.
    """
    classes = {}
    for i, terms in enumerate(polys):
        for mono, coeff in terms.items():
            content = list(mono)
            content[i] += 1
            classes.setdefault(tuple(content), []).append((i, coeff))
    return classes


def _class_sums(n: int, classes) -> Polynomial:
    """sum_i x_i p_i read off the content classes."""
    return Polynomial(n, {content: sum(c for _, c in members)
                          for content, members in classes.items()})


def membership_residual(w: WreathElement) -> Polynomial:
    """sum_i x_i p_i(x); zero exactly on the embedded commutator ideal."""
    return _class_sums(w.n, _content_classes(p.terms for p in w.upart))


def in_commutator_image(w: WreathElement) -> bool:
    """True iff w is the embedded image of a commutator-ideal element."""
    return w.vpart_is_zero() and membership_residual(w).is_zero()


def substitute_u_equals_x(w: WreathElement) -> Polynomial:
    """Evaluate u_i -> x_i (and v_i -> x_i): sum x_i p_i + sum a_i x_i."""
    total = membership_residual(w)
    extra = {unit_vector(w.n, i): coeff for i, coeff in enumerate(w.vpart) if coeff != 0}
    return total + Polynomial(w.n, extra)


def preimage(w: WreathElement) -> LieElement:
    """Invert the embedding; raises MembershipError off the image.

    The v-part dictates the linear part.  The remaining u-part must satisfy
    sum_i x_i p_i = 0, that is, the coefficients of every content class
    M = x_i * m sum to zero.  Within a class with smallest contributing index
    b, each other contributor a is cleared by coeff * embed([x_a, x_b] *
    M/(x_a x_b)), which moves its coefficient onto b and nowhere else, so the
    classes are independent; grouped by (a, b) into polynomials in
    M/(x_a x_b), one ``sum_of_actions`` call assembles the canonical preimage.
    """
    n = w.n
    linear = w.vpart
    classes = _content_classes(
        (p - Polynomial.constant(n, v)).terms for p, v in zip(w.upart, linear)
    )
    residual = _class_sums(n, classes)
    if not residual.is_zero():
        raise MembershipError(
            f"element is not in the embedded image; residual sum x_i*p_i = {residual}",
            residual,
        )
    actions = {}
    for content, members in classes.items():
        b = members[0][0]
        for a, coeff in members[1:]:
            m_ab = list(content)
            m_ab[a] -= 1
            m_ab[b] -= 1
            actions.setdefault((a + 1, b + 1), {})[tuple(m_ab)] = coeff
    pairs = [({BasisCommutator(*ab): 1}, Polynomial._wrap(n, m)) for ab, m in actions.items()]
    return LieElement._wrap(n, linear, sum_of_actions(n, pairs).comm)


def apply_perm_wreath(sigma, w: WreathElement) -> WreathElement:
    """Permute u-indices, v-indices, and x-variables simultaneously."""
    if sigma.size != w.n:
        raise DimensionError(f"permutation degree {sigma.size}, rank {w.n}")
    n = w.n
    upart = [None] * n
    vpart = [_ZERO] * n
    for i in range(n):
        upart[sigma(i + 1) - 1] = w.upart[i].apply_perm(sigma)
        vpart[sigma(i + 1) - 1] = w.vpart[i]
    return WreathElement(n, tuple(upart), tuple(vpart))
