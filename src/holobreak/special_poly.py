"""Scalar special functions and the classical polynomial families.

Everything downstream leans on this module twice over: once for floating
point evaluation (Lanczos gamma, norm constants) and once for exact rational
arithmetic (Pochhammer products, polynomial coefficient tables built from
`fractions.Fraction`).  A function that receives exact input returns exact
output wherever the value is rational; otherwise it degrades to float or
complex without complaint.

Polynomial containers are deliberately small: dense coefficients in one
variable, a sparse exponent map in two.  They carry no arithmetic: the
builders below fill them, and the transforms read them back, by evaluation
(on node arrays through `as_float`) or as the coefficient table of an
operator (`items`, `coeff`).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """Parameter outside the domain a formula is valid on."""


class PoleError(DomainError):
    """Evaluation requested at a pole."""


# ---------------------------------------------------------------------------
# scalar helpers


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_integer(x):
    """Return the value as an int when it is integral, else None."""
    if type(x) is float:  # first: a Fraction test is an ABC check
        return int(x) if x.is_integer() else None
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    if isinstance(x, complex):
        if x.imag == 0.0 and x.real.is_integer():
            return int(x.real)
        return None
    return None


def pochhammer(x, k: int):
    """Rising factorial x(x+1)...(x+k-1); exact when x is exact."""
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer needs k in N, got {k!r}")
    out = Fraction(1) if is_exact(x) else 1.0
    for j in range(int(k)):
        out = out * (x + j)
    return out


_LANCZOS = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_gamma(z: complex) -> complex:
    if z.real < 0.5:
        # reflection keeps the series argument in the stable half plane
        return math.pi / (cmath.sin(math.pi * z) * _lanczos_gamma(1.0 - z))
    z = z - 1.0
    x = 0.99999999999980993
    for i, c in enumerate(_LANCZOS):
        x += c / (z + i + 1)
    t = z + len(_LANCZOS) - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def complex_gamma(z):
    """Gamma function on C; raises PoleError at non-positive integers.

    Real positive arguments go through math.gamma for full double precision;
    everything else uses a Lanczos evaluation with reflection.
    """
    n = as_integer(z)
    if n is not None and n <= 0:
        raise PoleError(f"gamma pole at {z!r}")
    if type(z) is not float and isinstance(z, (int, Fraction)):
        z = float(z)
    if isinstance(z, float):
        if z > 0:
            return math.gamma(z)
        return math.pi / (math.sin(math.pi * z) * math.gamma(1.0 - z))
    return _lanczos_gamma(complex(z))


def reciprocal_gamma(z):
    """1/Gamma(z), returning exactly 0.0 at the poles of Gamma."""
    n = as_integer(z)
    if n is not None and n <= 0:
        return 0.0
    return 1.0 / complex_gamma(z)


def beta(a, b):
    """Euler beta via reciprocal gamma, surviving pole cancellation.

    When a (or b) sits at a pole of Gamma while a+b does too, the quotient
    Gamma(a)/Gamma(a+b) has a finite limit reached through the reflection
    formula; that limit is returned.  An uncancelled pole raises.
    """
    na = as_integer(a)
    nb = as_integer(b)
    ab = a + b
    nab = as_integer(ab)
    pa = na is not None and na <= 0
    pb = nb is not None and nb <= 0
    pab = nab is not None and nab <= 0
    if pa and pb:
        raise PoleError(f"beta({a!r}, {b!r}): double pole")
    if pa or pb:
        if not pab:
            raise PoleError(f"beta({a!r}, {b!r}): uncancelled pole")
        if pb:
            a, b = b, a
            na = nb
        # a = -m, a + b = -p with b a positive integer:
        # lim Gamma(a+e)/Gamma(a+b+e) = (-1)^b (1-a-b)...(−a) = (-1)^b p!/m!
        m = -na
        p = -nab
        bi = as_integer(b)
        return (-1) ** bi * math.factorial(bi - 1) * Fraction(
            math.factorial(p), math.factorial(m)
        )
    return gamma_quotient(
        lambda: complex_gamma(a) * complex_gamma(b) * reciprocal_gamma(ab), (a, b), (ab,), ()
    )


_LOG2, _LOG_PI = math.log(2.0), math.log(math.pi)


def _pole(x) -> bool:
    n = as_integer(x)
    return n is not None and n <= 0


def gamma_quotient(direct, up, down, divisors, log_factor=0.0):
    """direct(), the quotient prod Gamma(up) / (prod Gamma(down) prod divisors)
    times exp(log_factor): the one overflow rule of the Gamma quotients.

    Where direct() raises OverflowError or gives inf, or nan from inf / inf,
    and every argument and divisor is real, no `up` argument is a pole and
    no divisor is 0, the quotient is sign * exp(log) of
    `log_gamma_quotient`; a `down` argument at a pole makes it exactly 0, as
    reciprocal_gamma does.  Past the double range that raises OverflowError
    too.  Every finite value of direct() is returned as it is."""
    def loggable():
        return (not any(isinstance(x, complex) for x in (*up, *down, *divisors))
                and not any(map(_pole, up)) and all(divisors))

    try:
        value = direct()
    except OverflowError:
        if not loggable():
            raise
    else:
        if math.isfinite(abs(value)) or not loggable():
            return value
    sign, log = log_gamma_quotient(up, down, divisors, log_factor)
    return sign * math.exp(log)


def log_gamma_quotient(up, down, divisors, log_factor=0.0):
    """(sign, log|q|) of the quotient q that `gamma_quotient` takes, from
    lgamma and log terms, for real arguments and divisors with no `up`
    argument at a pole and no divisor 0.  A `down` argument at a pole makes
    q exactly 0: (0.0, -inf).  The sign is -1.0 after an odd count of
    negative divisors and of Gammas negative at negative arguments, +1.0
    otherwise.  log|q| stays finite past the double range of q."""
    if any(map(_pole, down)):
        return 0.0, -math.inf
    negatives = [x for x in (*up, *down) if x < 0 and math.floor(-x) % 2 == 0]
    negatives += [x for x in divisors if x < 0]
    terms = [log_factor, *map(math.lgamma, up)]
    terms += [-math.lgamma(x) for x in down] + [-math.log(abs(x)) for x in divisors]
    return (-1.0) ** len(negatives), math.fsum(terms)


# ---------------------------------------------------------------------------
# polynomial containers


def _strip(coeffs):
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if not cs:
        cs = [0]
    return tuple(cs)


@dataclass(frozen=True)
class PolyOneVar:
    """Dense univariate polynomial, coefficients low degree first.

    Normalization strips exact zero leading coefficients, so a family whose
    top coefficient collapses at special parameter values simply holds fewer
    coefficients.  The zero polynomial is (0,).
    """

    coefficients: tuple

    def __call__(self, t):
        out = 0
        for c in reversed(self.coefficients):
            out = out * t + c
        return out

    def as_float(self) -> "PolyOneVar":
        """The polynomial with float coefficients, for evaluation on node
        arrays.  At a float point Python already runs Horner's rule in float
        arithmetic (Fraction + float converts the Fraction), so the values
        agree with the exact polynomial's bit for bit."""
        return PolyOneVar(tuple(float(c) for c in self.coefficients))


def poly_one(coeffs) -> PolyOneVar:
    return PolyOneVar(_strip(coeffs))


@dataclass(frozen=True)
class PolyTwoVar:
    """Sparse bivariate polynomial as a sorted ((i, j), coeff) table."""

    coefficients: tuple

    def items(self):
        return self.coefficients

    def __call__(self, x, y):
        out = 0
        for (i, j), c in self.coefficients:
            out = out + c * x**i * y**j
        return out


def poly_two(mapping) -> PolyTwoVar:
    items = tuple(sorted((k, v) for k, v in dict(mapping).items() if v != 0))
    return PolyTwoVar(items)


# ---------------------------------------------------------------------------
# Jacobi family


def check_ell(ell):
    """Raise DomainError unless ell is a nonnegative int (bool excluded): the
    degree rule of every polynomial builder and constant indexed by ell."""
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 0:
        raise DomainError("ell must be a nonnegative integer")


def levels(components, L=None):
    """The (ell, component) pairs an inverse series sums, in ell order and
    without the levels above L.  L, when given, and every key pass
    `check_ell` before anything is sorted."""
    if L is not None:
        check_ell(L)
    for ell in components:
        check_ell(ell)
    return [(ell, components[ell]) for ell in sorted(components) if L is None or ell <= L]


def _jacobi_coeffs(ell: int, alpha, beta_):
    """(alpha+beta_+ell+1)_j (alpha+j+1)_(ell-j) / (j! (ell-j)!) for j = 0..ell:
    the coefficients the Jacobi builds share, returned as (cs, den).

    Exact parameters are held as integer numerators over one denominator:
    with alpha = A/q and beta_ = B/q over q = lcm of their denominators, the
    j-th coefficient is cs[j] / den with den = q^ell ell!, and no Fraction is
    built.  Float or complex parameters give the coefficients themselves with
    den None, each factorial a running product in float arithmetic, in an
    order of operations the tests pin bit for bit.
    """
    if is_exact(alpha) and is_exact(beta_):
        q = math.lcm(alpha.denominator, beta_.denominator)
        A = alpha.numerator * (q // alpha.denominator)
        S = A + beta_.numerator * (q // beta_.denominator) + (ell + 1) * q
        # q^j (s)_j and q^(ell-j) (alpha+j+1)_(ell-j), both running products
        asc, desc = [1], [1]
        for j in range(ell):
            asc.append(asc[-1] * (S + j * q))
            desc.append((A + (ell - j) * q) * desc[-1])
        cs = [math.comb(ell, j) * x * y for j, (x, y) in enumerate(zip(asc, reversed(desc)))]
        return cs, q**ell * math.factorial(ell)
    s = alpha + beta_ + ell + 1
    asc, desc = [pochhammer(s, 0)], [pochhammer(alpha, 0)]  # 1 in each tier
    for j in range(ell):
        asc.append(asc[-1] * (s + j))
        # from j = ell down, so in float it may round apart from `pochhammer`
        desc.append((alpha + (ell - j)) * desc[-1])
    cs = [
        a * d / (math.factorial(j) * math.factorial(ell - j))
        for j, (a, d) in enumerate(zip(asc, reversed(desc)))
    ]
    return cs, None


def jacobi_poly(ell: int, alpha, beta_) -> PolyOneVar:
    """Degree-ell Jacobi polynomial for the weight pair (alpha, beta_).

    Coefficients follow the explicit hypergeometric sum in powers of
    (t-1)/2, expanded into the monomial basis.  Exact parameters give exact
    coefficients: the sum runs over integer numerators on one denominator,
    that of `_jacobi_coeffs` times 2^ell, and each coefficient becomes one
    Fraction at the end.  Float parameters are folded term by term in float arithmetic, in
    an order of operations the tests pin bit for bit.
    """
    check_ell(ell)
    cs, den = _jacobi_coeffs(ell, alpha, beta_)
    if den is None:
        terms, coeffs = [c / 2**j for j, c in enumerate(cs)], [0.0] * (ell + 1)
    else:
        terms, coeffs = [c << (ell - j) for j, c in enumerate(cs)], [0] * (ell + 1)
        den <<= ell
    for j, term in enumerate(terms):
        # ((t-1)/2)^j contributes C(j, m) (-1)^(j-m) t^m / 2^j, folded above
        for m in range(j + 1):
            coeffs[m] = coeffs[m] + term * math.comb(j, m) * (-1) ** (j - m)
    return poly_one(_over(coeffs, den))


def jacobi_inflated(ell: int, alpha, beta_) -> PolyTwoVar:
    """Homogeneous degree-ell inflation of the Jacobi polynomial.

    Satisfies inflated(x, y) = (-1)^ell (x+y)^ell P((y-x)/(x+y)) off the
    line x + y = 0.
    """
    check_ell(ell)
    cs, den = _jacobi_coeffs(ell, alpha, beta_)
    coeffs = [0] * (ell + 1)  # index i holds the coefficient of x^i y^(ell-i)
    for j, c in enumerate(cs):
        a_j = (-1) ** (ell - j) * c
        for k in range(ell - j + 1):
            coeffs[j + k] = coeffs[j + k] + a_j * math.comb(ell - j, k)
    return poly_two({(i, ell - i): c for i, c in enumerate(_over(coeffs, den))})


def jacobi_variant(ell: int, alpha, beta_) -> PolyTwoVar:
    """Homogenization y^ell P(1 + 2x/y) of the Jacobi polynomial."""
    check_ell(ell)
    cs, den = _jacobi_coeffs(ell, alpha, beta_)
    return poly_two({(j, ell - j): c for j, c in enumerate(_over(cs, den))})


def _over(nums: list, den) -> list:
    """Integer numerators as one Fraction each over den; float values (den
    None) as they are."""
    return nums if den is None else [Fraction(n, den) for n in nums]


def jacobi_norm_sq(ell: int, alpha, beta_):
    """L2 norm squared of the Jacobi polynomial against its own weight
    (1-t)^alpha (1+t)^beta on (-1, 1); needs real alpha, beta > -1."""
    if isinstance(alpha, complex) or isinstance(beta_, complex):
        raise DomainError("jacobi_norm_sq needs real parameters")
    a = float(alpha)
    b = float(beta_)
    if a <= -1 or b <= -1:
        raise DomainError("jacobi_norm_sq needs alpha, beta > -1")
    log_factor = (a + b + 1) * _LOG2
    if ell == 0:
        # the generic denominator hits Gamma(a+b+1) which may sit at a pole;
        # the (a+b+1) prefactor absorbs it
        return gamma_quotient(
            lambda: 2.0 ** (a + b + 1) * complex_gamma(a + 1) * complex_gamma(b + 1)
            * reciprocal_gamma(a + b + 2),
            (a + 1, b + 1), (a + b + 2,), (), log_factor,
        )
    return gamma_quotient(
        lambda: 2.0 ** (a + b + 1) * complex_gamma(ell + a + 1) * complex_gamma(ell + b + 1)
        / ((2 * ell + a + b + 1) * complex_gamma(ell + a + b + 1) * math.factorial(ell)),
        (ell + a + 1, ell + b + 1), (ell + a + b + 1, ell + 1), (2 * ell + a + b + 1,), log_factor,
    )


# ---------------------------------------------------------------------------
# Gegenbauer family


def gegenbauer_a(ell: int, k: int, alpha):
    """Monomial coefficient a_k of the Gegenbauer polynomial.

    a_k(ell, alpha) = (-1)^k 2^(ell-2k) (alpha)_(ell-k) / (k! (ell-2k)!),
    defined for 2k <= ell.
    """
    check_ell(ell)
    if not 0 <= 2 * k <= ell:
        raise DomainError(f"gegenbauer_a needs 0 <= 2k <= ell, got k={k}, ell={ell}")
    num = (-1) ** k * 2 ** (ell - 2 * k) * pochhammer(alpha, ell - k)
    return num / (math.factorial(k) * math.factorial(ell - 2 * k))


def gegenbauer_poly(ell: int, alpha) -> PolyOneVar:
    """Degree-ell Gegenbauer polynomial with parameter alpha."""
    check_ell(ell)
    coeffs = [0] * (ell + 1)
    for k in range(ell // 2 + 1):
        coeffs[ell - 2 * k] = gegenbauer_a(ell, k, alpha)
    return poly_one(coeffs)


def gegenbauer_inflated(ell: int, alpha) -> PolyTwoVar:
    """Two-variable form sum_k a_k u^k v^(ell-2k).

    Substituting u = w^2 recovers w^ell C(v/w); each monomial has
    2*(u-degree) + (v-degree) = ell.
    """
    check_ell(ell)
    m = {}
    for k in range(ell // 2 + 1):
        m[(k, ell - 2 * k)] = gegenbauer_a(ell, k, alpha)
    return poly_two(m)


def gegenbauer_norm_sq(ell: int, alpha):
    """L2 norm squared against (1-v^2)^(alpha-1/2) on (-1, 1); alpha > -1/2."""
    if isinstance(alpha, complex):
        raise DomainError("gegenbauer_norm_sq needs a real parameter")
    a = float(alpha)
    if a <= -0.5:
        raise DomainError("gegenbauer_norm_sq needs alpha > -1/2")
    if a == 0.0:
        # removable limit: the family itself degenerates
        return math.pi if ell == 0 else 0.0
    return gamma_quotient(
        lambda: math.pi * 2.0 ** (1 - 2 * a) * complex_gamma(ell + 2 * a)
        / (math.factorial(ell) * (ell + a) * complex_gamma(a) ** 2),
        (ell + 2 * a,), (ell + 1, a, a), (ell + a,), _LOG_PI + (1 - 2 * a) * _LOG2,
    )
