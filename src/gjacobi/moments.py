"""Moment sequences, Hankel determinants and normal indices.

A moment sequence holds the coefficients s_0, s_1, ... of the series
-s_0/lambda - s_1/lambda^2 - ...  Exact sequences carry Fraction entries
(int entries become Fractions); float sequences get a tolerance-based zero
test (see FLOAT_ZERO_TOL and MomentSequence.first_nonzero).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import AllZero, InsufficientMoments

# Relative zero tolerance of a float entry (see first_nonzero).  The exact
# ring uses true equality.
FLOAT_ZERO_TOL = 1e-12
# Largest modulus of a decimal exponent an exact parse accepts (see
# parse_ratio); 10^4000 still prints within Python's 4300-digit limit.
MAX_EXACT_EXPONENT = 4000
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")
_DIGIT = re.compile(r"\d")


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix of real moments with a positive normalization factor."""

    coeffs: tuple
    scale: object = 1
    certified_up_to: int | None = None  # highest certified index, None = all

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            Fraction(c) if isinstance(c, int) else c for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("moment sequence must have at least one entry")

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    @property
    def is_exact(self):
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def first_nonzero(self):
        """Index of the first nonzero entry, or None if all vanish.

        A float entry s_i counts as zero within FLOAT_ZERO_TOL of the
        largest |s_0|, ..., |s_2i|: the Hankel window of order i + 1, whose
        determinant is +-s_i^(i+1) when s_0, ..., s_(i-1) vanish.  As in
        normal_indices, a window is measured on its own scale, so the later
        moments, which grow like R^i, do not swamp the first ones.
        """
        c = self.coeffs
        for i, v in enumerate(c):
            if isinstance(v, (Fraction, int)):
                if v:
                    return i
            elif not abs(v) <= FLOAT_ZERO_TOL * max(map(abs, c[:2 * i + 1])):
                return i
        return None

    # -- serialization -------------------------------------------------
    def to_json(self):
        return json.dumps({"moments": [_scalar_str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text, exact_parse=False):
        return cls.from_data(json.loads(text), exact_parse)

    @classmethod
    def from_data(cls, data, exact_parse=False):
        return cls(tuple(parse_scalar(v, exact_parse) for v in _json_list(data, "moments")))


def _scalar_str(c):
    if isinstance(c, (Fraction, int)):
        c = Fraction(c)
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return repr(float(c))


def _json_list(data, key):
    """data[key], which must be a list: a JSON string or object is refused,
    not read by its characters or its keys."""
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def parse_scalar(text, exact_parse=False):
    """Parse "p/q" as Fraction; decimal strings give floats unless promoted.

    The accepted strings are exactly Fraction's (see parse_ratio).
    """
    value = parse_ratio(text, exact_parse)
    return Fraction(*value) if isinstance(value, tuple) else value


def parse_ratio(text, exact_parse=False):
    """parse_scalar's value: an exact one as an integer pair (num, den), den
    > 0 and the pair not necessarily reduced, a float as the float.

    Integers and ratios of ASCII digits with an optional leading sign are
    read by int() directly (a zero denominator raises ZeroDivisionError, as
    Fraction(text) does); everything else goes to Fraction(text) or
    float(text), so the accepted strings are exactly Fraction's.  An exact
    decimal with a zero mantissa is 0 whatever its exponent, and one whose
    exponent exceeds MAX_EXACT_EXPONENT in modulus is refused with
    ValueError: Fraction would build that power of ten, and a string of 8
    characters can ask for 10^9999999.  A float decimal that overflows to
    infinity is refused with ValueError too.
    """
    text = str(text).strip()
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("-", "+") else num
    if (digits.isdigit() and digits.isascii()
            and (not slash or den.isdigit() and den.isascii())):
        n, d = int(num), int(den) if slash else 1
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        return n, d
    if not slash and ("." in text or "e" in text or "E" in text) and not exact_parse:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text!r} overflows a float")
        return value
    exp = None if slash else _EXPONENT.search(text)
    if exp:
        # text with exponent 0 is valid, and zero, exactly when text is
        try:
            mantissa = Fraction(text[:exp.start(1)] + _DIGIT.sub("0", exp[1]))
        except ValueError:
            mantissa = None  # Fraction(text) below raises in its own words
        if mantissa == 0:
            return 0, 1
        if mantissa is not None and abs(int(exp[1])) > MAX_EXACT_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds "
                             f"{MAX_EXACT_EXPONENT} in modulus")
    return Fraction(text).as_integer_ratio()


def hankel_det(s: MomentSequence, n: int):
    """Determinant of the n x n Hankel matrix (s_{i+k})_{i,k=0}^{n-1}.

    Exact sequences use fraction-free Bareiss elimination; float sequences
    use numpy's LU determinant.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if 2 * n - 1 > len(s):
        raise InsufficientMoments(
            f"Hankel window needs {2 * n - 1} moments, have {len(s)}"
        )
    mat = [[s[i + k] for k in range(n)] for i in range(n)]
    if s.is_exact:
        return _bareiss_det(mat)
    import numpy as np

    return float(np.linalg.det(np.array(mat, dtype=float)))


def _bareiss_det(m):
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def normal_indices(s: MomentSequence, n_max: int) -> tuple:
    """The increasing n <= n_max whose Hankel determinant is nonzero.

    A float window counts when sigma_min/sigma_max > 1e-14: that numerical
    rank is scale-free, so one bound serves every n."""
    if 2 * n_max - 1 > len(s):
        raise InsufficientMoments(
            f"need {2 * n_max - 1} moments to certify up to {n_max}, have {len(s)}"
        )
    found = []
    exact = s.is_exact
    for n in range(1, n_max + 1):
        if exact:
            nonzero = hankel_det(s, n) != 0
        else:
            import numpy as np

            sv = np.linalg.svd([[float(s[i + k]) for k in range(n)] for i in range(n)],
                               compute_uv=False)
            nonzero = sv[0] > 0 and sv[-1] / sv[0] > 1e-14
        if nonzero:
            found.append(n)
    return tuple(found)


def normalize(s: MomentSequence) -> MomentSequence:
    """Divide by the modulus of the first nonzero entry (which becomes +-1)."""
    i = s.first_nonzero()
    if i is None:
        raise AllZero("cannot normalize an identically zero sequence")
    c = abs(s.coeffs[i])
    if c == 1:
        return MomentSequence(s.coeffs, scale=s.scale * c,
                              certified_up_to=s.certified_up_to)
    return MomentSequence(tuple(v / c for v in s.coeffs), scale=s.scale * c,
                          certified_up_to=s.certified_up_to)
