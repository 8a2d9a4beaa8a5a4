"""Vectorized forward-mode dual numbers.

A :class:`Dual` carries an array of values together with tangents with
respect to a small, fixed set of seed directions.  Residual kernels written
against plain ``+ - * /`` arithmetic run unchanged on floats, numpy arrays,
or duals; running them on duals yields the exact local Jacobian entries of
the kernel, including through the clamp of :func:`clip`.  A dual's value is
computed by the same floating-point operations as the plain run (division
divides), so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dual", "seed", "value", "clip"]


class Dual:
    """Array of values plus tangents w.r.t. ``n_dirs`` seed directions.

    ``val`` has shape ``(m,)`` and ``tan`` has shape ``(m, n_dirs)``.
    Scalars broadcast against duals; dual-dual operations require matching
    seed layouts (enforced implicitly by shape).
    """

    __slots__ = ("val", "tan")

    # keep numpy from consuming Dual operands elementwise
    __array_ufunc__ = None

    def __init__(self, val, tan):
        self.val = np.asarray(val, dtype=float)
        self.tan = np.asarray(tan, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dual(val={self.val!r}, tan={self.tan!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.tan + other.tan)
        return Dual(self.val + other, self.tan)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.tan - other.tan)
        return Dual(self.val - other, self.tan)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.tan)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.tan * other.val[..., None] + other.tan * self.val[..., None],
            )
        other = np.asarray(other, dtype=float)
        return Dual(self.val * other, self.tan * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            val = self.val / other.val
            return Dual(val, (self.tan - other.tan * val[..., None]) / other.val[..., None])
        other = np.asarray(other, dtype=float)
        return Dual(self.val / other, self.tan / other[..., None])

    def __rtruediv__(self, other):
        val = np.asarray(other, dtype=float) / self.val
        return Dual(val, -self.tan * (val / self.val)[..., None])

    def __neg__(self):
        return Dual(-self.val, -self.tan)

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("Dual exponent must be a scalar")
        val = self.val**exponent
        deriv = exponent * self.val ** (exponent - 1)
        return Dual(val, self.tan * deriv[..., None])


def seed(values, direction: int, n_dirs: int) -> Dual:
    """Dual variable seeded with unit tangent along ``direction``."""
    values = np.asarray(values, dtype=float)
    tan = np.zeros(values.shape + (n_dirs,))
    tan[..., direction] = 1.0
    return Dual(values, tan)


def value(x):
    """Value part of a dual, or the input unchanged."""
    return x.val if isinstance(x, Dual) else x


def clip(x, lo, hi):
    """Clamp values to ``[lo, hi]``; tangents are zeroed where clamping binds.

    At the interval endpoints the pass-through (interior) tangent is kept.
    """
    if not isinstance(x, Dual):
        return np.clip(x, lo, hi)
    inside = (x.val >= lo) & (x.val <= hi)
    return Dual(np.clip(x.val, lo, hi), np.where(inside[..., None], x.tan, 0.0))
