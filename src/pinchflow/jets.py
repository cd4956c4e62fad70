"""Second-order Taylor jets.

A jet carries (f, f', f'') through arithmetic, so differentiating a closed-form
expression needs no symbolic work and no finite differencing.  Components may
be scalars or numpy arrays; all operations are elementwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "variable"]


class Jet:
    """Value together with first and second derivative."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet({self.f!r}, {self.d1!r}, {self.d2!r})"

    @staticmethod
    def _lift(other) -> "Jet":
        return other if isinstance(other, Jet) else Jet(other)

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Jet(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return Jet(
            self.f * o.f,
            self.d1 * o.f + self.f * o.d1,
            self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        inv = 1.0 / self.f
        return Jet(inv, -self.d1 * inv * inv, (2.0 * self.d1 * self.d1 * inv - self.d2) * inv * inv)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def sqrt(self) -> "Jet":
        root = np.sqrt(self.f)
        d1 = self.d1 / (2.0 * root)
        return Jet(root, d1, self.d2 / (2.0 * root) - self.d1 * d1 / (2.0 * self.f))


def variable(x) -> Jet:
    """Jet of the identity function at x."""
    x = np.asarray(x, dtype=float)
    return Jet(x, np.ones_like(x), np.zeros_like(x))
