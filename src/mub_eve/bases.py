"""Protocol key and bases in dimension d, and the round-off slacks of the domain checks.

Vectors are rows of a (d, d) complex array, so ``basis.vectors[i]`` is the
i-th state of the basis. numpy is imported by the code that builds them, so
the protocol key and its checks load without it. A protocol's basis set
depends only on (d, number of MUBs), so ``protocol_bases`` builds it once
per process and shares the read-only result, for the last few protocols
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral
from typing import TYPE_CHECKING

from .errors import DimensionError, DomainError, ProtocolError

if TYPE_CHECKING:
    import numpy as np

ORTHONORMALITY_TOL = 1e-12

# Protocols whose basis sets protocol_bases keeps; at d = 256 one set takes 2 MiB.
_BASES_CACHE_SIZE = 8

# Round-off allowed above the largest disturbance (d-1)/d, about 50 ulps there.
DISTURBANCE_SLACK = 1e-14
# Round-off guard for radicands that are exact zeros at domain endpoints.
RADICAND_SLACK = 1e-14


@dataclass(frozen=True)
class ProtocolSpec:
    """Protocol key (d, number of MUBs); the one check of d, the basis count and the D range."""

    dim: int
    bases_count: int = 2

    def __post_init__(self):
        if not isinstance(self.dim, Integral) or self.dim < 2:
            raise DimensionError(f"dimension must be an integer >= 2, got {self.dim!r}")
        if not isinstance(self.bases_count, Integral):
            raise DomainError(f"bases_count must be an integer, got {self.bases_count!r}")
        if self.bases_count not in (2, 3):
            raise ProtocolError(f"bases_count must be 2 or 3, got {self.bases_count}")
        if self.bases_count == 3 and self.dim != 3:
            raise ProtocolError("the three-basis protocol is supported for d = 3 only")
        object.__setattr__(self, "dim", int(self.dim))  # numpy integers do not serialise to JSON
        object.__setattr__(self, "bases_count", int(self.bases_count))

    @property
    def max_disturbance(self) -> float:
        return (self.dim - 1) / self.dim

    @cached_property  # read on every closed-form evaluation
    def z_factor(self) -> float:
        """c in the attack's Z-line weight z^2 = D (1 + (d-1) c w) / (d (d-1)): 1 for two bases, -1/2 for three."""
        return 1.0 if self.bases_count == 2 else -0.5

    def check_disturbance(self, disturbance: float) -> None:
        """Raise DomainError unless 0 <= D <= (d-1)/d + DISTURBANCE_SLACK (NaN fails)."""
        if not (0.0 <= disturbance <= self.max_disturbance + DISTURBANCE_SLACK):
            raise DomainError(f"disturbance must lie in [0, {self.max_disturbance}], got {disturbance}")


@dataclass(frozen=True)
class Basis:
    """An ordered orthonormal set of d state vectors."""

    dim: int
    vectors: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        import numpy as np

        vecs = np.array(self.vectors, dtype=complex)
        vecs.setflags(write=False)
        if vecs.shape != (self.dim, self.dim):
            raise DimensionError(
                f"basis '{self.label}' needs shape ({self.dim}, {self.dim}), got {vecs.shape}"
            )
        gram = vecs.conj() @ vecs.T
        if np.max(np.abs(gram - np.eye(self.dim))) > ORTHONORMALITY_TOL:
            raise DimensionError(f"basis '{self.label}' is not orthonormal to {ORTHONORMALITY_TOL}")
        object.__setattr__(self, "vectors", vecs)


def computational_basis(d: int) -> Basis:
    """Standard basis e_0 .. e_{d-1}."""
    import numpy as np

    d = ProtocolSpec(d).dim
    return Basis(dim=d, vectors=np.eye(d, dtype=complex), label="computational")


def fourier_basis(d: int) -> Basis:
    """Discrete-Fourier-transform basis: vector l has entries e^{2*pi*i*k*l/d}/sqrt(d)."""
    import numpy as np

    d = ProtocolSpec(d).dim
    k = np.arange(d)
    vecs = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    return Basis(dim=d, vectors=vecs, label="fourier")


def qutrit_three_basis_set() -> list[Basis]:
    """The three mutually unbiased qutrit bases used by the three-basis protocol.

    Returns [computational, alpha, alpha-star] where the alpha basis puts the
    phase alpha = e^{2*pi*i/3} on the diagonal entry and the third basis is its
    complex conjugate.
    """
    import numpy as np

    alpha = np.exp(2j * np.pi / 3)
    vecs = (np.ones((3, 3), dtype=complex) + (alpha - 1) * np.eye(3)) / np.sqrt(3)
    return [
        computational_basis(3),
        Basis(dim=3, vectors=vecs, label="alpha"),
        Basis(dim=3, vectors=vecs.conj(), label="alpha-star"),
    ]


def protocol_bases(spec: ProtocolSpec) -> tuple[Basis, ...]:
    """The ordered basis set of the protocol; the spec has already checked (d, bases).

    Two bases: computational + Fourier, any d. Three bases: the qutrit set.
    The set is built, and its orthonormality checked, once per (d, bases)
    per process, for the last _BASES_CACHE_SIZE protocols; every call
    returns that one tuple, and its bases are frozen with read-only vectors.
    """
    return _build_protocol_bases(spec)


@lru_cache(maxsize=_BASES_CACHE_SIZE)
def _build_protocol_bases(spec: ProtocolSpec) -> tuple[Basis, ...]:
    if spec.bases_count == 3:
        return tuple(qutrit_three_basis_set())
    return computational_basis(spec.dim), fourier_basis(spec.dim)
