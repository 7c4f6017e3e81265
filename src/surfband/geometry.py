"""Surface descriptors, principal curvatures, and the curvature-induced energy shift."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SurfaceKind(enum.Enum):
    RING = "ring"
    CYLINDER = "cylinder"
    SPHERE = "sphere"


@dataclass(frozen=True)
class SurfaceSpec:
    """A ring, cylinder, or sphere of radius R.

    L is the half-length of the cylinder's normalization box and is ignored
    for the other surfaces.  The ring is the z-frozen cylinder and shares R.
    """

    kind: SurfaceKind
    R: float
    L: float = 1.0

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not 0 < self.R * self.R < float("inf") or 1 / (self.R * self.R) == float("inf"):
            raise OverflowError(f"R={self.R:g} is outside float range: R^2 or 1/R^2 overflows")
        if self.kind is SurfaceKind.CYLINDER and self.L <= 0:
            raise ValueError(f"cylinder half-length L must be positive, got {self.L}")


def ring(R: float) -> SurfaceSpec:
    return SurfaceSpec(SurfaceKind.RING, R)


def cylinder(R: float, L: float) -> SurfaceSpec:
    return SurfaceSpec(SurfaceKind.CYLINDER, R, L)


def sphere(R: float) -> SurfaceSpec:
    return SurfaceSpec(SurfaceKind.SPHERE, R)


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, mass and charge; defaults are the natural units used throughout."""

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if not 0 < self.hbar * self.hbar / (2 * self.mass) < float("inf"):
            raise OverflowError(f"hbar={self.hbar:g} and mass={self.mass:g} put hbar^2/2m "
                                "outside float range")

    @property
    def flux_quantum(self) -> float:
        """2*pi*hbar/e, the period of the ring spectrum in enclosed flux."""
        import math

        if self.charge == 0:
            raise ValueError("flux quantum undefined for zero charge")
        return 2 * math.pi * self.hbar / self.charge


def radial_exponent(kind: SurfaceKind) -> int:
    """s of the radial measure r^s dr: 1 on the ring and cylinder, 2 on the sphere."""
    return 2 if kind is SurfaceKind.SPHERE else 1


def principal_curvatures(surface: SurfaceSpec) -> tuple[float, float]:
    """Signed principal curvatures, outward radial normal (kappa < 0)."""
    if surface.kind is SurfaceKind.SPHERE:
        return (-1.0 / surface.R, -1.0 / surface.R)
    # ring is the z-frozen cylinder: same pair
    return (-1.0 / surface.R, 0.0)


def geometric_kinetic_energy(surface: SurfaceSpec, c: PhysicalConstants = PhysicalConstants()) -> float:
    """Curvature-induced scalar (hbar^2/2m)(K - M^2).

    M = (kappa1+kappa2)/2 and K = kappa1*kappa2, so this is -hbar^2/(8 m R^2)
    on the cylinder and ring and exactly zero (+0.0) on the sphere.
    """
    k1, k2 = principal_curvatures(surface)
    return (c.hbar**2 / (2 * c.mass)) * (k1 * k2 - (0.5 * (k1 + k2)) ** 2)
