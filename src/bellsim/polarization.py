"""Two-photon polarization algebra: the four Bell states, analyzer
projections, wave plates and state quality metrics.

Basis order is (|HH>, |HV>, |VH>, |VV>) with the first slot the signal-port
photon.  Analyzer angles are measured from the vertical direction, so the
transmitted state is |theta> = cos(theta)|V> + sin(theta)|H>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

# Axis angle (from vertical) of the half-wave plate that swaps H and V,
# converting Phi states to Psi states. Not stated by the source description;
# fixed by the Jones algebra.
PHI_TO_PSI_HWP_DEG = 45.0


@dataclass(frozen=True)
class PolarizationState:
    """Pure two-photon polarization state."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (4,):
            raise ConfigError("polarization state needs exactly 4 coefficients")
        object.__setattr__(self, "coefficients", c)
        norm = float(np.sum(np.abs(c) ** 2))
        if abs(norm - 1.0) > 1.0e-12:
            raise ConfigError(f"state norm^2 = {norm!r} is not 1 within 1e-12")


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer angles (degrees from vertical); reduced mod 180 internally."""

    theta1_deg: float
    theta2_deg: float


def make_state(kind: str, phase_rad: float = 0.0) -> PolarizationState:
    """The Bell state ``kind``, one of ``BELL_KINDS``.

    Phi kinds populate HH/VV and Psi kinds HV/VH with equal weights;
    ``phase_rad`` multiplies the second listed amplitude (VV resp. VH) and
    '-' kinds add a sign.
    """
    if kind not in BELL_KINDS:
        raise ConfigError(f"unknown state kind {kind!r}; expected one of {BELL_KINDS}")
    sign = -1.0 if kind.endswith("-") else 1.0
    second = sign * np.exp(1j * phase_rad)
    if kind.startswith("psi"):
        coeffs = np.array([0.0, 1.0, second, 0.0], dtype=complex)
    else:
        coeffs = np.array([1.0, 0.0, 0.0, second], dtype=complex)
    return PolarizationState(coefficients=coeffs / math.sqrt(2.0))


def _analyzer_ket(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg % 180.0)
    # (H, V) components of |theta> = cos t |V> + sin t |H>.
    return np.array([math.sin(t), math.cos(t)])


def project(state: PolarizationState, setting: AnalyzerSetting) -> float:
    """Coincidence probability |<theta1| <theta2| state>|^2."""
    a1 = _analyzer_ket(setting.theta1_deg)
    a2 = _analyzer_ket(setting.theta2_deg)
    c = state.coefficients.reshape(2, 2)  # [port1 (H,V)] x [port2 (H,V)]
    amplitude = a1 @ c @ a2
    return float(abs(amplitude) ** 2)


def _hwp_jones(axis_deg: float) -> np.ndarray:
    """Half-wave plate Jones matrix in the (H, V) basis, axis from vertical.

    At 0 deg: V -> V, H -> -H; at 45 deg: H <-> V.
    """
    two_a = 2.0 * math.radians(axis_deg)
    c, s = math.cos(two_a), math.sin(two_a)
    return np.array([[-c, s], [s, c]])


def half_wave_plate(state: PolarizationState, port: int, axis_deg: float) -> PolarizationState:
    """Apply a half-wave plate on one output port (1 = signal, 2 = idler)."""
    if port not in (1, 2):
        raise ConfigError(f"port must be 1 or 2, got {port!r}")
    jones = _hwp_jones(axis_deg)
    c = state.coefficients.reshape(2, 2)
    c = jones @ c if port == 1 else c @ jones.T
    return PolarizationState(coefficients=c.reshape(4))


def fidelity(state: PolarizationState, target: PolarizationState) -> float:
    """|<target|state>|^2 for normalized pure states."""
    return float(abs(np.vdot(target.coefficients, state.coefficients)) ** 2)
