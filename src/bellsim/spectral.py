"""Frequency-domain ingredients of the two-photon amplitude: pump envelope,
spectral filters, crystal phase matching and the sampled joint amplitude.

Conventions: angular frequencies in rad/fs on absolute axes; detunings are
measured from the configured signal/idler centers.  The phase-matching
function is the first-order (group-velocity) sinc,

    Phi(nu_s, nu_i) = sinc(D L / 2) * exp(i D L / 2),
    D = (1/u_p - 1/u_s) nu_s + (1/u_p - 1/u_i) nu_i,

i.e. the length-average of exp(i D z) over the crystal.

A JSA is sampled without any 2-D transcendental call: the half mismatch
h = D L / 2 is a sum a(nu_s) + b(nu_i) of two 1-D terms, so h and
sin h = sin a cos b + cos a sin b are rank-2 products of 1-D factors, and
sinc(h) = sin h / h (the series 1 - h^2/6 + h^4/120 where |h| < 1e-2, where
the quotient would lose accuracy).  Both axes of every ``FrequencyGrid``
share one spacing, so the pump depends only on j + k and the real
pump-times-filters envelope is a Hankel view of 2N - 1 pump samples.  The
JSA is that envelope times sinc(h), normalized, times the separable phase
exp(i a(nu_s)) exp(i b(nu_i)).

``_Sampler`` yields the real envelope * sinc(h) in cache-sized row blocks,
with the grid and border checks and the norms.  ``kernel_overlaps`` streams
it for the interference of two crystals: conj(J_a) J_b is the real kernel
(envelope sinc)_a (envelope sinc)_b times 1-D phases that join the delay
phase rows, so the overlaps of all delay pairs come from the row blocks of
the kernel, with no N x N array.  ``build_jsa`` copies the same blocks into
one real array before it applies the norm and the phase.
``phase_matching`` is the direct formula, kept as the reference the sampled
grid is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import JointSpectralAmplitude
from .errors import ConfigError, GridTruncationError
from .units import (
    GAUSSIAN_FWHM_OVER_SIGMA,
    INTENSITY_FWHM_TO_SIGMA_OMEGA,
    fwhm_nm_to_fwhm_omega,
    wavelength_to_angular_frequency,
)

# Interpretation of PumpPulse.duration_fs, recorded in JSA metadata.
DURATION_CONVENTION = "intensity_fwhm"

# Containment threshold for the Gaussian envelope factors at the grid edge.
EDGE_AMPLITUDE_LIMIT = 1.0e-4

# Im exp(i h) / h carries the few-1e-16 absolute rounding error of its
# numerator divided by |h|; below this |h| the sampled sinc(h) is taken from
# its series 1 - h^2/6 + h^4/120 instead (truncation error < 3e-16).
SINC_SERIES_BELOW = 1.0e-2

# Size of one row-block work array of ``_Sampler``: small enough that a
# block's arrays stay in cache from sampling to the product.
ROW_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class PumpPulse:
    """Transform-limited Gaussian pump pulse.

    ``duration_fs`` is the intensity-envelope FWHM; ``polarization_angle_deg``
    is measured from vertical.
    """

    center_wavelength_nm: float
    duration_fs: float
    polarization_angle_deg: float = 45.0

    def __post_init__(self):
        if self.center_wavelength_nm <= 0.0:
            raise ConfigError("pump center wavelength must be positive")
        if self.duration_fs <= 0.0:
            raise ConfigError("pump duration must be positive")

    @property
    def center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.center_wavelength_nm))

    @property
    def sigma_omega(self) -> float:
        """Intensity-spectrum standard deviation, rad/fs."""
        return INTENSITY_FWHM_TO_SIGMA_OMEGA / self.duration_fs


@dataclass(frozen=True)
class SpectralFilter:
    """Amplitude transmission filter; ``fwhm_nm`` is the intensity FWHM."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"

    def __post_init__(self):
        if self.shape not in ("gaussian", "rectangular", "none"):
            raise ConfigError(f"filter shape must be gaussian|rectangular|none, got {self.shape!r}")
        if not self.center_nm > 0.0 or (self.shape != "none" and not 0.0 < self.fwhm_nm < 2.0 * self.center_nm):
            raise ConfigError(f"a filter needs center_nm > 0 and 0 < fwhm_nm < 2 x center_nm (its band above "
                              f"0 nm), got fwhm_nm {self.fwhm_nm} at center_nm {self.center_nm}")

    @property
    def fwhm_omega(self) -> float:
        return fwhm_nm_to_fwhm_omega(self.center_nm, self.fwhm_nm)

    @property
    def sigma_intensity_omega(self) -> float:
        return self.fwhm_omega / GAUSSIAN_FWHM_OVER_SIGMA


NO_FILTER = SpectralFilter(center_nm=1.0, fwhm_nm=1.0, shape="none")


@dataclass(frozen=True)
class PhaseMatchingSpec:
    """Crystal length, pair centers and the three inverse group velocities."""

    crystal_length_mm: float
    signal_center_nm: float
    idler_center_nm: float
    inverse_group_velocity_pump_fs_per_mm: float
    inverse_group_velocity_signal_fs_per_mm: float
    inverse_group_velocity_idler_fs_per_mm: float

    def __post_init__(self):
        if self.crystal_length_mm <= 0.0:
            raise ConfigError("crystal length must be positive")

    def check_energy_conservation(self, pump_center_nm: float) -> None:
        """Centers must satisfy 1/ls + 1/li = 1/lp within 1e-3 relative."""
        inv_pump = 1.0 / pump_center_nm
        mismatch = abs(1.0 / self.signal_center_nm + 1.0 / self.idler_center_nm - inv_pump)
        if mismatch / inv_pump > 1.0e-3:
            raise ConfigError(
                f"centers {self.signal_center_nm}/{self.idler_center_nm} nm violate "
                f"energy conservation with the {pump_center_nm} nm pump "
                f"(relative mismatch {mismatch / inv_pump:.3g} > 1e-3)"
            )

    @property
    def signal_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.signal_center_nm))

    @property
    def idler_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.idler_center_nm))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform absolute-frequency axes for the (signal, idler) plane, with
    one spacing shared by both axes."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray

    def __post_init__(self):
        for name, axis in (("signal", self.signal_axis), ("idler", self.idler_axis)):
            if axis.ndim != 1 or axis.size < 2:
                raise ConfigError(f"{name} axis must be 1-D with at least 2 points")
            steps = np.diff(axis)
            if np.any(steps <= 0.0):
                raise ConfigError(f"{name} axis must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1.0e-9, atol=0.0):
                raise ConfigError(f"{name} axis must be uniformly spaced")
        # Whole-axis steps: the first steps of ``make_grid`` axes differ by up to 2.5e-12.
        steps = [float(axis[-1] - axis[0]) / (axis.size - 1) for axis in (self.signal_axis, self.idler_axis)]
        if not math.isclose(*steps, rel_tol=1.0e-12):
            raise ConfigError(f"signal and idler axes must share one spacing, got steps "
                              f"{steps[0]!r} and {steps[1]!r} rad/fs")

    @property
    def signal_spacing(self) -> float:
        return float(self.signal_axis[1] - self.signal_axis[0])

    @property
    def idler_spacing(self) -> float:
        return float(self.idler_axis[1] - self.idler_axis[0])

    @property
    def cell_area(self) -> float:
        return self.signal_spacing * self.idler_spacing

    @property
    def shape(self) -> tuple:
        return (self.signal_axis.size, self.idler_axis.size)

    def meshes(self):
        """Broadcastable (signal, idler) frequency meshes."""
        return self.signal_axis[:, None], self.idler_axis[None, :]

    def matches(self, other: "FrequencyGrid") -> bool:
        return (
            self.signal_axis.shape == other.signal_axis.shape
            and self.idler_axis.shape == other.idler_axis.shape
            and np.array_equal(self.signal_axis, other.signal_axis)
            and np.array_equal(self.idler_axis, other.idler_axis)
        )


def pump_spectrum(pulse: PumpPulse, omega_sum):
    """Pump spectral amplitude at the pair sum frequency; 1 at the center."""
    nu = np.subtract(omega_sum, pulse.center_angular_frequency, dtype=float)
    sigma = pulse.sigma_omega
    return np.exp(-(nu * nu) / (4.0 * sigma * sigma))


def filter_amplitude(filt: SpectralFilter, omega):
    """Amplitude transmission in [0, 1] (square root of the intensity curve)."""
    omega = np.asarray(omega, dtype=float)
    if filt.shape == "none":
        return np.ones_like(omega)
    center = float(wavelength_to_angular_frequency(filt.center_nm))
    if filt.shape == "rectangular":
        half = 0.5 * filt.fwhm_omega
        return np.where(np.abs(omega - center) <= half, 1.0, 0.0)
    sigma = filt.sigma_intensity_omega
    return np.exp(-((omega - center) ** 2) / (4.0 * sigma * sigma))


def phase_matching(spec: PhaseMatchingSpec, nu_s, nu_i):
    """Collinear first-order phase-matching amplitude; Phi(0, 0) = 1 + 0j."""
    du_s = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_signal_fs_per_mm
    du_i = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_idler_fs_per_mm
    half = 0.5 * (du_s * np.asarray(nu_s) + du_i * np.asarray(nu_i)) * spec.crystal_length_mm
    return np.sinc(half / np.pi) * np.exp(1j * half)


def sinc_antidiagonal_scale(spec: PhaseMatchingSpec) -> float:
    """Per-axis detuning of the first sinc zero along the anticorrelated
    (nu_s = -nu_i) direction, or +inf for matched group velocities."""
    delta = abs(
        spec.inverse_group_velocity_signal_fs_per_mm
        - spec.inverse_group_velocity_idler_fs_per_mm
    )
    if delta * spec.crystal_length_mm < 1.0e-12:
        return math.inf
    return 2.0 * math.pi / (delta * spec.crystal_length_mm)


def make_grid(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    filters: tuple = (),
    points: int = 256,
    span_factor: float = 5.0,
) -> FrequencyGrid:
    """Square grid centred on the pair centers, wide enough for the pump
    ridge, the filters, and the main phase-matching structure; both axes
    have the same half span and point count, hence one spacing.

    With Gaussian filters present the phase-matching extent is capped at a
    few filter widths (the filters bound the support).
    """
    if points < 8:
        raise ConfigError("grid needs at least 8 points per axis")
    scales = [pulse.sigma_omega]
    filter_sigmas = [f.sigma_intensity_omega for f in filters if f.shape == "gaussian"]
    scales += filter_sigmas
    antidiag = sinc_antidiagonal_scale(spec)
    if math.isfinite(antidiag):
        scales.append(min(antidiag, 3.0 * max(filter_sigmas)) if filter_sigmas else antidiag)
    half_span = span_factor * max(scales)
    sig = np.linspace(-half_span, half_span, points) + spec.signal_center_angular_frequency
    idl = np.linspace(-half_span, half_span, points) + spec.idler_center_angular_frequency
    return FrequencyGrid(signal_axis=sig, idler_axis=idl)


def _check_grid(pulse, f_s, f_i, grid):
    """Span and resolution checks for the Gaussian factors, and the pump
    ridge's corner containment when no filter bounds the support; scalar
    work only, done before anything 2-D is allocated.

    The sinc tails fall off only algebraically and are therefore exempt from
    the edge tests (they cannot satisfy them on any practical grid); adequacy
    against them is covered by the grid-refinement stability property.
    """
    sigmas = [("pump envelope", pulse.sigma_omega)]
    for name, filt in (("signal filter", f_s), ("idler filter", f_i)):
        if filt.shape == "gaussian":
            sigmas.append((name, filt.sigma_intensity_omega))

    spacing = max(grid.signal_spacing, grid.idler_spacing)
    span = min(
        grid.signal_axis[-1] - grid.signal_axis[0],
        grid.idler_axis[-1] - grid.idler_axis[0],
    )
    narrowest = min(sigma for _, sigma in sigmas)
    if span < 6.0 * narrowest:
        raise GridTruncationError(
            f"grid span {span:.4g} rad/fs is below 6 standard deviations of the "
            f"narrowest envelope ({narrowest:.4g} rad/fs)"
        )
    for name, sigma in sigmas:
        if sigma < spacing:
            raise GridTruncationError(
                f"grid spacing {spacing:.4g} rad/fs cannot resolve the {name} "
                f"(sigma = {sigma:.4g} rad/fs); refine the grid"
            )

    if f_s.shape == "none" and f_i.shape == "none":
        # Only the pump envelope bounds the amplitude; its ridge width must
        # be contained: the largest reachable |w_s + w_i - W_p| sits at the
        # diagonal corners.
        corner_sums = (
            grid.signal_axis[0] + grid.idler_axis[0],
            grid.signal_axis[-1] + grid.idler_axis[-1],
        )
        edge = max(float(pump_spectrum(pulse, s)) for s in corner_sums)
        if edge > EDGE_AMPLITUDE_LIMIT:
            raise GridTruncationError(
                f"grid too narrow for the pump envelope: edge magnitude {edge:.3g} "
                f"exceeds {EDGE_AMPLITUDE_LIMIT} of the peak"
            )


class _EnvelopeRows:
    """Row blocks of the real envelope pump(w_s + w_i) f_s(w_s) f_i(w_i) on
    one grid, with the running border and peak that ``check_border`` reads.

    Both axes share one spacing, so w_s[j] + w_i[k] depends only on j + k
    and the pump ridge is a Hankel view of its N_s + N_i - 1 samples down
    the first column and along the last row: no 2-D exp is evaluated.
    ``_check_grid`` runs on construction."""

    def __init__(self, pulse: PumpPulse, f_s: SpectralFilter, f_i: SpectralFilter, grid: FrequencyGrid):
        _check_grid(pulse, f_s, f_i, grid)
        self.grid = grid
        ws, wi = grid.signal_axis, grid.idler_axis
        self.filter_s = filter_amplitude(f_s, ws)[:, None]
        self.filter_i = filter_amplitude(f_i, wi)
        # With a filter present the sampled envelope must fall off at the
        # border; without one ``_check_grid`` tested the pump corners.
        self.bounded = f_s.shape != "none" or f_i.shape != "none"
        self.border = self.peak = 0.0
        samples = pump_spectrum(pulse, np.concatenate((ws + wi[0], ws[-1] + wi[1:])))
        self.ridge = np.lib.stride_tricks.as_strided(samples, grid.shape, samples.strides * 2,
                                                     writeable=False)

    def __call__(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """The envelope on ``rows`` (a slice with explicit bounds) into ``out``."""
        np.multiply(self.ridge[rows], self.filter_i, out=out)
        out *= self.filter_s[rows]
        if self.bounded:
            edges = [out[:, 0].max(), out[:, -1].max()]
            if rows.start == 0:
                edges.append(out[0].max())
            if rows.stop == self.grid.shape[0]:
                edges.append(out[-1].max())
            self.border = max(self.border, *map(float, edges))
            self.peak = max(self.peak, float(out.max()))
        return out

    def check_border(self) -> None:
        """With filters bounding the support: the sampled envelope must fall
        below the edge limit along the whole grid border.  Call after every
        row has been sampled."""
        if self.bounded and (self.peak == 0.0 or self.border > EDGE_AMPLITUDE_LIMIT * self.peak):
            raise GridTruncationError(
                f"grid too narrow: envelope magnitude at the border is "
                f"{self.border / max(self.peak, 1e-300):.3g} of its peak (limit {EDGE_AMPLITUDE_LIMIT})"
            )


def _sinc_factors(spec: PhaseMatchingSpec, nu_s, nu_i) -> tuple:
    """(a, b, left, right): the 1-D terms of the half mismatch
    h = D L / 2 = a(nu_s) + b(nu_i) on two detuning axes, and the rank-2
    factors left = [a, 1, sin a, cos a] (one row per nu_s) and
    right = [1, b, cos b, sin b] (one column per nu_i), so that
    h = left[:, :2] @ right[:2] and sin h = left[:, 2:] @ right[2:]."""
    half_l = 0.5 * spec.crystal_length_mm
    a = (spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_signal_fs_per_mm) * half_l * nu_s
    b = (spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_idler_fs_per_mm) * half_l * nu_i
    left = np.stack((a, np.ones_like(a), np.sin(a), np.cos(a)), axis=1)
    right = np.stack((np.ones_like(b), b, np.cos(b), np.sin(b)))
    return a, b, left, right


def _sinc_rows(factors: tuple, rows: slice, out, h, work, near) -> np.ndarray:
    """sinc(h) on ``rows`` of the outer (nu_s, nu_i) grid into ``out``, from
    1-D factors only: h = a + b and sin h = sin a cos b + cos a sin b are
    rank-2 products, and sinc(h) = sin h / h, or the series where
    |h| < ``SINC_SERIES_BELOW`` (including h == 0).  ``h``, ``work``
    (float) and ``near`` (bool) are scratch of out's shape."""
    _, _, left, right = factors
    np.matmul(left[rows, :2], right[:2], out=h)
    np.matmul(left[rows, 2:], right[2:], out=out)
    np.less(np.abs(h, out=work), SINC_SERIES_BELOW, out=near)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= h
    if near.any():
        h2 = np.square(h[near])
        out[near] = 1.0 - h2 / 6.0 * (1.0 - h2 / 20.0)
    return out


def _checked_norm(norm_sq: float) -> float:
    """The L2 norm from its square; a zero or non-finite one (e.g. from an
    infinite crystal length) is rejected."""
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise GridTruncationError(f"joint amplitude norm squared is {norm_sq!r} on this grid; "
                                  "it must be finite and positive")
    return math.sqrt(norm_sq)


class _Sampler:
    """The real amplitudes V = envelope * sinc(h) of one or two specs on one
    grid, in the row slices ``blocks``, ``ROW_BLOCK_BYTES`` per scratch
    array.  The energy and grid checks run on construction, before any 2-D
    array exists; each call adds to sum V^2, and ``norms`` runs the border
    check on them."""

    def __init__(self, pulse: PumpPulse, specs: tuple, f_s: SpectralFilter, f_i: SpectralFilter,
                 grid: FrequencyGrid):
        for spec in specs:
            spec.check_energy_conservation(pulse.center_wavelength_nm)
        self.envelope_rows = _EnvelopeRows(pulse, f_s, f_i, grid)
        self.grid = grid
        self.factors = [_sinc_factors(spec, grid.signal_axis - spec.signal_center_angular_frequency,
                                      grid.idler_axis - spec.idler_center_angular_frequency)
                        for spec in specs]
        n_s, n_i = grid.shape
        block = min(max(1, ROW_BLOCK_BYTES // (8 * n_i)), n_s)
        self.blocks = [slice(start, min(start + block, n_s)) for start in range(0, n_s, block)]
        # One allocation: separate ones are fresh pages, faulted in on every call.
        self.envelope, self.h, self.work, *self.sincs = np.empty((3 + len(specs), block, n_i))
        self.near = np.empty(self.envelope.shape, dtype=bool)
        self.norms_sq = np.zeros(len(specs))

    def __call__(self, rows: slice) -> list:
        """Each spec's V on ``rows``, in scratch that the next call overwrites."""
        m = rows.stop - rows.start
        env = self.envelope_rows(rows, self.envelope[:m])
        amplitudes = []
        for n, (factors, sinc) in enumerate(zip(self.factors, self.sincs)):
            amplitude = _sinc_rows(factors, rows, sinc[:m], self.h[:m], self.work[:m], self.near[:m])
            amplitude *= env
            self.norms_sq[n] += np.vdot(amplitude, amplitude)
            amplitudes.append(amplitude)
        return amplitudes

    def norms(self) -> list:
        """The L2 norm of each spec's V, once every row has been sampled."""
        self.envelope_rows.check_border()
        return [_checked_norm(float(n) * self.grid.cell_area) for n in self.norms_sq]


def build_jsa(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    f_s: SpectralFilter,
    f_i: SpectralFilter,
    grid: FrequencyGrid,
    label: str = "",
) -> JointSpectralAmplitude:
    """Sample pump * phase-matching * filters on the grid and L2-normalize.

    ``_Sampler``'s row blocks of the real envelope * sinc(h) fill one real
    array, which its checked norm divides; the separable phase
    exp(i a(nu_s)) exp(i b(nu_i)) is applied last.
    """
    sampler = _Sampler(pulse, (spec,), f_s, f_i, grid)
    amplitude = np.empty(grid.shape)
    for rows in sampler.blocks:
        amplitude[rows] = sampler(rows)[0]
    amplitude /= sampler.norms()[0]
    ((_, _, left, right),) = sampler.factors
    values = np.multiply.outer(left[:, 3] + 1j * left[:, 2], right[2] + 1j * right[3])
    values *= amplitude

    metadata = {
        "crystal_label": label,
        "crystal_length_mm": spec.crystal_length_mm,
        "duration_convention": DURATION_CONVENTION,
        "phase_matching": "sinc_first_order",
        "applied_delays": (),
    }
    return JointSpectralAmplitude(grid=grid, values=values, metadata=metadata)


def kernel_overlaps(
    pulse: PumpPulse,
    spec_a: PhaseMatchingSpec,
    spec_b: PhaseMatchingSpec,
    f_s: SpectralFilter,
    f_i: SpectralFilter,
    grid: FrequencyGrid,
    signal_delays_fs,
    idler_delays_fs,
) -> np.ndarray:
    """<J_a|J_b> of the normalized JSAs ``build_jsa`` makes of the two specs
    on ``grid``, with J_a retarded by each (signal, idler) group-delay pair
    as in ``biphoton.apply_envelope_phase`` about spec_a's pair centers;
    never holds an N x N array.

    Each JSA is a real envelope * sinc(h) times the separable phase
    exp(i a(nu_s)) exp(i b(nu_i)), so conj(J_a) J_b is the real kernel
    V_a V_b (V^2 for identical cuts) times one phase per arm, which joins
    that arm's delay phase rows exp(i T (w - W)).  ``_Sampler`` gives the
    kernel in blocks of rows, ``ROW_BLOCK_BYTES`` per work array; while a
    block is in cache it goes into the real product of the stacked cosine
    and sine phase rows with the block.  An arm whose delays are all equal
    is one phase row, and the product runs from the arm with fewer distinct
    delays, so a single-arm scan costs one pass over the kernel.
    """
    sampler = _Sampler(pulse, (spec_a,) if spec_b == spec_a else (spec_a, spec_b), f_s, f_i, grid)

    def phase_rows(delays_fs, detuning, arm):
        # cos and sin of T (w - W) + (the arm's phase of J_b less J_a's), as
        # (2, K, N); K = 1 when every delay is equal.
        delays_fs = np.asarray(delays_fs, dtype=float)
        if np.all(delays_fs == delays_fs[0]):
            delays_fs = delays_fs[:1]
        angles = np.multiply.outer(delays_fs, detuning)
        angles += sampler.factors[-1][arm] - sampler.factors[0][arm]
        rows = np.empty((2,) + angles.shape)
        np.cos(angles, out=rows[0])
        np.sin(angles, out=rows[1])
        return rows

    phases = (phase_rows(signal_delays_fs, grid.signal_axis - spec_a.signal_center_angular_frequency, 0),
              phase_rows(idler_delays_fs, grid.idler_axis - spec_a.idler_center_angular_frequency, 1))
    idler_drives = phases[1].shape[1] < phases[0].shape[1]
    drive, other = phases[::-1] if idler_drives else phases
    drive = drive.reshape(-1, drive.shape[-1])

    # The product of the driving rows with the kernel: rows of kernel @
    # drive.T block by block, or drive @ kernel summed over the blocks.
    n_s, n_i = grid.shape
    acc = np.empty((n_s, len(drive)) if idler_drives else (len(drive), n_i))
    product = np.empty_like(acc) if not idler_drives and len(sampler.blocks) > 1 else None
    for rows in sampler.blocks:
        amplitudes = sampler(rows)
        kernel = amplitudes[0]
        kernel *= amplitudes[-1]
        if idler_drives:
            np.matmul(kernel, drive.T, out=acc[rows])
        elif rows.start == 0:
            np.matmul(drive[:, rows], kernel, out=acc)
        else:
            acc += np.matmul(drive[:, rows], kernel, out=product)
    norms = sampler.norms()

    # Row-wise sum of (acc_cos + i acc_sin) (cos + i sin) of the other arm.
    if idler_drives:
        acc = acc.T
    acc = np.broadcast_to(acc.reshape(2, -1, acc.shape[-1]), other.shape)
    terms = np.einsum("kn,kn->k", acc[0], other[0]) - np.einsum("kn,kn->k", acc[1], other[1])
    terms = terms + 1j * (np.einsum("kn,kn->k", acc[0], other[1]) + np.einsum("kn,kn->k", acc[1], other[0]))
    return np.broadcast_to(terms, np.shape(signal_delays_fs)) * (grid.cell_area / (norms[0] * norms[-1]))
