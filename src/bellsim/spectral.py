"""Frequency-domain ingredients of the two-photon amplitude: pump envelope,
spectral filters, crystal phase matching and the sampled joint amplitude.

Conventions: angular frequencies in rad/fs on absolute axes; detunings are
measured from the configured signal/idler centers.  The phase-matching
function is the first-order (group-velocity) sinc,

    Phi(nu_s, nu_i) = sinc(D L / 2) * exp(i D L / 2),
    D = (1/u_p - 1/u_s) nu_s + (1/u_p - 1/u_i) nu_i,

i.e. the length-average of exp(i D z) over the crystal.

A JSA is sampled without any 2-D transcendental call: the half mismatch
h = D L / 2 is a sum a(nu_s) + b(nu_i) of two 1-D terms on the grid's
uniform detunings, so h and f_s f_i sin h = f_s f_i (sin a cos b +
cos a sin b), the filter amplitudes folded into the 1-D factors, are rank-2
products, and sinc(h) = sin h / h (the series 1 - h^2/6 + h^4/120 where
|h| < 1e-2, where the quotient would lose accuracy).  A ``FrequencyGrid``
is four scalars: the two pair centers, one half span and one point count,
so both axes share one spacing by construction, the pump depends only on
j + k and is a Hankel view of 2N - 1 samples.  The JSA is pump times
filters times sinc(h), normalized, times the separable phase
exp(i a(nu_s)) exp(i b(nu_i)).  ``make_grid`` is the one place a grid is
sized and checked: the envelope and phase-matching widths set its half span,
the largest group delay it must sample sets its point count, and its
filter-band, span, resolution and pump-corner rules read the same widths.

``_Sampler`` takes the grid as given and yields the real amplitudes V and
their kernel in cache-sized row blocks, with the border check and the norms.
A sampled cell costs the two rank-2 products, one divide, one multiply by
the pump and the kernel's square (or product) and sum: the series cells lie
on one column interval per row, which the monotone b gives from 1-D data,
and the border check compares first with the pump ridge's crest, a lower
bound of the envelope's peak.
``kernel_overlaps`` streams it for the interference of two crystals:
conj(J_a) J_b is the real kernel V_a V_b times 1-D phases that join the
delay phases, so the overlaps of all delay pairs come from the row blocks of
the kernel, with no N x N array; factored over the uniform axis, K delays
take ~2 K sqrt(N) cosines, not K N.  The stream is cropped to the
envelope's frequency support: each block samples only the contiguous
columns where an O(N) bound of the envelope reaches ``CELL_LEVEL`` of the
ridge crest's largest value (on the default source, 24 % of a 1024^2
grid), and it is rerun uncropped if the skipped cells could move an
overlap by more than ``CELL_LEVEL``.  ``kernel_overlaps_batch`` streams
many evaluations, each on its own grid: those whose grids share a point
count take their 1-D set-up (axes, pump and filter samples, border, crest,
crop bounds, sinc factors, series bands, one-delay phase rows) from one
``_StackedSetup`` of (evaluations x N) arrays, so a sweep pays each numpy
call of the set-up once per batch, and each evaluation then streams its
own ``_Sampler`` block loop, bit for bit as it would alone.  The batch
raises the first error a stream meets (``scenario.sweep`` finds the value
at fault); ``kernel_overlaps`` is its batch of one.  A process keeps
(``bellsim.memo``) the last 4 stacked set-ups (``_stacked_setup``),
read-only, by the batch's (pulses, specs, filters, grids) and the module
constants the set-up reads (``CELL_LEVEL``, ``SINC_SERIES_BELOW``,
``ROW_BLOCK_BYTES``), at most ~3.6 MiB of arrays; the samplers' scratch is
allocated per call and never kept.  ``build_jsa`` copies full-width blocks
into one real array before it applies the norm and the phase.
``kernel_time_support`` bounds, from scalars alone, the delays where that
overlap can exceed ``SUPPORT_LEVEL`` of its peak; a process keeps the last
32 bounds by the arguments of ``_time_support``: its own and the level.
``phase_matching`` is the direct formula, kept as the reference the sampled
grid is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .biphoton import JointSpectralAmplitude
from .errors import ConfigError, GridTruncationError
from .memo import kept
from .units import (
    C_NM_PER_FS,
    GAUSSIAN_FWHM_OVER_SIGMA,
    INTENSITY_FWHM_TO_SIGMA_OMEGA,
    fwhm_nm_to_fwhm_omega,
    wavelength_to_angular_frequency,
)

# Containment threshold for the Gaussian envelope factors at the grid edge.
EDGE_AMPLITUDE_LIMIT = 1.0e-4
MIN_SPAN_SIGMAS = 6.0  # the least grid span, in sigmas of the narrowest Gaussian factor

# Im exp(i h) / h carries the few-1e-16 absolute rounding error of its
# numerator divided by |h|; below this |h| the sampled sinc(h) is taken from
# its series 1 - h^2/6 + h^4/120 instead (truncation error < 3e-16).
SINC_SERIES_BELOW = 1.0e-2

# Size of one row-block work array of ``_Sampler``: small enough that a
# block's arrays stay in cache from sampling to the product.
ROW_BLOCK_BYTES = 512 * 1024

# Grid spacing must stay below pi / (largest applied group delay) by this
# safety factor, otherwise the discrete overlap aliases.
DELAY_SAMPLING_SAFETY = 1.3
MAX_GRID_POINTS = 4096

FILTER_SHAPES = ("gaussian", "rectangular", "none")

# Edge of the kernel's time support, relative to its peak: ``kernel_time_support``
# bounds the delays where |overlap| exceeds this.  A 2-D FFT of the sampled
# kernel has a noise floor near 1e-14, so no lower level can be checked.
SUPPORT_LEVEL = 1.0e-12

# Crop of the kernel stream: a cell whose envelope bound is below this
# fraction of a sampled envelope value is not sampled, and the crop stands
# only while the skipped cells can move a normalized overlap or norm^2 by at
# most this much (``kernel_overlaps`` otherwise samples every cell).
CELL_LEVEL = 1.0e-15


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

    @cached_property
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
        if self.shape not in FILTER_SHAPES:
            raise ConfigError(f"filter shape must be {'|'.join(FILTER_SHAPES)}, got {self.shape!r}")
        if not self.center_nm > 0.0 or (self.shape != "none" and not 0.0 < self.fwhm_nm < 2.0 * self.center_nm):
            raise ConfigError(f"a filter needs center_nm > 0 and 0 < fwhm_nm < 2 x center_nm (its band above "
                              f"0 nm), got fwhm_nm {self.fwhm_nm} at center_nm {self.center_nm}")

    @cached_property
    def center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.center_nm))

    @cached_property
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

    @property
    def walk_off_fs(self) -> tuple:
        """(signal, idler) walk-off from the pump over the crystal, fs:
        ((u_p - u_s) L, (u_p - u_i) L) with u the inverse group velocities."""
        p = self.inverse_group_velocity_pump_fs_per_mm
        return ((p - self.inverse_group_velocity_signal_fs_per_mm) * self.crystal_length_mm,
                (p - self.inverse_group_velocity_idler_fs_per_mm) * self.crystal_length_mm)

    @cached_property
    def signal_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.signal_center_nm))

    @cached_property
    def idler_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.idler_center_nm))


@dataclass(frozen=True)
class FrequencyGrid:
    """Square grid of absolute frequencies (rad/fs) on the (signal, idler)
    plane: each axis is ``points`` samples over its center +- ``half_span``,
    so both axes share one spacing by construction."""

    signal_center: float
    idler_center: float
    half_span: float
    points: int

    @cached_property
    def signal_axis(self) -> np.ndarray:
        return np.linspace(-self.half_span, self.half_span, self.points) + self.signal_center

    @cached_property
    def idler_axis(self) -> np.ndarray:
        return np.linspace(-self.half_span, self.half_span, self.points) + self.idler_center

    @property
    def spacing(self) -> float:
        """The nominal step 2 half_span / (points - 1)."""
        return 2.0 * self.half_span / (self.points - 1)

    @cached_property
    def _steps(self) -> np.ndarray:
        return self.spacing * np.arange(self.points)

    def detuning(self, arm: int, center: float, count: int | None = None) -> np.ndarray:
        """The uniform detuning nu_n = nu_0 + n d (n < ``count``, default
        ``points``) of the signal (``arm`` 0) or idler (1) axis from
        ``center``: nu_0 = axis center - center - half span, d = ``spacing``.
        Unlike the sampled axis less the center, it carries no rounding of
        the absolute samples."""
        steps = self._steps if count is None else self.spacing * np.arange(count)
        return (self.signal_center, self.idler_center)[arm] - center - self.half_span + steps

    @property
    def cell_area(self) -> float:
        """The product of the two sampled axes' first steps."""
        return float(self.signal_axis[1] - self.signal_axis[0]) * float(self.idler_axis[1] - self.idler_axis[0])

    @property
    def shape(self) -> tuple:
        return (self.points, self.points)


def _gaussian(omega, center, width):
    """exp(-(omega - center)^2 / width): a Gaussian amplitude, 1 at
    ``center``, of ``width`` = 4 sigma^2 for an intensity of standard
    deviation sigma.  Broadcasts, so one call takes a row per pulse or
    filter."""
    nu = np.subtract(omega, center, dtype=float)
    return np.exp(-(nu * nu) / width)


def pump_spectrum(pulse: PumpPulse, omega_sum):
    """Pump spectral amplitude at the pair sum frequency; 1 at the center."""
    sigma = pulse.sigma_omega
    return _gaussian(omega_sum, pulse.center_angular_frequency, 4.0 * sigma * sigma)


def _gaussian_terms(filt: SpectralFilter) -> tuple:
    """(center, width) that ``_gaussian`` takes for a filter: its own for a
    Gaussian one, else (0, inf), which gives exp(-0) = 1, the amplitude of
    no filter (a rectangular one's passband then replaces it)."""
    if filt.shape != "gaussian":
        return 0.0, math.inf
    sigma = filt.sigma_intensity_omega
    return filt.center_angular_frequency, 4.0 * sigma * sigma


def filter_amplitude(filt: SpectralFilter, omega):
    """Amplitude transmission in [0, 1] (square root of the intensity curve)."""
    omega = np.asarray(omega, dtype=float)
    if filt.shape == "rectangular":
        return np.where(np.abs(omega - filt.center_angular_frequency) <= 0.5 * filt.fwhm_omega, 1.0, 0.0)
    return _gaussian(omega, *_gaussian_terms(filt))


def phase_matching(spec: PhaseMatchingSpec, nu_s, nu_i):
    """Collinear first-order phase-matching amplitude; Phi(0, 0) = 1 + 0j."""
    du_s = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_signal_fs_per_mm
    du_i = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_idler_fs_per_mm
    half = 0.5 * (du_s * np.asarray(nu_s) + du_i * np.asarray(nu_i)) * spec.crystal_length_mm
    return np.sinc(half / np.pi) * np.exp(1j * half)


def make_grid(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    filters: tuple = (),
    points: int = 256,
    span_factor: float = 5.0,
    max_delay: float = 0.0,
) -> FrequencyGrid:
    """The square grid centred on the pair centers, sized and checked: the
    one place a grid rule is decided.  Its half span covers the pump ridge,
    the filters and the main phase-matching structure (the first sinc zero
    along the anticorrelated nu_s = -nu_i direction, unless matched group
    velocities put it at infinity; capped at a few widths of the Gaussian
    filters, which bound the support).  ``points`` per axis double until the
    spacing samples a net group retardation of ``max_delay`` (fs) between two
    amplitudes: spacing below pi / (``DELAY_SAMPLING_SAFETY`` max_delay),
    within ``MAX_GRID_POINTS``; past that, the error names the thickness keys
    when no span the span rule admits could sample the delay.

    Then, from scalars, each an error naming the keys to change: each
    filter's FWHM band must meet its arm's axis (names ``center_nm``), the
    span must cover ``MIN_SPAN_SIGMAS`` sigmas of the narrowest Gaussian
    factor (pump, Gaussian ``filters``), the spacing must resolve that sigma,
    and with no filter the pump must fall below ``EDGE_AMPLITUDE_LIMIT`` at
    the diagonal corners.  The sinc tails fall off only algebraically and are
    exempt; adequacy against them is the grid-refinement stability property.
    """
    thickness_keys = "check every thickness_mm (crystals, compensator, knob plates)"
    if not math.isfinite(max_delay):
        raise ConfigError(f"the net group delay between the amplitudes is {max_delay!r} fs; {thickness_keys}")
    if points < 8:
        raise ConfigError("grid needs at least 8 points per axis")
    # (name, sigma, the config keys that set it) of each Gaussian factor.
    gaussians = [("pump envelope", pulse.sigma_omega, "pump.duration_fs")]
    gaussians += [(f"{arm} filter", f.sigma_intensity_omega, f"filters[{k}].fwhm_nm and center_nm")
                  for k, (arm, f) in enumerate(zip(("signal", "idler"), filters)) if f.shape == "gaussian"]
    scales = [sigma for _, sigma, _ in gaussians]
    walk_off = abs(spec.inverse_group_velocity_signal_fs_per_mm
                   - spec.inverse_group_velocity_idler_fs_per_mm) * spec.crystal_length_mm
    if walk_off >= 1.0e-12:
        antidiag = 2.0 * math.pi / walk_off
        scales.append(min(antidiag, 3.0 * max(scales[1:])) if len(gaussians) > 1 else antidiag)
    half_span = span_factor * max(scales)
    omega_nm = 2.0 * math.pi * C_NM_PER_FS  # an angular frequency (rad/fs) times its wavelength
    for k, (arm, f, center_nm) in enumerate(zip(("signal", "idler"), filters,
                                                (spec.signal_center_nm, spec.idler_center_nm))):
        # A filter's FWHM band, in detunings from its arm's center, must meet the arm's axis.
        if f.shape == "none":
            continue
        low, high = (omega_nm / (f.center_nm + side * f.fwhm_nm) - omega_nm / center_nm for side in (0.5, -0.5))
        if low > half_span or high < -half_span:
            raise ConfigError(f"filters[{k}].center_nm {f.center_nm:g} nm puts the {arm} filter's band outside "
                              f"the {arm} grid axis; set it near the {arm} center {center_nm:g} nm")
    name, narrowest, keys = min(gaussians, key=lambda gaussian: gaussian[1])
    least_span = MIN_SPAN_SIGMAS * narrowest
    required = 2.0 * half_span * max_delay * DELAY_SAMPLING_SAFETY / math.pi
    while points <= MAX_GRID_POINTS and points < required:
        points *= 2
    if points > MAX_GRID_POINTS:
        least = least_span * max_delay * DELAY_SAMPLING_SAFETY / math.pi
        advice = (f" on any grid span; reduce the delay and {thickness_keys}" if least > MAX_GRID_POINTS
                  else "; reduce the delay or lower scan.grid_span_factor")
        raise GridTruncationError(f"applied delays (~{max_delay:.3g} fs) would need more than "
                                  f"{MAX_GRID_POINTS} grid points (MAX_GRID_POINTS){advice}")
    grid = FrequencyGrid(spec.signal_center_angular_frequency, spec.idler_center_angular_frequency,
                         half_span, points)

    span = 2.0 * half_span
    if span < least_span:
        raise GridTruncationError(
            f"grid span {span:.4g} rad/fs is below {MIN_SPAN_SIGMAS:g} standard deviations of the "
            f"narrowest envelope ({narrowest:.4g} rad/fs); raise scan.grid_span_factor"
        )
    if narrowest < grid.spacing:
        advice = (f"nor does any grid within {MAX_GRID_POINTS} points (MAX_GRID_POINTS); check {keys}"
                  if narrowest < span / (MAX_GRID_POINTS - 1) else "raise scan.grid_points")
        raise GridTruncationError(f"grid spacing {grid.spacing:.4g} rad/fs cannot resolve the {name} "
                                  f"(sigma = {narrowest:.4g} rad/fs); {advice}")
    if all(f.shape == "none" for f in filters):
        # Only the pump envelope bounds the amplitude; its ridge width must
        # be contained: the largest reachable |w_s + w_i - W_p| sits at the
        # diagonal corners.
        corner_sums = (grid.signal_axis[0] + grid.idler_axis[0], grid.signal_axis[-1] + grid.idler_axis[-1])
        edge = max(float(pump_spectrum(pulse, s)) for s in corner_sums)
        if edge > EDGE_AMPLITUDE_LIMIT:
            raise GridTruncationError(
                f"grid too narrow for the pump envelope: edge magnitude {edge:.3g} "
                f"exceeds {EDGE_AMPLITUDE_LIMIT} of the peak; raise scan.grid_span_factor"
            )
    return grid


def _expi(angles) -> np.ndarray:
    """exp(i angles) from one cosine and one sine per angle."""
    out = np.empty(np.shape(angles), dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _block_rows(points: int) -> int:
    """Rows per row block of ``_Sampler`` on a grid of ``points`` per axis:
    one block's work array holds ``ROW_BLOCK_BYTES``."""
    return min(max(1, ROW_BLOCK_BYTES // (8 * points)), points)


class _StackedSetup:
    """The 1-D set-up of ``_Sampler`` for a batch of evaluations whose grids
    share one point count N, given as parallel sequences (pulses, specs,
    f_s, f_i, grids), all cropped or none (``crop``, as in ``_Sampler``).
    The array work is one array with a row per evaluation (per spec for the
    detunings, sinc factors and series bands), so a batch makes each of
    those numpy calls once, not once per evaluation: the axes and cell areas, the pump ridge's 2N - 1 samples
    and the filter amplitudes (one Gaussian call), the sinc factors, the
    series bands and candidate counts, and the cell offsets.  The border,
    the crest, the crop threshold and the per-block column bounds take a
    few calls per evaluation on its rows, which a stacked form does not
    undercut at one evaluation.  Every element takes the operations it takes
    alone, so each row is the set-up of its evaluation alone, bit for bit.
    ``_Sampler`` takes its row; the batch's samplers share one scratch
    allocation (``scratch_shape``), so they stream one at a time.

    The rank-2 factors of the half mismatch h = D L / 2 = a(nu_s) + b(nu_i)
    are left = [a, 1, f_s sin a, f_s cos a] (one row per nu_s) and right =
    [1, b, f_i cos b, f_i sin b] (one column per nu_i), with the filter
    amplitudes f folded in, so that h = left[:, :2] @ right[:2] and
    f_s f_i sin h = left[:, 2:] @ right[2:].  A spec's band bounds, per
    row, the columns where b lies within 2 ``SINC_SERIES_BELOW`` of -a: b
    is monotone, so bisection finds them."""

    def __init__(self, pulses, specs, f_s, f_i, grids, crop: bool):
        n = grids[0].points
        count = len(grids)
        j = np.arange(n)
        # Per evaluation: the (center, width) of the pump and of each filter
        # (``_gaussian_terms``), then the grid's half span, spacing and centers.
        scalars = np.array([(p.center_angular_frequency, 4.0 * p.sigma_omega * p.sigma_omega,
                             *_gaussian_terms(fs), *_gaussian_terms(fi),
                             g.half_span, g.spacing, g.signal_center, g.idler_center)
                            for p, fs, fi, g in zip(pulses, f_s, f_i, grids)])
        gaussians = scalars[:, :6].reshape(count, 3, 2, 1)
        # One Gaussian call on three rows: the pump ridge's sums w_s + w_i
        # (down the first column, then along the last row), and the signal
        # and idler axes, each linspace(-half span, half span, N) + center
        # (its steps n d less the half span, the last the half span), padded
        # with the filter's center, where exp takes no slow underflow path.
        steps = scalars[:, 7:8] * j
        omega = np.empty((count, 3, 2 * n - 1))
        axes = omega[:, 1:, :n]
        base = steps - scalars[:, 6:7]
        base[:, -1] = scalars[:, 6]
        np.add(base[:, None, :], scalars[:, 8:, None], out=axes)
        omega[:, 1:, n:] = gaussians[:, 1:, 0]
        np.add(axes[:, 0], axes[:, 1, :1], out=omega[:, 0, :n])
        np.add(axes[:, 0, -1:], axes[:, 1, 1:], out=omega[:, 0, n:])
        envelope = _gaussian(omega, gaussians[:, :, 0], gaussians[:, :, 1])
        for row, pair in enumerate(zip(f_s, f_i)):
            for arm, f in enumerate(pair):
                if f.shape == "rectangular":
                    envelope[row, 1 + arm, :n] = (np.abs(axes[row, arm] - f.center_angular_frequency)
                                                  <= 0.5 * f.fwhm_omega)
        self.cell_area = tuple(ds * di for ds, di in (axes[:, :, 1] - axes[:, :, 0]).tolist())
        self.filters = envelope[:, 1:, :n]
        # Each pump ridge, a Hankel view of its 2N - 1 samples.
        self.ridge = np.ndarray((count, n, n), buffer=envelope, strides=(envelope.strides[0], 8, 8))
        # Per evaluation, from its rows: the envelope's border (its first and
        # last column, then row; the larger, as Python's max takes it); the
        # envelope on the crest j + k = mode of the pump ridge, rounded as a
        # block rounds it, and the crop threshold it sets; and one row of
        # bounds per block: the pump sample nearest the mode within the
        # block's j + k (the mode clipped into [k + r0, k + r1 - 1]), times
        # f_i(k) and the block's largest f_s.  A block's columns [first,
        # last) are those where its bound reaches the threshold, (0, 0) for a
        # block left out.
        self.block = block = _block_rows(n)
        starts = np.arange(0, n, block)
        self.starts = tuple(starts.tolist())
        low_rows, high_rows = j + starts[:, None], j + np.minimum(starts + block - 1, n - 1)[:, None]
        ends = slice(None, None, n - 1)
        self.border, self.crest, self.threshold = [], [], []
        columns = np.empty((count, 2, len(starts)), dtype=np.intp)
        for samples, ridge, (signal, idler), (first, last) in zip(envelope[:, 0], self.ridge, self.filters, columns):
            self.border.append(float(max(((ridge[:, ends] * idler[ends]) * signal[:, None]).max(),
                                         ((ridge[ends] * idler) * signal[ends, None]).max())))
            mode = int(samples.argmax())
            low, high = max(0, mode - n + 1), min(mode, n - 1)
            crest = (samples[mode] * idler[mode - high:mode - low + 1][::-1]) * signal[low:high + 1]
            self.crest.append(float(crest.max()))
            level = CELL_LEVEL * self.crest[-1]
            self.threshold.append(level if crop and math.isfinite(level) and level > 0.0 else 0.0)
            bound = samples[np.maximum(np.minimum(high_rows, mode), low_rows)]
            bound *= idler
            bound *= np.maximum.reduceat(signal, starts)[:, None]
            kept = ~(bound < self.threshold[-1])  # a NaN bound keeps its column
            kept.argmax(axis=1, out=first)
            np.multiply(n - kept[:, ::-1].argmax(axis=1), kept.any(axis=1), out=last)
        self.first, self.last = (tuple(map(tuple, side)) for side in zip(*columns.tolist()))
        self.border, self.crest, self.threshold = map(tuple, (self.border, self.crest, self.threshold))
        # ... and each row's.
        columns = np.repeat(columns, block, axis=2)[:, :, :n]

        # One row per spec: each evaluation's specs from row spec_start[k].
        flat = [(row, spec) for row, group in enumerate(specs) for spec in group]
        self.spec_start = (0, *itertools.accumulate(map(len, specs)))
        owner = slice(None) if len(flat) == count else [row for row, _ in flat]
        # Each spec's uniform detunings of both axes from its centers
        # (``FrequencyGrid.detuning``), then its half walk-offs.
        terms = np.array([(grids[row].signal_center - spec.signal_center_angular_frequency - grids[row].half_span,
                           grids[row].idler_center - spec.idler_center_angular_frequency - grids[row].half_span,
                           *(0.5 * v for v in spec.walk_off_fs)) for row, spec in flat])
        nu = terms[:, :2, None] + steps[owner, None, :]
        # Each evaluation's first spec's (spec_a's) detunings.
        self.detunings = nu if owner == slice(None) else nu[list(self.spec_start[:-1])]
        self.left, self.right = left, right = factors = np.ones((2, len(flat), 4, n))
        a = np.multiply(terms[:, 2:3], nu[:, 0], out=left[:, 0])
        b = np.multiply(terms[:, 3:], nu[:, 1], out=right[:, 1])
        np.sin(a, out=left[:, 2])
        np.cos(a, out=left[:, 3])
        np.cos(b, out=right[:, 2])
        np.sin(b, out=right[:, 3])
        filters = self.filters[owner, :, None, :]
        left[:, 2:] *= filters[:, 0]
        right[:, 2:] *= filters[:, 1]
        # Each row's candidate columns [lo, hi) of the series, clipped into
        # its block's.
        targets = np.subtract.outer((-2.0 * SINC_SERIES_BELOW, 2.0 * SINC_SERIES_BELOW), a)
        self.bands = np.empty((len(flat), 2, n), dtype=np.intp)
        for k, falling in enumerate((b[:, -1] < b[:, 0]).tolist()):
            if falling:
                self.bands[k] = n - np.searchsorted(b[k, ::-1], targets[::-1, k])
            else:
                self.bands[k] = np.searchsorted(b[k], targets[:, k])
        np.maximum(self.bands, columns[owner, :1], out=self.bands)
        np.minimum(self.bands, columns[owner, 1:], out=self.bands)
        # The candidates per block, each evaluation's specs summed.
        widths = self.bands[:, 1] - self.bands[:, 0]
        if len(flat) > count:
            widths = np.add.reduceat(widths, self.spec_start[:-1])
        self.counts = tuple(map(tuple, np.add.reduceat(widths, starts, axis=1).tolist()))
        # A cell (j, k) sits at offsets[j] + k of its block's scratch.
        self.offsets = (j % block) * (columns[:, 1] - columns[:, 0]) - columns[:, 0]
        # The shape of the samplers' scratch: one allocation per call, never
        # held, reshaped per block so each block is contiguous (separate
        # arrays are fresh pages, faulted in on every call).
        self.scratch_shape = (2 + max(map(len, specs)), block * n)
        # Read-only: a process keeps a set-up for later batches (``_stacked_setup``).
        for array in (envelope, self.detunings, factors, self.bands, self.offsets, self.ridge, self.filters,
                      self.left, self.right):
            array.flags.writeable = False


class _Sampler:
    """The real amplitudes V = envelope * sinc(h) of one or two specs on one
    grid, where the envelope is pump(w_s + w_i) f_s(w_s) f_i(w_i), and
    their kernel V_a V_b (V^2 for one spec), block by block: iterating
    yields (rows, cols, amplitudes, kernel) for each (rows, cols) slice of
    ``blocks``, in ``ROW_BLOCK_BYTES`` scratch arrays that the next block
    overwrites.  Each spec's norm^2 sums the same squares (numpy's pairwise
    sum, not ``np.vdot``, whose threaded BLAS dot slowed the passes after
    it).  Its 1-D set-up is row ``row`` of a ``_StackedSetup`` given as
    ``setup`` = (stacked set-up, row, scratch), which a batch computes for
    all its evaluations, with a scratch array of the set-up's
    ``scratch_shape`` that the batch's samplers share; by default the set-up
    of this evaluation alone, cropped as ``crop`` asks (a given set-up
    decided its crop: a batch's is cropped), and its own scratch.

    A sampled cell takes no 2-D transcendental call and few passes: the
    rank-2 products h and f_s f_i sin h of the set-up's factors, one
    divide, one multiply by the pump ridge, the kernel and its sum (each V^2
    and its sum, then the product, when the specs differ).  Both axes share
    one spacing, so w_s[j] + w_i[k] depends only on j + k and the pump ridge
    is a Hankel view of its 2N - 1 samples down the first column and along
    the last row.  Where |h| < ``SINC_SERIES_BELOW`` (h == 0 included) the
    quotient is replaced by f_s f_i (1 - h^2/6 + h^4/120): b is monotone in
    k, so a row's such cells lie in one column interval, which bisection on
    b bounds (with a margin) in the set-up; only those candidates take the
    exact test of a + b, the sum the rank-2 product rounds h to.  They are
    listed per run of blocks holding at most one block's cells of them,
    when the run's first block is sampled.

    The grid is taken as ``make_grid`` checked it.  One plan makes the
    blocks: a block of rows samples only the contiguous columns where an
    upper bound of its envelope reaches ``threshold``; a block without such
    a column is left out.  With ``crop`` the threshold is ``CELL_LEVEL``
    times ``crest``, the largest envelope value on the pump ridge's crest;
    otherwise, or when that level is not finite and positive, it is 0,
    which keeps every column (a bound is >= 0, or NaN).  The bound takes
    O(N) per block from 1-D data: the pump samples are unimodal in j + k,
    so their maximum over the block's rows at column k is the sample at the
    mode clipped into [k + r0, k + r1 - 1], times f_i(k) and the block's
    largest f_s.  Every skipped cell has |V| below ``threshold``
    (|sinc| <= 1), and the peak cell is always sampled.

    ``norms`` runs the border check on the envelope's border (from 1-D
    products, before any 2-D array exists): the crest, a lower bound of the
    sampled peak, decides it unless the border exceeds the edge limit of
    the crest; then the sampled peak is taken in one pass over the blocks."""

    def __init__(self, pulse: PumpPulse, specs: tuple, f_s: SpectralFilter, f_i: SpectralFilter,
                 grid: FrequencyGrid, crop: bool = False, setup: tuple | None = None):
        if setup is None:
            stack = _StackedSetup((pulse,), (specs,), (f_s,), (f_i,), (grid,), crop)
            setup = (stack, 0, np.empty(stack.scratch_shape))
        stack, row, scratch = setup
        self.filter_s, self.filter_i = stack.filters[row]
        self.ridge = stack.ridge[row]
        # With a filter present the sampled envelope must fall off at the
        # border; without one ``make_grid`` tested the pump corners.
        self.bounded = f_s.shape != "none" or f_i.shape != "none"
        self.border, self.crest, self.threshold = stack.border[row], stack.crest[row], stack.threshold[row]
        self.cell_area = stack.cell_area[row]
        self.lengths = [spec.crystal_length_mm for spec in specs]
        rows = range(stack.spec_start[row], stack.spec_start[row + 1])
        # Per spec (a, b, left, right): the 1-D terms of h and its rank-2 factors.
        self.factors = [(stack.left[k, 0], stack.right[k, 1], stack.left[k].T, stack.right[k]) for k in rows]
        self.bands = [stack.bands[k] for k in rows]
        n, block, last = grid.points, stack.block, stack.last[row]
        self.blocks = [(slice(r0, min(r0 + block, n)), slice(c0, c1))
                       for r0, c0, c1 in zip(stack.starts, stack.first[row], last) if c1]
        # [blocks, candidates] per run of blocks: a new run starts where the
        # candidates would pass one block's cells (one block may hold more).
        self.runs = []
        for count, c1 in zip(stack.counts[row], last):
            if not c1:
                continue
            if not self.runs or self.runs[-1][1] + count > ROW_BLOCK_BYTES // 8:
                self.runs.append([0, 0])
            self.runs[-1][0] += 1
            self.runs[-1][1] += count
        self.offsets = stack.offsets[row]
        self.cells = 0
        self.h, self.kernel, *self.sincs = scratch[:2 + len(specs)]
        self.norms_sq = np.zeros(len(specs))

    def _series_cells(self, factors: tuple, band: np.ndarray, run: list) -> list:
        """Per block of ``run`` (consecutive ``blocks``), the offsets of its
        cells with |h| < ``SINC_SERIES_BELOW`` and their V / pump, f_s f_i
        (1 - h^2/6 + h^4/120), from the candidates in ``band``."""
        a, b = factors[:2]
        lo, hi = band[:, run[0][0].start:run[-1][0].stop]
        counts = hi - lo
        ends = counts.cumsum()
        rows = np.arange(run[0][0].start, run[-1][0].stop).repeat(counts)
        cols = (hi - ends).repeat(counts) + np.arange(rows.size)
        h = a[rows] + b[cols]
        near = abs(h) < SINC_SERIES_BELOW
        rows, cols, h2 = rows[near], cols[near], h[near] ** 2
        values = 1.0 - h2 / 6.0 * (1.0 - h2 / 20.0)
        values *= self.filter_s[rows] * self.filter_i[cols]
        offsets = self.offsets[rows] + cols
        cuts = [0, *rows.searchsorted([block[0].start for block in run[1:]]).tolist(), rows.size] if run[1:] \
            else [0, rows.size]
        return [(offsets[i:j], values[i:j]) if j > i else None for i, j in zip(cuts, cuts[1:])]

    def __iter__(self):
        first = 0
        for length, candidates in self.runs:
            run = self.blocks[first:first + length]
            first += length
            series = [self._series_cells(factors, band, run) if candidates else [None] * length
                      for factors, band in zip(self.factors, self.bands)]
            for index, (rows, cols) in enumerate(run):
                shape = (rows.stop - rows.start, cols.stop - cols.start)
                size = shape[0] * shape[1]
                self.cells += size
                h = self.h[:size].reshape(shape)
                ridge = self.ridge[rows, cols]
                amplitudes = []
                for (_, _, left, right), sinc, listed in zip(self.factors, self.sincs, series):
                    np.matmul(left[rows, :2], right[:2, cols], out=h)
                    amplitude = np.matmul(left[rows, 2:], right[2:, cols], out=sinc[:size].reshape(shape))
                    with np.errstate(divide="ignore", invalid="ignore"):
                        amplitude /= h
                    if listed[index] is not None:
                        offsets, values = listed[index]
                        sinc[offsets] = values
                    amplitude *= ridge
                    amplitudes.append(amplitude)
                kernel = self.kernel[:size].reshape(shape)
                for n, amplitude in enumerate(amplitudes):
                    self.norms_sq[n] += np.square(amplitude, out=kernel).sum()
                if len(amplitudes) > 1:
                    np.multiply(*amplitudes, out=kernel)
                yield rows, cols, amplitudes, kernel

    def _peak(self) -> float:
        """The largest sampled envelope value, in one pass over the blocks."""
        peak = 0.0
        for rows, cols in self.blocks:
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            envelope = np.multiply(self.ridge[rows, cols], self.filter_i[cols],
                                   out=self.h[:shape[0] * shape[1]].reshape(shape))
            envelope *= self.filter_s[rows, None]
            peak = max(peak, float(envelope.max()))
        return peak

    def norms(self) -> list:
        """The L2 norm of each spec's V, once every block has been sampled.
        With filters bounding the support, the sampled envelope must first
        have fallen below the edge limit along the whole grid border; a zero
        or non-finite norm (e.g. from an infinite crystal length) is rejected."""
        if self.bounded and not (0.0 < self.crest and self.border <= EDGE_AMPLITUDE_LIMIT * self.crest):
            peak = self._peak()
            if peak == 0.0 or self.border > EDGE_AMPLITUDE_LIMIT * peak:
                raise GridTruncationError(
                    f"grid too narrow: envelope magnitude at the border is "
                    f"{self.border / max(peak, 1e-300):.3g} of its peak (limit {EDGE_AMPLITUDE_LIMIT}); "
                    "raise scan.grid_span_factor"
                )
        norms_sq = [float(n) * self.cell_area for n in self.norms_sq]
        for norm_sq, length in zip(norms_sq, self.lengths):
            if not (math.isfinite(norm_sq) and norm_sq > 0.0):
                raise GridTruncationError(f"joint amplitude norm squared is {norm_sq!r} on this grid for a "
                                          f"crystal of thickness_mm {length!r}; it must be finite and positive")
        return [math.sqrt(n) for n in norms_sq]


def build_jsa(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    f_s: SpectralFilter,
    f_i: SpectralFilter,
    grid: FrequencyGrid,
) -> JointSpectralAmplitude:
    """Sample pump * phase-matching * filters on the grid and L2-normalize.

    The grid is taken as given: ``make_grid`` checks a grid, this samples
    it (with the border and norm checks of ``_Sampler.norms``).
    ``_Sampler``'s row blocks of the real envelope * sinc(h) fill one real
    array, which its checked norm divides; the separable phase
    exp(i a(nu_s)) exp(i b(nu_i)) is applied last.
    """
    sampler = _Sampler(pulse, (spec,), f_s, f_i, grid)
    amplitude = np.empty(grid.shape)
    for rows, _, (block,), _ in sampler:
        amplitude[rows] = block
    amplitude /= sampler.norms()[0]
    ((a, b, _, _),) = sampler.factors
    values = np.multiply.outer(_expi(a), _expi(b))
    values *= amplitude
    return JointSpectralAmplitude(grid, values)


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
    never holds an N x N array.  The grid is taken as given, as in
    ``build_jsa``.  The batch of one of ``kernel_overlaps_batch``.

    Each JSA is a real envelope * sinc(h) times the separable phase
    exp(i a(nu_s)) exp(i b(nu_i)), so conj(J_a) J_b is the real kernel
    V_a V_b (V^2 for identical cuts) times, per arm, a phase linear in the
    detuning nu: a shift of that arm's delays T, and a constant.  nu is the
    grid's uniform axis nu_n = nu_0 + n d, so with n = m j + r, m =
    ceil(sqrt N), j < q = ceil(N / m), exp(i T nu_n) = exp(i T nu_(m j))
    exp(i T d r): an arm with K distinct delays takes K (q + m) cosines and
    sines, one with equal delays one row.  The arm with fewer distinct
    delays drives the product: its N x K table (the row, or the factors'
    product) meets each row block of the kernel from ``_Sampler``
    (``ROW_BLOCK_BYTES`` per work array, the norms summed from the same
    squares) in one real product while the block is in cache.  The other
    arm's table is never formed: the accumulated columns meet its factors
    in one (q x m) @ (m x K) product (one contraction per delay when both
    arms vary), then q terms per delay.

    Each block covers only the columns of the envelope's support (the crop
    of ``_Sampler``); the cells it skips have |V| < threshold and add
    nothing.  After the border and norm checks, skipped x threshold^2 x
    cell area over the smaller norm^2 bounds what they could move in a
    normalized overlap or norm^2; above ``CELL_LEVEL`` the stream reruns on
    every cell.
    """
    return kernel_overlaps_batch([(pulse, spec_a, spec_b, f_s, f_i, grid, signal_delays_fs, idler_delays_fs)])[0]


# Floats per grid point of one evaluation's ``_StackedSetup`` and the
# temporaries that make it (tracemalloc: 33 with one spec, 53 with two).
SETUP_FLOATS = 56


def _batches(points: list) -> list:
    """The indices of the evaluations whose grids have ``points`` points per
    axis, in batches: grouped by point count, in order, and split so that a
    batch's ``_StackedSetup`` (``SETUP_FLOATS`` per grid point and
    evaluation) stays within ``ROW_BLOCK_BYTES``."""
    batches = []
    for n in dict.fromkeys(points):
        indices = [index for index, count in enumerate(points) if count == n]
        size = max(1, ROW_BLOCK_BYTES // (8 * n * SETUP_FLOATS))
        batches += [indices[k:k + size] for k in range(0, len(indices), size)]
    return batches


def kernel_overlaps_batch(evaluations) -> list:
    """``kernel_overlaps`` of each evaluation, a tuple of its arguments, in
    order.  The evaluations of one of ``_batches`` take their 1-D set-up from
    one cropped ``_StackedSetup`` and the phase rows of their one-delay arms
    from one call; each then streams its own ``_Sampler`` block loop as it
    would alone, so every result is the one it gets alone, bit for bit.  The
    first ConfigError a stream raises is raised; the batches go by point
    count, so it need not be the lowest-indexed evaluation's.  A batch whose
    records and set-up constants an earlier batch of the process had takes
    that batch's kept ``_StackedSetup`` (``_stacked_setup``)."""
    results = [None] * len(evaluations)
    for batch in _batches([evaluation[5].points for evaluation in evaluations]):
        group = [evaluations[index] for index in batch]
        pulses, specs_a, specs_b, f_s, f_i, grids, *_ = zip(*group)
        specs = tuple((a,) if b == a else (a, b) for a, b in zip(specs_a, specs_b))
        stack = _stacked_setup(pulses, specs, f_s, f_i, grids, CELL_LEVEL, SINC_SERIES_BELOW, ROW_BLOCK_BYTES)
        scratch = np.empty(stack.scratch_shape)
        # Per arm, the distinct delays T with the shift of J_b's phase less
        # J_a's, 0.5 (v_b - v_a) (v the walk-offs): one value when all are equal.
        delays = [[_distinct(np.asarray(delays_fs, dtype=float) + 0.5 * (b.walk_off_fs[side] - a.walk_off_fs[side]))
                   for side, delays_fs in enumerate(arm_delays)] for _, a, b, _, _, _, *arm_delays in group]
        # (K, phases) per arm: a one-delay arm's row exp(i T nu) on spec_a's
        # detunings, all from one call (the rows of the other arms unread),
        # or the factors of K delays.
        if any(arm.size == 1 for pair in delays for arm in pair):
            single = np.array([[arm[0] if arm.size == 1 else 0.0 for arm in pair] for pair in delays])
            phases = _expi(stack.detunings * single[:, :, None])
        arms = [[(1, phases[row, side]) if arm.size == 1 else (arm.size, _delay_factors(e[5], side, e[1], arm))
                 for side, arm in enumerate(pair)] for row, (e, pair) in enumerate(zip(group, delays))]
        for row, (index, evaluation) in enumerate(zip(batch, group)):
            results[index] = _overlaps((stack, row, scratch), specs[row], arms[row], *evaluation)
    return results


@kept(4)
def _stacked_setup(pulses, specs, f_s, f_i, grids, *constants) -> _StackedSetup:
    """The cropped ``_StackedSetup`` of a batch, kept with the ``constants``
    it reads: at most ~0.9 MiB (a 4096^2 evaluation with two specs;
    ``_batches`` bounds a smaller grid's batch), so 4 hold ~3.6 MiB."""
    return _StackedSetup(pulses, specs, f_s, f_i, grids, True)


def _distinct(delays: np.ndarray) -> np.ndarray:
    """``delays``, or its first alone when all are equal."""
    return delays[:1] if delays.size > 1 and (delays == delays[0]).all() else delays


def _delay_factors(grid: FrequencyGrid, side: int, spec_a: PhaseMatchingSpec, delays: np.ndarray) -> tuple:
    """exp(i T nu_(m j)) (q, K) and exp(i T d r) (m, K): the factors of an
    arm's phases exp(i T nu_n) at its K delays T on its uniform axis nu_n =
    nu_0 + n d about spec_a's center, n = m j + r (``kernel_overlaps``)."""
    m = math.isqrt(grid.points - 1) + 1
    q = -(-grid.points // m)
    center = (spec_a.signal_center_angular_frequency, spec_a.idler_center_angular_frequency)[side]
    nu = grid.detuning(side, center, q * m)
    return (_expi(np.multiply.outer(nu[::m], delays)), _expi(np.multiply.outer(grid.spacing * np.arange(m), delays)))


def _overlaps(setup, specs, arms, pulse, spec_a, spec_b, f_s, f_i, grid, signal_delays_fs, idler_delays_fs):
    """``kernel_overlaps`` of one evaluation, on its ``_Sampler`` ``setup``,
    from (K, phases) of each arm: its phase row exp(i T nu) (N,) for one
    delay T, or ``_delay_factors`` for K."""
    sampler = _Sampler(pulse, specs, f_s, f_i, grid, setup=setup)
    n = grid.points
    m = math.isqrt(n - 1) + 1  # column n = m j + r, with j < q and r < m
    q = -(-n // m)

    # Per arm, conj(J_a) J_b has the phase 0.5 (v_b (nu + c_a - c_b) - v_a nu) (v
    # the walk-offs, c the centers): a delay 0.5 (v_b - v_a), and a constant.
    centers = [(spec.signal_center_angular_frequency, spec.idler_center_angular_frequency)
               for spec in (spec_a, spec_b)]
    carrier = 0.5 * sum(v * (a - b) for v, a, b in zip(spec_b.walk_off_fs, *centers))

    idler_drives = arms[1][0] < arms[0][0]
    (k_drive, drive), (k_other, other) = arms[::-1] if idler_drives else arms
    if k_drive != 1:  # the driving arm's N x K table, from its factors
        p, r = drive
        drive = (p[:, None] * r).reshape(q * m, k_drive)[:n]
    drive = drive.view(float).reshape(n, 2 * k_drive)  # cos, sin of each delay's angle per column

    def stream(sampler):
        # The kernel's product with the driving table: its rows block by
        # block, or its columns summed over the blocks, into q m x 2K (the
        # rows past N stay 0); the cells a block skips add nothing.
        acc = np.zeros((q * m, 2 * k_drive))
        for rows, cols, _, kernel in sampler:
            if idler_drives:
                np.matmul(kernel, drive[cols], out=acc[rows])
            else:
                acc[cols] += kernel.T @ drive[rows]
        return acc, sampler.norms()

    acc, norms = stream(sampler)
    skipped = n ** 2 - sampler.cells
    if skipped * sampler.cell_area * (sampler.threshold / min(norms)) ** 2 > CELL_LEVEL:
        acc, norms = stream(_Sampler(pulse, specs, f_s, f_i, grid))

    # Sum acc_n exp(i T nu_n) over the other arm's columns n: with one row a
    # dot product; with factors, sum_j P_j sum_r acc_(m j + r) R_r.
    acc = acc.view(complex)
    if k_other == 1:
        terms = acc[:n].T @ other
    else:
        p, r = other
        acc = acc.reshape(q, m, k_drive)
        partial = acc[..., 0] @ r if k_drive == 1 else np.einsum("jrk,rk->jk", acc, r)
        terms = np.einsum("jk,jk->k", partial, p)
    scale = np.exp(1j * carrier) * sampler.cell_area / (norms[0] * norms[-1])
    shape = np.shape(signal_delays_fs)
    return (terms if terms.shape == shape else np.broadcast_to(terms, shape)) * scale


def _segment_average(beta: float) -> float:
    """The mean of exp(-beta x^2) over x uniform in [-1/2, 1/2]."""
    if beta < 1.0e-12:
        return 1.0
    root = math.sqrt(beta)
    return math.sqrt(math.pi) / root * math.erf(0.5 * root)


def _tail_bound(d: float, sigma: float, l_a: float, l_b: float) -> tuple:
    """(bound, d ln(bound)/dd) of the integral of exp(-(d + x)^2 / (2 sigma^2))
    over the sum x of two uniform variables on [0, l_a] and [0, l_b], d > 0:
    the least of the whole Gaussian (the sum has mass 1), its tail over the
    density's largest value 1 / max(l_a, l_b), and its tail against the
    density's ramp x / (l_a l_b).  Each is log-concave in d."""
    u = d / (sigma * math.sqrt(2.0))
    gauss = math.exp(-u * u)
    tail = sigma * math.sqrt(0.5 * math.pi) * math.erfc(u)
    bounds = [(gauss, -d / (sigma * sigma))]
    if max(l_a, l_b) > 0.0:
        bounds.append((tail / max(l_a, l_b), -gauss / tail))
    ramp = sigma * sigma * gauss - d * tail  # the integral of (z - d) exp(-z^2 / (2 sigma^2)) beyond d
    if l_a * l_b > 0.0 and ramp > 0.0:
        bounds.append((ramp / (l_a * l_b), -tail / ramp))
    return min(bounds)


def kernel_time_support(pulse: PumpPulse, spec_a: PhaseMatchingSpec, spec_b: PhaseMatchingSpec,
                        f_s: SpectralFilter, f_i: SpectralFilter) -> tuple:
    """((c_s, T_s), (c_i, T_i)): per arm, the centre and half width (fs) of
    the box of (signal, idler) delays outside which ``kernel_overlaps`` is
    below ``SUPPORT_LEVEL`` of its peak.  T is infinite unless both filters
    are Gaussian: without them the kernel does not decay like a Gaussian in
    time.  Scalar work only.

    The kernel conj(J_a) J_b is the Gaussian E = pump^2 f_s^2 f_i^2, of
    quadratic form Q in (nu_s, nu_i), times conj(Phi_a) Phi_b, and
    Phi = sinc(h) exp(i h) is the mean of exp(i (g_s nu_s + g_i nu_i) z) over
    the crystal (g = 1/u_p - 1/u_pair).  In time, the overlap is E's
    transform, a Gaussian of form Q^-1, averaged over the walk-off
    parallelogram s = v_b x_b - v_a x_a (v = g L, x uniform in [0, 1]):
    - at a fixed signal delay t the Gaussian is at most
      exp(-t^2 / (2 Q_ss)), and the projection of s on the signal arm has a
      trapezoid density, so beyond the end of that projection the overlap
      is at most ``_tail_bound`` (likewise for the idler);
    - its peak is at least rho times the Gaussian's: the mean over the
      parallelogram about its centre, which is at least the product of the
      two segments' means of exp(-v^T Q^-1 v x^2 / 2), less half the
      variance of the phase that the centres of E and of spec_b put on the
      average.
    The half width is the projection's half length plus the distance where
    the tail bound falls to ``SUPPORT_LEVEL`` rho, found by Newton steps on
    the log of the bound from the Gaussian's own distance; the bound is
    log-concave, so every step stays beyond that distance.  Where a scalar
    overflows or vanishes on the way (a 1e300 fs pulse or mm crystal, a
    1e-300 nm filter), T is infinite too, and the grid and config checks
    answer.  A process keeps the last 32 supports by their arguments and
    ``SUPPORT_LEVEL`` (``_time_support``)."""
    return _time_support(pulse, spec_a, spec_b, f_s, f_i, SUPPORT_LEVEL)


@kept(32)
def _time_support(pulse: PumpPulse, spec_a: PhaseMatchingSpec, spec_b: PhaseMatchingSpec,
                  f_s: SpectralFilter, f_i: SpectralFilter, level: float) -> tuple:
    """``kernel_time_support`` at the support level ``level``, computed."""
    unbounded = ((0.0, math.inf), (0.0, math.inf))
    if not f_s.shape == f_i.shape == "gaussian":
        return unbounded
    try:
        w_p = 1.0 / pulse.sigma_omega ** 2
        w_s = 1.0 / f_s.sigma_intensity_omega ** 2
        w_i = 1.0 / f_i.sigma_intensity_omega ** 2
        q_ss, q_si, q_ii = w_p + w_s, w_p, w_p + w_i
        det = q_ss * q_ii - q_si * q_si

        def inverse_form(v):  # v^T Q^-1 v
            return (q_ii * v[0] * v[0] - 2.0 * q_si * v[0] * v[1] + q_ss * v[1] * v[1]) / det

        # E's centre nu0 = Q^-1 b, from the linear terms b of its exponent (all
        # scalars: the detunings of the filters, the pump and spec_b from spec_a).
        def detuning(nm, from_nm):
            return 2.0 * math.pi * C_NM_PER_FS * (1.0 / nm - 1.0 / from_nm)

        a_s, a_i = spec_a.signal_center_nm, spec_a.idler_center_nm
        pump = w_p * (detuning(pulse.center_wavelength_nm, a_s) - 2.0 * math.pi * C_NM_PER_FS / a_i)
        linear = (pump + w_s * detuning(f_s.center_nm, a_s), pump + w_i * detuning(f_i.center_nm, a_i))
        nu0 = ((q_ii * linear[0] - q_si * linear[1]) / det, (q_ss * linear[1] - q_si * linear[0]) / det)
        shift = (nu0[0] - detuning(spec_b.signal_center_nm, a_s),
                 nu0[1] - detuning(spec_b.idler_center_nm, a_i))

        v_a, v_b = spec_a.walk_off_fs, spec_b.walk_off_fs
        if not all(map(math.isfinite, v_a + v_b)):
            return unbounded
        phase_variance = ((nu0[0] * v_a[0] + nu0[1] * v_a[1]) ** 2
                          + (shift[0] * v_b[0] + shift[1] * v_b[1]) ** 2) / 12.0
        rho = (_segment_average(0.5 * inverse_form(v_a)) * _segment_average(0.5 * inverse_form(v_b))
               - 0.5 * phase_variance)
        if not rho > 0.0:
            return unbounded
        log_level = math.log(level * rho)

        arms = []
        for arm, q in ((0, q_ss), (1, q_ii)):
            low = min(0.0, v_b[arm]) - max(0.0, v_a[arm])
            high = max(0.0, v_b[arm]) - min(0.0, v_a[arm])
            sigma = math.sqrt(q)
            d = sigma * math.sqrt(-2.0 * log_level)
            for _ in range(50):
                bound, slope = _tail_bound(d, sigma, abs(v_a[arm]), abs(v_b[arm]))
                step = (math.log(bound) - log_level) / slope
                d -= step
                if step < 0.1:
                    break
            # The overlap at delay t reads the walk-off at s = -t.
            arms.append((-0.5 * (low + high), 0.5 * (high - low) + d))
        return tuple(arms)
    except (ArithmeticError, ValueError):  # math range or domain error
        return unbounded
