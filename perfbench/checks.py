"""Output checks computed apart from the program under test.

Nothing here imports ``repro``: the expected values come from plasma
theory (the Landau root of the Vlasov-Poisson dispersion relation),
from conservation (the deposited charge equals the particles' charge)
or from a second run of the same inputs that the caller makes on
another code path (serial, direct or uninterrupted), compared bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

#: absolute tolerance of the measured Landau envelope rate against the
#: dispersion root; README.md ("Output checks") gives the reason
LANDAU_RATE_TOL = 0.015
#: fit window of the envelope peaks (plasma periods are ~4.4 long, so
#: this holds five |rho_k| peaks for k = 0.5)
LANDAU_FIT_WINDOW = (1.0, 12.5)
LANDAU_MIN_PEAKS = 5
#: relative tolerance of the charge balance (float64 summation order)
CHARGE_RTOL = 1e-10


@dataclass
class Check:
    """One named verdict with a human-readable detail line."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def plasma_dispersion(zeta: complex) -> complex:
    """Fried-Conte function Z(zeta) = i sqrt(pi) w(zeta)."""
    return 1j * math.sqrt(math.pi) * complex(wofz(zeta))


def landau_root(k: float, vth: float = 1.0,
                guess: complex = 1.4 - 0.15j) -> complex:
    """Least-damped root omega of the Langmuir dispersion relation.

    Solves ``1 + (1 + zeta Z(zeta)) / (k vth)^2 = 0`` with
    ``zeta = omega / (sqrt(2) k vth)`` (plasma-frequency units) by
    Newton iteration, using ``Z'(zeta) = -2 (1 + zeta Z(zeta))``.
    For ``k = 0.5, vth = 1`` the root is ``1.4156 - 0.1534 i``.
    """
    scale = math.sqrt(2.0) * k * vth
    zeta = guess / scale
    for _ in range(100):
        z = plasma_dispersion(zeta)
        f = 1.0 + (1.0 + zeta * z) / (k * vth) ** 2
        dz = -2.0 * (1.0 + zeta * z)
        df = (z + zeta * dz) / (k * vth) ** 2
        step = f / df
        zeta -= step
        if abs(step) < 1e-14 * max(1.0, abs(zeta)):
            break
    else:
        raise ArithmeticError("dispersion root did not converge")
    return zeta * scale


def envelope_rate(series, times, window=LANDAU_FIT_WINDOW):
    """Slope of log(local maxima) of ``series`` inside ``window``.

    Returns ``(rate, n_peaks)``; the rate is NaN with fewer than two
    peaks.
    """
    s = np.abs(np.asarray(series, dtype=np.float64))
    t = np.asarray(times, dtype=np.float64)
    inner = np.nonzero((s[1:-1] > s[:-2]) & (s[1:-1] >= s[2:]))[0] + 1
    inner = inner[(t[inner] >= window[0]) & (t[inner] <= window[1])]
    if len(inner) < 2:
        return float("nan"), int(len(inner))
    slope = np.polyfit(t[inner], np.log(s[inner]), 1)[0]
    return float(slope), int(len(inner))


def check_landau_rate(mode_amplitude, times, k: float, vth: float) -> Check:
    """The (1,0) density mode must decay at the dispersion-root rate."""
    gamma = landau_root(k, vth).imag
    rate, peaks = envelope_rate(mode_amplitude, times)
    ok = peaks >= LANDAU_MIN_PEAKS and abs(rate - gamma) <= LANDAU_RATE_TOL
    return Check(
        "landau-rate", bool(ok),
        f"envelope rate {rate:+.4f} over {peaks} peaks in "
        f"t={LANDAU_FIT_WINDOW}, dispersion root {gamma:+.4f} "
        f"(tol {LANDAU_RATE_TOL})")


def check_charge(deposited: float, n_particles: int, lx: float, ly: float,
                 charge: float = -1.0, name: str = "charge") -> Check:
    """Deposited charge vs the particles' total charge.

    The loader gives each of the ``n`` macro-particles the weight
    ``lx*ly/n`` (unit mean density), so the population carries
    ``charge * lx * ly`` whatever ``n`` is.
    """
    expected = charge * lx * ly
    err = abs(deposited - expected) / abs(expected)
    return Check(name, bool(err <= CHARGE_RTOL),
                 f"deposited {deposited:.12g} vs {expected:.12g} "
                 f"from {n_particles} particles (rel err {err:.2e})")


def history_arrays(history) -> dict:
    """The diagnostic series of a history as float64 arrays."""
    return {
        key: np.asarray(getattr(history, key), dtype=np.float64)
        for key in ("times", "field_energy", "kinetic_energy",
                    "mode_amplitude")
    }


def first_difference(a: dict, b: dict, upto: int | None = None):
    """Name and index of the first bitwise difference, or ``None``.

    Arrays are compared on their raw bytes (so ``-0.0 != 0.0`` and NaN
    payloads count), after cutting both to ``upto`` entries when given.
    """
    for key in a:
        x = np.ascontiguousarray(a[key])
        y = np.ascontiguousarray(b[key])
        if upto is not None:
            x, y = x[:upto], y[:upto]
        if x.shape != y.shape or x.dtype != y.dtype:
            return key, f"shape/dtype {x.shape}/{x.dtype} vs {y.shape}/{y.dtype}"
        if x.tobytes() != y.tobytes():
            bad = np.nonzero(x.view(np.uint8).reshape(x.size, -1)
                             != y.view(np.uint8).reshape(y.size, -1))[0]
            return key, f"first at index {int(bad[0])}"
    return None


def check_bitwise(name: str, a: dict, b: dict, upto: int | None = None,
                  what: str = "") -> Check:
    diff = first_difference(a, b, upto)
    if diff is None:
        return Check(name, True, f"bitwise equal ({what})")
    return Check(name, False, f"{diff[0]} differs, {diff[1]} ({what})")
