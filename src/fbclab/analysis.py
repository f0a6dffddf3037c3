"""Coverage ratios, receiver sensitivity, and encoder-throughput estimates.

Under the log-distance path loss model PL(d) = PL0 + 10*n*log10(d/d0),
receiver sensitivity differences in dB equal SNR differences at the same
target PER, so a scheme's SNR advantage maps directly to a coverage-distance
ratio 10^(delta/(10 n)) and, under a hexagonal layout, to an inverse-square
access-point density ratio. The module reports these ratios only: absolute
distances and densities depend on deployment constants (PL0, d0, transmit
power, antenna gains) that cancel out of every ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputDomainError, RangeError
from .keys import bounded, check_bounds
from .results import emit_results

FPGA_CSV_HEADER = ["family", "dsp_gmacs", "peak_gflops", "latency_us"]


@dataclass
class FpgaSpec:
    name: str
    dsp_gmacs: float = bounded(0, strict=True)

    __post_init__ = check_bounds

    @property
    def peak_gflops(self) -> float:
        # one MAC per DSP per cycle, two FLOPs per MAC
        return 2.0 * self.dsp_gmacs


# Representative device families and their aggregate DSP throughput in GMAC/s.
FPGA_FAMILIES = [
    FpgaSpec("Spartan-7", 176.0),
    FpgaSpec("Artix-7", 929.0),
    FpgaSpec("Kintex-7", 2845.0),
    FpgaSpec("Virtex-7", 5335.0),
]


def distance_ratio(delta_snr_db: float, exponent: float = 3.0) -> float:
    """Coverage-distance ratio implied by an SNR (sensitivity) advantage; inf past the floats."""
    if exponent <= 0:
        raise InputDomainError("exponent must be > 0")
    try:
        return 10.0 ** (delta_snr_db / (10.0 * exponent))
    except OverflowError:
        return math.inf


def density_ratio(r: float) -> float:
    """Relative access-point density for a coverage-distance ratio r; inf past the floats."""
    if r <= 0:
        raise InputDomainError("distance ratio must be > 0")
    return 1.0 / (r * r) if r * r else math.inf


def _finite_positive(name: str, what: str, value: float) -> float:
    if not 0 < value < math.inf:
        raise InputDomainError(f"{name}: {what} {value:g}, not a finite positive float")
    return value


def sensitivity_from_per_curve(points, target_per: float) -> float:
    """SNR at which an empirical PER curve crosses the target.

    Interpolates linearly in (SNR, log10 PER) space between the bracketing
    samples; PER curves are near-exponential in SNR so this minimizes bias.
    Refuses to extrapolate outside the sampled range.
    """
    if len(points) < 2:
        raise ConfigError("need at least two (snr, per) points")
    pts = sorted((float(s), float(p)) for s, p in points)
    pers = np.array([p for _, p in pts])
    snrs = np.array([s for s, _ in pts])
    if np.any(pers <= 0):
        raise InputDomainError("PER values must be positive for log interpolation")
    if np.any(np.diff(pers) > 0):
        raise InputDomainError("PER must be non-increasing in SNR")
    if not (pers.min() <= target_per <= pers.max()):
        raise RangeError(
            f"target PER {target_per:g} outside sampled range "
            f"[{pers.min():g}, {pers.max():g}]; refusing to extrapolate"
        )
    # log-PER is non-increasing in SNR; walk to the bracketing pair.
    logt = math.log10(target_per)
    logp = np.log10(pers)
    for i in range(len(pts) - 1):
        hi, lo = logp[i], logp[i + 1]
        if lo <= logt <= hi:
            if hi == lo:
                return float(snrs[i])
            frac = (hi - logt) / (hi - lo)
            return float(snrs[i] + frac * (snrs[i + 1] - snrs[i]))
    raise RangeError("target PER not bracketed by the curve")


def fpga_encode_latency(flops: float, spec: FpgaSpec) -> float:
    """Seconds to execute `flops` at the device's theoretical peak."""
    if flops <= 0:
        raise InputDomainError("flops must be > 0")
    return flops / (spec.peak_gflops * 1e9)


def fpga_report(flops: float, specs: list[FpgaSpec] | None = None) -> list[dict]:
    specs = FPGA_FAMILIES if specs is None else specs
    return [
        {
            "family": s.name,
            "dsp_gmacs": s.dsp_gmacs,
            "peak_gflops": s.peak_gflops,
            "latency_us": fpga_encode_latency(flops, s) * 1e6,
        }
        for s in specs
    ]


def fpga_report_csv(rows: list[dict], path) -> None:
    emit_results(rows, path, FPGA_CSV_HEADER)


def coverage_report(
    scheme: str,
    delta_snr_db: float,
    exponent: float = 3.0,
    reported_distance_ratio: float | None = None,
) -> dict:
    """Coverage and density ratios for a scheme's SNR advantage.

    When an externally reported distance ratio is supplied it drives the
    density figure (so published numbers can be reproduced), and the report
    states the discrepancy against the formula value rather than hiding it.
    A ratio outside the finite positive floats raises InputDomainError
    `<argument>: ...`, naming the argument it comes from.
    """
    formula_ratio = _finite_positive(
        "delta_snr_db",
        f"{delta_snr_db:g} dB at exponent {exponent:g} gives a distance ratio of",
        distance_ratio(delta_snr_db, exponent),
    )
    used = reported_distance_ratio if reported_distance_ratio is not None else formula_ratio
    source = "delta_snr_db" if reported_distance_ratio is None else "reported_distance_ratio"
    report = {
        "scheme": scheme,
        "delta_snr_db": delta_snr_db,
        "n": exponent,
        "distance_ratio": used,
        "density_ratio": _finite_positive(
            source, f"distance ratio {used:g} gives a density ratio of", density_ratio(used)
        ),
        "formula_distance_ratio": formula_ratio,
    }
    if reported_distance_ratio is not None:
        report["reported_distance_ratio"] = reported_distance_ratio
        mismatch = abs(formula_ratio - reported_distance_ratio) / reported_distance_ratio
        report["formula_vs_reported_mismatch"] = mismatch
        if mismatch > 0.02:
            report["note"] = (
                f"distance ratio from the stated formula is {formula_ratio:.3f} "
                f"for delta_snr={delta_snr_db:g} dB and n={exponent:g}, which does "
                f"not match the reported {reported_distance_ratio:.3f}; density "
                "uses the reported ratio"
            )
    return report

