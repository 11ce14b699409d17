"""Wavelet co-jump detection and noise-robust integrated covariance.

Subpackage map:

- modwt: reference wavelet transform and filter pairs that the closed forms
  in jumps and jwc are tested against
- jumps: universal-threshold jump detection on the Haar level-1 coefficient
  r_i / 2, and jump adjustment
- jwc: jump wavelet covariance estimator, as the two-scale realized covariance
- sim: correlated diffusion-with-jumps panel simulator
- bootstrap: wild bootstrap discontinuity test
- spec: numpy-free run settings, input errors, and the output table layout
- ticks: tick ingestion, grid sampling, and return panel construction
- events: reads decompose's tables into summaries, regressions, and event tables
- pipeline: per-day orchestration and day-pair labels, from panels to report tables
- cli: command-line entry point
"""

__version__ = "0.1.0"
