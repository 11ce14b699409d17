"""Wavelet co-jump detection and noise-robust integrated covariance.

Subpackage map:

- modwt: undecimated wavelet transform engine and shipped filter pairs
- jumps: universal-threshold jump detection and jump adjustment
- jwc: jump wavelet covariance estimator, as the two-scale realized covariance
- sim: correlated diffusion-with-jumps panel simulator
- bootstrap: wild bootstrap discontinuity test and day classification
- ticks: tick ingestion, grid sampling, and return panel construction
- events: decomposition summaries, regressions, and event tables
- pipeline: per-day orchestration from panels to report tables
- cli: command-line entry point
"""

__version__ = "0.1.0"
