"""Host data-cleaning systems (substrates).

Sparcle is a framework *inside* a host system: the host contributes the
final error-correction step that consumes the formulated input (§5), and —
run without Sparcle — the host *is* the experimental baseline (§6). This
package provides both, plus the in-memory Baran competitor.
"""
from repro.hostsys.baran import BaranResult, baran_clean
from repro.hostsys.corrector import argbest

__all__ = ["BaranResult", "argbest", "baran_clean"]
