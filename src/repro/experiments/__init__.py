"""Trace-calibrated cost models for the paper's performance model.

:mod:`repro.experiments.harness` turns a single-member calibration trace into
a :class:`~repro.perf.cost.CostModel`; ``bench/probes.py`` replays a parallel
trace against it (``perf.predicted_over_measured``).
"""
