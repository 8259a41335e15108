"""PyAOmpLib — a Python reproduction of *AOmpLib* (Medeiros & Sobral, ICPP 2013).

AOmpLib is an aspect library that mimics the OpenMP standard: plain sequential
code is written first, and parallelism is later *woven in* from separate
aspect modules (pointcut style) or driven by annotations placed on methods
(annotation style), preserving sequential semantics and keeping
parallelism-related code out of the base program.

Sub-packages
------------
``repro.runtime``
    The OpenMP-like execution substrate (teams, schedulers, barriers, locks,
    thread-local fields, tasks).
``repro.core``
    The paper's contribution: annotations, abstract aspects and the weaver.
``repro.perf``
    Calibrated performance model: replays a runtime trace against a cost and
    a machine model to predict a speedup.
``repro.jgf``
    A Python port of the Java Grande Forum benchmarks used in the evaluation.
``repro.experiments``
    Calibrates the performance model's cost model from a single-member trace.

Performance is measured by ``bench/`` (``python3 bench/run.py``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
