"""JGF LUFact benchmark (Linpack LU factorisation — the paper's case study)."""

from repro.jgf.lufact.kernel import Linpack
from repro.jgf.lufact.parallel import INFO, SIZES, build_aspects, run_aomp, run_sequential, run_threaded

__all__ = ["Linpack", "INFO", "SIZES", "build_aspects", "run_aomp", "run_sequential", "run_threaded"]
