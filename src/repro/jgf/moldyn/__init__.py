"""JGF MolDyn benchmark (Lennard-Jones molecular dynamics, the paper's running example)."""

from repro.jgf.moldyn.kernel import MolDyn, fcc_particle_count
from repro.jgf.moldyn.parallel import INFO, SIZES, run_aomp, run_sequential, run_threaded
from repro.jgf.moldyn.variants import STRATEGIES, LockPerParticleAspect, build_aspects, run_variant

__all__ = [
    "MolDyn",
    "fcc_particle_count",
    "INFO",
    "SIZES",
    "STRATEGIES",
    "LockPerParticleAspect",
    "build_aspects",
    "run_variant",
    "run_aomp",
    "run_sequential",
    "run_threaded",
]
