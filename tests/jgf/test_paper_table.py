"""The paper's Table 2: the refactorings and abstractions each benchmark uses.

The abstraction column is derived from the aspect bundle each AOmp driver
actually weaves (every aspect class carries its paper label) and checked
against the paper's row; the refactoring column is each port's ``INFO``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.aspects.worksharing import ForWorkSharing
from repro.jgf import BENCHMARKS
from repro.jgf.moldyn import STRATEGIES, build_aspects as moldyn_aspects
from repro.runtime.scheduler import Schedule

#: The paper's Table 2, transcribed verbatim: (refactorings, abstractions).
PAPER_TABLE_2 = {
    "Crypt": ("M2FOR, M2M", "PR, FOR (block)"),
    "LUFact": ("M2FOR, M2M", "PR, FOR (block), 4xBR, 2xMA"),
    "Series": ("M2FOR, M2M", "PR, FOR (block)"),
    "SOR": ("M2FOR, M2M", "PR, FOR (block), BR"),
    "Sparse": ("M2FOR, M2M", "PR, FOR (Case Specific), CS"),
    "MolDyn": ("M2FOR, 3xM2M", "PR, FOR (cyclic), 2xTLF"),
    "MonteCarlo": ("M2FOR, M2M", "PR, FOR (cyclic)"),
    "RayTracer": ("M2FOR", "PR, FOR (cyclic), TLF"),
}

#: The paper's "FOR (schedule)" entry in the labels the weaver's aspects carry.
PAPER_LOOP = {"FOR (block)": "FOR(block)", "FOR (cyclic)": "FOR(cyclic)", "FOR (Case Specific)": "CS"}

SHORT_SCHEDULE = {"static_block": "block", "static_cyclic": "cyclic", "dynamic": "dynamic", "guided": "guided"}


def label(aspect) -> "str | None":
    """The paper's abbreviation for one woven aspect; a FOR aspect names its schedule."""
    text = type(aspect).abstraction
    if isinstance(aspect, ForWorkSharing) and text == "FOR":
        return f"FOR({SHORT_SCHEDULE[Schedule.parse(aspect.loop_schedule()).value]})"
    return text


def woven_aspects(benchmark: str, num_threads: int = 4) -> list:
    module = BENCHMARKS[benchmark]
    if benchmark == "MolDyn":  # its builder takes the strategy first; Table 2 is the JGF (thread-local) one
        return list(module.build_aspects("jgf", num_threads))
    return list(module.build_aspects(num_threads))


@pytest.fixture(scope="module")
def rows() -> "dict[str, Counter]":
    return {benchmark: Counter(map(label, woven_aspects(benchmark))) for benchmark in BENCHMARKS}


def test_every_benchmark_has_a_row(rows):
    assert set(rows) == set(BENCHMARKS) == set(PAPER_TABLE_2)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_every_row_has_a_region_and_a_loop(rows, name):
    counts = rows[name]
    assert counts["PR"] == 1
    assert any(name.startswith("FOR(") for name in counts) or counts["CS"]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_the_paper_loop_schedule_is_woven(rows, name):
    (loop,) = [entry for entry in PAPER_TABLE_2[name][1].split(", ") if entry.startswith("FOR")]
    assert rows[name][PAPER_LOOP[loop]]


def test_schedules_and_counts_match_the_paper(rows):
    assert rows["Crypt"]["FOR(block)"]
    assert rows["MonteCarlo"]["FOR(cyclic)"]
    assert rows["RayTracer"]["FOR(cyclic)"]
    assert rows["Sparse"]["CS"]
    assert rows["MolDyn"]["TLF"] == 2
    assert rows["LUFact"]["BR"] == 4 and rows["LUFact"]["MA"] == 2


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_refactorings_match_the_paper(name):
    assert ", ".join(BENCHMARKS[name].INFO.refactorings) == PAPER_TABLE_2[name][0]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_every_woven_aspect_carries_a_paper_label(rows, name):
    assert None not in rows[name], f"{name} weaves an aspect class with no abstraction label"


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_the_row_does_not_depend_on_the_team_size(rows, name):
    for num_threads in (1, 2, 3, 8):
        assert Counter(map(label, woven_aspects(name, num_threads))) == rows[name], num_threads


#: How each of MolDyn's strategies (the paper's Figure 15) guards the force accumulation.
FORCE_GUARD = {"jgf": {"TLF": 2, "RED": 2}, "critical": {"CRIT": 1}, "locks": {"LOCKS": 1}}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_moldyn_strategies_differ_only_in_the_force_guard(rows, strategy):
    counts = Counter(map(label, moldyn_aspects(strategy, 4)))
    shared = rows["MolDyn"] - Counter(FORCE_GUARD["jgf"])
    assert counts == shared + Counter(FORCE_GUARD[strategy])
