"""The six named workloads.  Names are fixed: later issues cite them."""

from __future__ import annotations

from bench.workloads.base import Workload
from bench.workloads.fine_regions import FineRegions
from bench.workloads.irregular_claims import IrregularClaims
from bench.workloads.jgf_coarse import JgfCoarse
from bench.workloads.paper_woven import PaperWoven
from bench.workloads.service_open import ServiceOpen
from bench.workloads.socket_plane import SocketPlane

WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls
    for cls in (JgfCoarse, PaperWoven, FineRegions, IrregularClaims, SocketPlane, ServiceOpen)
}

__all__ = ["WORKLOADS", "Workload"]
