"""The estimator facade — Figure 1 of the paper.

``ModuleAreaEstimator`` ties the pieces of Fig. 1 together: the circuit
schematic (a parsed :class:`~repro.netlist.model.Module`), the
fabrication-process database, the two per-methodology estimators, and
the output record handed to the floor planner.

The paper reports per-module CPU time (< 1.5 s full-custom, < 3 s
standard-cell on a Sun 3/50); each estimate records its wall time so
the S2 benchmark can reproduce the "modest amount of computer time"
claim.  An estimate scans the module once and hands the statistics to
every methodology and to the record.  It deliberately keeps no scan
across calls, so a module's CPU time does not depend on what ran
before it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.core.config import EstimatorConfig, scan_for
from repro.core.full_custom import estimate_full_custom_both
from repro.core.results import ModuleEstimate
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import EstimationError, NetlistError
from repro.netlist.model import Module
from repro.netlist.spice import parse_spice
from repro.technology.process import ProcessDatabase


class ModuleAreaEstimator:
    """Estimate module area and aspect ratio for floor planning.

    >>> from repro.technology import nmos_process
    >>> estimator = ModuleAreaEstimator(nmos_process())
    >>> record = estimator.estimate(module)          # doctest: +SKIP
    >>> record.standard_cell.area                    # doctest: +SKIP
    """

    def __init__(
        self,
        process: ProcessDatabase,
        config: Optional[EstimatorConfig] = None,
    ):
        self.process = process
        self.config = config or EstimatorConfig()

    # ------------------------------------------------------------------
    # input interface (Fig. 1 left side)
    # ------------------------------------------------------------------
    def load_schematic(self, path: Union[str, Path]) -> Module:
        """Parse a schematic file; format chosen by extension
        (``.v``/``.sv`` -> Verilog, ``.sp``/``.spi``/``.cir``/``.ckt``
        -> SPICE, ``.blif`` -> technology-mapped BLIF).

        A Verilog file containing several modules is treated as a
        hierarchical design: it is linked and flattened from its
        (inferred) top module, so the estimator always works on one
        flat module.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise NetlistError(
                f"cannot read schematic {str(path)!r}: {exc}"
            ) from None
        suffix = path.suffix.lower()
        if suffix in (".v", ".sv", ".vh"):
            from repro.netlist.hierarchy import flatten_source
            from repro.netlist.verilog import parse_verilog_library

            modules = parse_verilog_library(text, str(path))
            if len(modules) == 1:
                return modules[0]
            return flatten_source(modules)
        if suffix in (".sp", ".spi", ".cir", ".ckt", ".spice"):
            return parse_spice(text, str(path))
        if suffix == ".blif":
            from repro.frontend.blif import parse_blif

            return parse_blif(text, str(path))
        raise EstimationError(
            f"cannot infer schematic format from extension {suffix!r} "
            "(expected a Verilog, SPICE, or BLIF extension)"
        )

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        module: Module,
        methodologies: Iterable[str] = ("standard-cell", "full-custom"),
    ) -> ModuleEstimate:
        """Estimate the module under the requested methodologies."""
        wanted = set(methodologies)
        known = {"standard-cell", "full-custom"}
        unknown = wanted - known
        if unknown:
            raise EstimationError(
                f"unknown methodologies {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        if not wanted:
            raise EstimationError("at least one methodology is required")

        start = time.perf_counter()
        stats = scan_for(module, self.process, self.config)
        standard_cell = None
        full_custom = None
        full_custom_average = None
        if "standard-cell" in wanted:
            standard_cell = estimate_standard_cell_from_stats(
                stats, self.process, self.config
            )
        if "full-custom" in wanted:
            full_custom, full_custom_average = estimate_full_custom_both(
                module, self.process, self.config, stats
            )
        elapsed = time.perf_counter() - start

        return ModuleEstimate(
            module_name=module.name,
            statistics=stats,
            process_name=self.process.name,
            standard_cell=standard_cell,
            full_custom=full_custom,
            full_custom_average=full_custom_average,
            cpu_seconds=elapsed,
        )

    def estimate_all(
        self,
        modules: Iterable[Module],
        methodologies: Iterable[str] = ("standard-cell", "full-custom"),
    ) -> List[ModuleEstimate]:
        """Estimate every module of a chip (the floor-planning use case)."""
        methodologies = tuple(methodologies)
        return [self.estimate(module, methodologies) for module in modules]
