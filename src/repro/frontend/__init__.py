"""Real-netlist frontend: BLIF ingestion, Liberty libraries, synthesis.

The paper's estimator reads schematics "expressed in a standard
hardware description language"; this package opens that front door to
real synthesis output.  :mod:`repro.frontend.blif` parses technology-
mapped BLIF (what ``yosys``'s ``abc -liberty`` flow writes) onto the
same flat :class:`~repro.netlist.model.Module` every other parser
produces, so the canonical ``build_statistics`` scan path — and with
it the plan cache, backends, incremental engine, service, and
congestion model — works on ingested netlists unchanged.
:mod:`repro.frontend.liberty` reads cell names, pin directions, and
cell areas out of a Liberty ``.lib`` file into
:mod:`repro.technology` terms; :mod:`repro.frontend.yosys` drives an
optional ``yosys`` binary through the read_liberty → synth →
dfflibmap → abc → stat flow; and :mod:`repro.frontend.calibrate` fits
a per-library correction factor between the estimator and the
library-reported chip area (``mae calibrate``), committed as the
``VERIFY_frontend_envelope.json`` accuracy gate.
"""

from repro.frontend.blif import parse_blif, parse_blif_library
from repro.frontend.calibrate import (
    DEFAULT_PDN_MARGIN,
    fit_correction_factor,
    fixture_blifs,
    fixture_liberty,
    fixtures_root,
    measure_frontend_envelope,
    reference_area,
)
from repro.frontend.liberty import (
    LibertyCell,
    LibertyLibrary,
    parse_liberty,
    process_from_liberty,
    read_liberty,
)
from repro.frontend.yosys import (
    SynthesisResult,
    find_yosys,
    run_yosys_flow,
)

__all__ = [
    "DEFAULT_PDN_MARGIN",
    "LibertyCell",
    "LibertyLibrary",
    "SynthesisResult",
    "find_yosys",
    "fit_correction_factor",
    "fixture_blifs",
    "fixture_liberty",
    "fixtures_root",
    "measure_frontend_envelope",
    "parse_blif",
    "parse_blif_library",
    "parse_liberty",
    "process_from_liberty",
    "read_liberty",
    "reference_area",
    "run_yosys_flow",
]
