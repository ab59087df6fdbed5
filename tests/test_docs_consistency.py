"""Docs stay in sync with the code.

Cheap invariants that rot silently otherwise:

* every module under ``src/repro/`` appears in ``docs/API.md`` (the
  "Module index" section exists exactly so this check is mechanical);
* every ``mae`` subcommand registered in :func:`repro.cli.build_parser`
  is mentioned in the README;
* ``docs/SERVICE.md``'s endpoint list matches the server's ``ROUTES``
  table exactly — no phantom endpoints, no undocumented ones;
* ``docs/TESTING.md``'s check table matches the verify registry
  (``repro.verify.checks.CHECKS``) the same way;
* every ``--flag`` shown next to a ``mae <subcommand>`` invocation in
  the README or ``docs/*.md`` exists on that subcommand's argparse
  parser (or the global parser).
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"


def _all_module_names():
    names = []
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative.name == "__init__.py":
            parts = relative.parent.parts
        else:
            parts = relative.with_suffix("").parts
        names.append(".".join(parts))
    return names


def _subcommand_names(parser):
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("mae parser has no subcommands")


def test_every_module_is_documented_in_api_md():
    api_text = (REPO_ROOT / "docs" / "API.md").read_text()
    modules = _all_module_names()
    assert "repro.obs" in modules  # sanity: the walk found the tree
    missing = [name for name in modules if f"`{name}`" not in api_text]
    assert not missing, (
        f"modules missing from docs/API.md: {missing} — add them to the "
        "Module index section"
    )


def test_every_cli_subcommand_is_in_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    commands = _subcommand_names(build_parser())
    assert "explain" in commands
    missing = [name for name in commands if f"mae {name}" not in readme]
    assert not missing, (
        f"mae subcommands missing from README.md: {missing}"
    )


def test_observability_doc_is_cross_linked():
    """The new subsystem doc is reachable from the entry-point docs."""
    assert (REPO_ROOT / "docs" / "OBSERVABILITY.md").exists()
    assert "OBSERVABILITY.md" in (REPO_ROOT / "README.md").read_text()
    assert "OBSERVABILITY.md" in (REPO_ROOT / "DESIGN.md").read_text()
    assert "OBSERVABILITY.md" in (REPO_ROOT / "docs" / "API.md").read_text()


def test_service_docs_are_cross_linked():
    for doc in ("SERVICE.md", "ARCHITECTURE.md"):
        assert (REPO_ROOT / "docs" / doc).exists()
        assert doc in (REPO_ROOT / "README.md").read_text()
        assert doc in (REPO_ROOT / "DESIGN.md").read_text()
        assert doc in (REPO_ROOT / "docs" / "API.md").read_text()


def test_service_md_endpoint_list_matches_routes():
    """``docs/SERVICE.md`` documents exactly the server's route table.

    Every backtick-quoted ``METHOD /path`` in the doc must be a real
    route, and every route must be documented at least once.
    """
    from repro.service.server import ROUTES

    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text()
    documented = set(
        re.findall(r"`(GET|POST|DELETE|PUT|PATCH) (/[^\s`]*)`", text)
    )
    routes = {(method, path) for method, path, _summary in ROUTES}
    assert documented == routes, (
        f"docs/SERVICE.md endpoints drifted from ROUTES — "
        f"undocumented: {sorted(routes - documented)}, "
        f"phantom: {sorted(documented - routes)}"
    )


def test_testing_md_check_table_matches_registry():
    """``docs/TESTING.md`` documents exactly the registered checks, each
    under its registered stage."""
    from repro.verify.checks import CHECKS

    text = (REPO_ROOT / "docs" / "TESTING.md").read_text()
    section = text.split("### The checks", 1)[1].split("\n### ", 1)[0]
    documented = set(
        re.findall(r"^\| `([a-z_]+)` \| ([a-z]+) \|", section, re.MULTILINE)
    )
    registered = {(check.name, check.stage) for check in CHECKS}
    assert documented == registered, (
        f"docs/TESTING.md check table drifted from CHECKS — "
        f"undocumented: {sorted(registered - documented)}, "
        f"phantom: {sorted(documented - registered)}"
    )


def _option_strings(parser):
    strings = set()
    for action in parser._actions:
        strings.update(action.option_strings)
    return strings


def test_documented_cli_flags_exist():
    """Any ``--flag`` on a documented ``mae <subcommand>`` line must be
    registered on that subcommand's parser (or globally) — catches docs
    drift when flags are renamed or removed."""
    parser = build_parser()
    subparsers = None
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action.choices
    global_flags = _option_strings(parser)
    sources = [REPO_ROOT / "README.md"]
    sources += sorted((REPO_ROOT / "docs").glob("*.md"))
    problems = []
    for path in sources:
        for line in path.read_text().splitlines():
            match = re.search(r"\bmae\s+([a-z][a-z0-9-]*)", line)
            if not match or match.group(1) not in subparsers:
                continue
            known = global_flags | _option_strings(
                subparsers[match.group(1)]
            )
            for flag in re.findall(r"--[a-z][a-z0-9-]+", line):
                if flag not in known:
                    problems.append(
                        f"{path.name}: 'mae {match.group(1)}' has no "
                        f"flag {flag}: {line.strip()!r}"
                    )
    assert not problems, "\n".join(problems)


def test_portfolio_cli_flags_are_documented():
    """The `mae floorplan` race and the bench's portfolio gates are
    user-facing knobs: the README quick-start must show the command,
    and the resume/checkpoint/gate flags must appear in the docs (the
    generic flag-existence check above then proves they are real)."""
    readme = (REPO_ROOT / "README.md").read_text()
    performance = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    assert "mae floorplan" in readme
    for flag in ("--resume", "--checkpoint", "--stop-after", "--serial"):
        assert flag in readme, f"README.md lost the {flag} quick-start"
    for flag in ("--portfolio-modules", "--assert-portfolio-speedup",
                 "--spot-checks"):
        assert flag in performance, (
            f"docs/PERFORMANCE.md lost the {flag} documentation"
        )


def test_portfolio_flags_exist_on_parsers():
    """Every documented portfolio knob is registered where the docs
    say it is: the floorplan subcommand and the bench gates."""
    parser = build_parser()
    subparsers = None
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action.choices
    floorplan = _option_strings(subparsers["floorplan"])
    for flag in ("--portfolio", "--serial", "--steps", "--seed",
                 "--design-seed", "--resume", "--checkpoint",
                 "--checkpoint-every", "--stop-after", "--row-window",
                 "--aspect-target", "--aspect-weight", "--spot-checks",
                 "--json"):
        assert flag in floorplan, f"mae floorplan lost {flag}"
    bench = _option_strings(subparsers["bench"])
    for flag in ("--portfolio-modules", "--assert-portfolio-speedup"):
        assert flag in bench, f"mae bench lost {flag}"


def test_congestion_surface_is_documented():
    """The routability-scoring surface added with the congestion model
    stays documented where users will look for it: the README
    quick-start, the oracle calibration, and the bench gate."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert "## Routability scoring" in readme
    for flag in ("--congestion", "--channel-capacity",
                 "--routability-weight"):
        assert flag in readme, f"README.md lost the {flag} quick-start"
    oracles = (REPO_ROOT / "docs" / "ORACLES.md").read_text()
    assert "congestion_oracle" in oracles
    assert "VERIFY_congestion_envelope.json" in oracles
    assert "--congestion-report" in oracles
    performance = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    assert "--assert-congestion-overhead" in performance
    assert "--routability-weight" in performance
    testing = (REPO_ROOT / "docs" / "TESTING.md").read_text()
    assert "congestion_oracle" in testing


def test_congestion_flags_exist_on_parsers():
    """Every documented congestion knob is registered where the docs
    say it is."""
    parser = build_parser()
    subparsers = None
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action.choices
    explain = _option_strings(subparsers["explain"])
    for flag in ("--congestion", "--channel-capacity"):
        assert flag in explain, f"mae explain lost {flag}"
    assert "--routability-weight" in _option_strings(
        subparsers["floorplan"]
    )
    assert "--assert-congestion-overhead" in _option_strings(
        subparsers["bench"]
    )
    verify = _option_strings(subparsers["verify"])
    for flag in ("--congestion-report", "--check"):
        assert flag in verify, f"mae verify lost {flag}"


def test_frontend_surface_is_documented():
    """The BLIF/Liberty ingestion surface stays documented where users
    will look for it: its own doc, the README quick-start, the API
    index, and the oracle/testing pages that describe its gate."""
    frontend = REPO_ROOT / "docs" / "FRONTEND.md"
    assert frontend.exists()
    frontend_text = frontend.read_text()
    for phrase in ("mae synth", "mae calibrate", "frontend_accuracy",
                   "VERIFY_frontend_envelope.json", "parse_blif",
                   "read_liberty", "pdn_margin"):
        assert phrase in frontend_text, (
            f"docs/FRONTEND.md lost its {phrase!r} coverage"
        )
    readme = (REPO_ROOT / "README.md").read_text()
    assert "FRONTEND.md" in readme
    for flag in ("--liberty", "--blif-out", "--pdn-margin", "--slack",
                 "--require"):
        assert flag in readme, f"README.md lost the {flag} quick-start"
    assert "frontend_accuracy" in readme
    api = (REPO_ROOT / "docs" / "API.md").read_text()
    assert "FRONTEND.md" in api
    assert "check_frontend_accuracy" in api
    oracles = (REPO_ROOT / "docs" / "ORACLES.md").read_text()
    assert "frontend_accuracy" in oracles
    assert "VERIFY_frontend_envelope.json" in oracles
    testing = (REPO_ROOT / "docs" / "TESTING.md").read_text()
    assert "frontend_accuracy" in testing


def test_frontend_flags_exist_on_parsers():
    """Every documented frontend knob is registered where the docs say
    it is: the synth and calibrate subcommands."""
    parser = build_parser()
    subparsers = None
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action.choices
    synth = _option_strings(subparsers["synth"])
    for flag in ("--liberty", "--top", "--blif-out", "--pdn-margin",
                 "--yosys", "--require", "--json"):
        assert flag in synth, f"mae synth lost {flag}"
    calibrate = _option_strings(subparsers["calibrate"])
    for flag in ("--fixtures", "--pdn-margin", "--slack", "--report"):
        assert flag in calibrate, f"mae calibrate lost {flag}"
