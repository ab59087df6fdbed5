"""Docs stay in sync with the code.

Cheap invariants that rot silently otherwise:

* every module under ``src/repro/`` appears in ``docs/API.md`` (the
  "Module index" section exists exactly so this check is mechanical);
* every backticked dotted ``repro.`` name in the README, DESIGN.md,
  EXPERIMENTS.md and ``docs/*.md`` still resolves, so a deleted module
  or function cannot stay documented;
* every ``mae`` subcommand registered in :func:`repro.cli.build_parser`
  is mentioned in the README;
* ``docs/SERVICE.md``'s endpoint list matches the server's ``ROUTES``
  table exactly — no phantom endpoints, no undocumented ones;
* ``docs/TESTING.md``'s check table matches the verify registry
  (``repro.verify.checks.CHECKS``) the same way;
* every ``--flag`` shown next to a ``mae <subcommand>`` (or ``python -m
  repro.cli``, ``mae-bench``, ``python -m repro.perf.bench``)
  invocation in the README, ``docs/*.md``, the CI workflow or the
  verify skill notes exists on the parser that command reads.
"""

from __future__ import annotations

import argparse
import importlib
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


#: A backticked dotted ``repro.`` name, optionally followed by a call
#: such as ``(modules, process)``.
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`\n]*\))?`")


def _resolves(name):
    """Whether ``name`` imports as a module, or resolves as an attribute
    path under its longest importable prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_documented_repro_name_resolves():
    sources = [REPO_ROOT / name
               for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    sources += sorted((REPO_ROOT / "docs").glob("*.md"))
    documented = {
        (path.name, match.group(1))
        for path in sources
        for match in _DOTTED_NAME.finditer(path.read_text())
    }
    # sanity: the scan found the API reference's names
    assert ("API.md", "repro.perf.batch.estimate_batch") in documented
    stale = sorted(
        f"{doc}: {name}" for doc, name in documented if not _resolves(name)
    )
    assert not stale, f"documented names that no longer resolve: {stale}"


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


#: A documented invocation: ``mae`` or ``python -m repro.cli`` (group 1,
#: the mae parser), or one of the bench's own entry points (group 2,
#: the bench parser ``mae bench`` shares).
_COMMAND = re.compile(
    r"\b(?:(mae|python -m repro\.cli)|(mae-bench|python -m repro\.perf\.bench"
    r"|benchmarks/run_benchmarks\.py))(?![\w.-])"
)
_FLAG = re.compile(r"--[a-z][a-z0-9-]+")


def _logical_lines(path):
    """The file's lines, with each folded YAML ``run: >`` block joined
    into the one command line it runs."""
    lines = path.read_text().splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if path.suffix != ".yml" or not re.match(r"\s*(- )?run: >-?\s*$",
                                                 line):
            yield line
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        while index < len(lines) and (
            not lines[index].strip()
            or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            block.append(lines[index].strip())
            index += 1
        yield " ".join(block)


def _mae_problems(segment, global_actions, subparsers):
    """What is wrong with the flags of one ``mae ...`` invocation:
    global flags before the subcommand are checked against the global
    parser, the rest against the subcommand's parser (or globally)."""
    tokens = segment.split()
    index = 0
    while index < len(tokens) and tokens[index].startswith("--"):
        flag = _FLAG.match(tokens[index])
        action = global_actions.get(flag.group(0)) if flag else None
        if action is None:
            return [f"'mae' has no global flag {tokens[index]}"]
        takes_value = action.nargs != 0 and "=" not in tokens[index]
        index += 2 if takes_value else 1
    command = (
        re.match(r"[a-z][a-z0-9-]*", tokens[index])
        if index < len(tokens) else None
    )
    if not command or command.group(0) not in subparsers:
        return []
    name = command.group(0)
    known = set(global_actions) | _option_strings(subparsers[name])
    return [
        f"'mae {name}' has no flag {flag}"
        for flag in _FLAG.findall(" ".join(tokens[index + 1:]))
        if flag not in known
    ]


def test_documented_cli_flags_exist():
    """Any ``--flag`` on a documented ``mae`` / ``python -m repro.cli``
    line must be registered on that subcommand's parser (or globally,
    where global flags may also sit between ``mae`` and the
    subcommand); any flag on a ``mae-bench`` / ``python -m
    repro.perf.bench`` line must be on the bench parser.  Covers the
    README, ``docs/*.md``, the CI workflow (folded ``run: >`` blocks
    joined) and the verify skill notes — catches docs drift when flags
    are renamed or removed."""
    from repro.perf.bench import add_bench_arguments

    parser = build_parser()
    subparsers = None
    for action in parser._subparsers._group_actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers = action.choices
    global_actions = {
        option: action
        for action in parser._actions
        for option in action.option_strings
    }
    bench = argparse.ArgumentParser()
    add_bench_arguments(bench)
    bench_flags = _option_strings(bench)
    sources = [REPO_ROOT / "README.md"]
    sources += sorted((REPO_ROOT / "docs").glob("*.md"))
    sources += [
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    problems = []
    for path in sources:
        for line in _logical_lines(path):
            matches = list(_COMMAND.finditer(line))
            for match, following in zip(matches, matches[1:] + [None]):
                segment = line[match.end():
                               following.start() if following else None]
                if match.group(1):
                    found = _mae_problems(segment, global_actions,
                                          subparsers)
                else:
                    found = [
                        f"{match.group(2)} has no flag {flag}"
                        for flag in _FLAG.findall(segment)
                        if flag not in bench_flags
                    ]
                problems += [
                    f"{path.name}: {problem}: {line.strip()!r}"
                    for problem in found
                ]
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
