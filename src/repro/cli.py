"""The ``mae`` command-line tool.

Subcommands mirror the deliverables:

* ``mae estimate <schematic>`` — estimate one module (the paper's core
  use case: schematic + process database -> area and aspect ratio).
* ``mae scan <schematic>`` — print the statistics the estimator
  consumes (N, H, W_avg, net-size histogram).
* ``mae explain <module>`` — per-net breakdown of an estimate: every
  Eq. 2-3 track expectation and Eq. 4-11 feed-through term, reassembled
  into the final Eq. 12/13 area (see docs/OBSERVABILITY.md).
* ``mae process list|show|export`` — inspect the shipped process
  databases.
* ``mae table1 | table2 | central-row | pipeline | iterations |
  runtime | ablation | pla`` — regenerate the paper's tables, figure,
  and the extension experiments.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.config import EstimatorConfig, scan_for
from repro.core.estimator import ModuleAreaEstimator
from repro.errors import ReproError
from repro.technology.libraries import builtin_processes
from repro.technology.loader import save_process_file
from repro.units import format_area


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        from repro.perf.backends import backend_from_environment, use_backend

        # Resolve --backend / $MAE_BACKEND once, up front: every
        # estimator call in the command inherits the selection, and the
        # previous default returns with the command (an in-process
        # caller keeps its own).  An explicitly named but unavailable
        # backend fails here with a clean error.
        requested = getattr(args, "backend", None)
        with use_backend(requested or backend_from_environment()):
            args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; exit
        # quietly like other Unix filters (stdout is already dead, so
        # suppress the interpreter's flush-on-exit complaint too).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mae",
        description="Module Area Estimator for VLSI layout "
                    "(Chen & Bushnell, DAC 1988 reproduction)",
    )
    from repro.perf.backends import BACKEND_CHOICES

    parser.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=None,
        help="kernel evaluation backend: 'exact' (reference scalar "
             "kernels, the default), 'numpy' (vectorized float64, "
             "requires the [perf] extra), or 'auto' (numpy when "
             "available, else exact; $MAE_BACKEND sets a default)",
    )
    sub = parser.add_subparsers(title="commands")

    estimate = sub.add_parser(
        "estimate", help="estimate area/aspect of a schematic file"
    )
    estimate.add_argument("schematic", help="Verilog (.v) or SPICE (.sp) file")
    _add_process_argument(estimate)
    estimate.add_argument(
        "--methodology", choices=("standard-cell", "full-custom", "both"),
        default="both",
    )
    estimate.add_argument("--rows", type=int, default=None,
                          help="fix the standard-cell row count")
    estimate.add_argument("--output", default=None,
                          help="write the estimate database to this JSON file")
    estimate.add_argument(
        "--track-model", choices=("upper-bound", "shared"),
        default="upper-bound",
        help="'shared' uses the analytic track-sharing model "
             "(paper Section 7 future work)",
    )
    estimate.add_argument(
        "--aspects", type=int, default=0, metavar="N",
        help="also print N aspect-ratio candidates per methodology "
             "(paper Section 7 future work)",
    )
    estimate.set_defaults(handler=_cmd_estimate)

    layout = sub.add_parser(
        "layout", help="run the real layout oracle on a schematic"
    )
    layout.add_argument("schematic")
    _add_process_argument(layout)
    layout.add_argument("--rows", type=int, default=None,
                        help="standard-cell rows (gate-level input only)")
    layout.add_argument("--seed", type=int, default=0)
    layout.add_argument("--svg", default=None,
                        help="write the layout drawing to this SVG file")
    layout.set_defaults(handler=_cmd_layout)

    compare = sub.add_parser(
        "compare",
        help="compare all three methodologies for a gate-level schematic",
    )
    compare.add_argument("schematic")
    _add_process_argument(compare)
    compare.set_defaults(handler=_cmd_compare)

    flatten_cmd = sub.add_parser(
        "flatten", help="flatten a hierarchical Verilog library"
    )
    flatten_cmd.add_argument("schematic", help="multi-module Verilog file")
    flatten_cmd.add_argument("--top", default=None,
                             help="top module (default: inferred)")
    flatten_cmd.add_argument("--output", default=None,
                             help="write flat Verilog here (default: stdout)")
    flatten_cmd.set_defaults(handler=_cmd_flatten)

    scan = sub.add_parser("scan", help="print estimator input statistics")
    scan.add_argument("schematic")
    _add_process_argument(scan)
    scan.add_argument(
        "--metrics", action="store_true",
        help="also print fanout profile and a Rent-exponent estimate",
    )
    scan.set_defaults(handler=_cmd_scan)

    explain = sub.add_parser(
        "explain",
        help="print the per-net Eq. 2-11 terms behind an estimate",
    )
    explain.add_argument(
        "module",
        help="schematic file, or a suite module name (t1_full_adder, "
             "t2_datapath, ...)",
    )
    _add_process_argument(explain)
    explain.add_argument(
        "--methodology", choices=("standard-cell", "full-custom"),
        default="standard-cell",
    )
    explain.add_argument("--rows", type=int, default=None,
                         help="fix the standard-cell row count")
    explain.add_argument(
        "--congestion", action="store_true",
        help="print the per-channel track-demand distribution and "
             "routability score instead of the per-net terms "
             "(standard-cell only)",
    )
    explain.add_argument(
        "--channel-capacity", type=int, default=None, metavar="T",
        help="override the channel track capacity for --congestion "
             "(default: the process database's value, else the model "
             "default)",
    )
    explain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also record the estimation spans/metrics to this JSONL file",
    )
    explain.set_defaults(handler=_cmd_explain)

    process = sub.add_parser("process", help="process database utilities")
    process_sub = process.add_subparsers(title="actions")
    p_list = process_sub.add_parser("list", help="list shipped processes")
    p_list.set_defaults(handler=_cmd_process_list)
    p_show = process_sub.add_parser("show", help="describe one process")
    _add_process_argument(p_show)
    p_show.set_defaults(handler=_cmd_process_show)
    p_export = process_sub.add_parser("export", help="export to JSON")
    _add_process_argument(p_export)
    p_export.add_argument("output")
    p_export.set_defaults(handler=_cmd_process_export)

    for name, help_text, handler in (
        ("table1", "regenerate Table 1 (full-custom)", _cmd_table1),
        ("table2", "regenerate Table 2 (standard-cell)", _cmd_table2),
        ("central-row", "run the S1 central-row sweep", _cmd_central_row),
        ("pipeline", "run the Fig. 1 pipeline (F1)", _cmd_pipeline),
        ("iterations", "run the C2 iteration comparison", _cmd_iterations),
        ("runtime", "run the S2 runtime measurement", _cmd_runtime),
        ("pla", "run the P1 PLA linearity check", _cmd_pla),
        ("scaling", "run the size-scaling study", _cmd_scaling),
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        if name == "runtime":
            command.add_argument(
                "--trace", default=None, metavar="FILE",
                help="record the estimation spans/metrics to this "
                     "JSONL file (docs/OBSERVABILITY.md)",
            )

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument(
        "which", choices=("sharing", "rows", "oracle"),
        help="sharing = A1 track sharing; rows = A3 row sweep; "
             "oracle = oracle-quality study",
    )
    ablation.set_defaults(handler=_cmd_ablation)

    from repro.perf.bench import add_bench_arguments, run_bench_command

    bench = sub.add_parser(
        "bench",
        help="run the batch-engine perf benchmark and write BENCH_*.json",
    )
    add_bench_arguments(bench)
    bench.set_defaults(handler=run_bench_command)

    floorplan = sub.add_parser(
        "floorplan",
        help="race the portfolio optimizer over a multi-module design "
             "(docs/PERFORMANCE.md)",
    )
    floorplan.add_argument(
        "design",
        help="an integer N (the seeded N-module hierarchical workload) "
             "or a Verilog library file",
    )
    _add_process_argument(floorplan)
    floorplan.add_argument(
        "--portfolio", default=None, metavar="CSV",
        help="comma-separated searcher subset "
             "(default: annealing,greedy,mixed)",
    )
    floorplan.add_argument(
        "--serial", action="store_true",
        help="run the serial rescan-per-query baseline engine instead "
             "of the compiled portfolio engine (same trajectory, "
             "bench's before-picture)",
    )
    floorplan.add_argument("--steps", type=int, default=None,
                           help="moves per searcher (default: scaled "
                                "to the design size)")
    floorplan.add_argument("--seed", type=int, default=0,
                           help="trajectory seed (default 0); same "
                                "seed, same run, bit for bit")
    floorplan.add_argument("--design-seed", type=int, default=None,
                           metavar="S",
                           help="seed for the generated workload "
                                "(default: --seed)")
    floorplan.add_argument("--resume", default=None, metavar="FILE",
                           help="resume from this checkpoint file "
                                "(validated wholesale before any state "
                                "is touched)")
    floorplan.add_argument("--checkpoint", default=None, metavar="FILE",
                           help="write an atomic checkpoint here every "
                                "--checkpoint-every steps per searcher")
    floorplan.add_argument("--checkpoint-every", type=int, default=200,
                           metavar="N",
                           help="steps per searcher between checkpoints")
    floorplan.add_argument("--stop-after", type=int, default=None,
                           metavar="N",
                           help="halt every searcher at step N without "
                                "changing the run's identity (resume "
                                "continues to --steps bit-identically)")
    floorplan.add_argument("--row-window", type=int, default=2,
                           help="row-count search radius per move")
    floorplan.add_argument("--aspect-target", type=float, default=1.0,
                           help="design-level target aspect ratio")
    floorplan.add_argument("--aspect-weight", type=float, default=0.25,
                           help="aspect-penalty weight in the objective")
    floorplan.add_argument("--routability-weight", type=float, default=0.0,
                           help="congestion-risk weight in the objective: "
                                "each move's cost is scaled by 1 + W * "
                                "(1 - routability) (default 0.0, which "
                                "keeps the unscored arithmetic bit for "
                                "bit)")
    floorplan.add_argument("--spot-checks", type=int, default=8,
                           metavar="K",
                           help="exact-backend recomputations of table "
                                "entries after the race (0 disables)")
    floorplan.add_argument("--json", default=None, metavar="FILE",
                           help="write the full result record as JSON")
    floorplan.set_defaults(handler=_cmd_floorplan)

    serve = sub.add_parser(
        "serve",
        help="run the estimation service: HTTP+JSON sessions over the "
             "shared engine facade (docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; use "
                            "0.0.0.0 behind a trusted proxy only — "
                            "there is no auth layer)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default: 8750; 0 picks an "
                            "ephemeral port and prints it)")
    serve.add_argument("--max-sessions", type=int, default=64, metavar="N",
                       help="open-session limit; exceeding it answers "
                            "409 (default: 64)")
    serve.add_argument("--queue-limit", type=int, default=256, metavar="N",
                       help="most requests waiting for the engine "
                            "lock; one more answers 429 (default: 256)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="default per-request seconds before a "
                            "waiting request is abandoned with 504 "
                            "(default: 30; bodies may override)")
    serve.add_argument("--max-inflight", type=int, default=128, metavar="N",
                       help="concurrently handled HTTP requests before "
                            "the server answers 429 (default: 128)")
    serve.set_defaults(handler=_cmd_serve)

    eco = sub.add_parser(
        "eco",
        help="apply an ECO edit sequence and re-estimate incrementally "
             "(O(affected nets) per edit, verified against a rescan)",
    )
    eco.add_argument(
        "module",
        help="schematic file, or a suite module name (t1_full_adder, "
             "t2_datapath, ...)",
    )
    eco.add_argument("--edits", required=True, metavar="FILE",
                     help="JSON edit sequence (see docs/TESTING.md for "
                          "the format)")
    eco.add_argument("--sample", type=int, default=None, metavar="N",
                     help="instead of reading --edits, generate N random "
                          "valid edits (--seed) and write them to FILE "
                          "before applying")
    eco.add_argument("--seed", type=int, default=0,
                     help="seed for --sample (default: 0)")
    eco.add_argument("--rows", type=int, default=None,
                     help="fix the standard-cell row count")
    eco.add_argument("--step", action="store_true",
                     help="print the estimate after every edit, not just "
                          "the final one")
    eco.add_argument("--no-verify", action="store_true",
                     help="skip the final bit-identity check against a "
                          "from-scratch rescan")
    _add_process_argument(eco)
    eco.set_defaults(handler=_cmd_eco)

    verify = sub.add_parser(
        "verify",
        help="differential verification: estimator vs layout oracles "
             "over a seeded corpus, plus bit-identity invariants",
    )
    verify.add_argument("--seeds", type=int, default=25, metavar="N",
                        help="number of corpus cases to draw (default: 25)")
    verify.add_argument("--base-seed", type=int, default=0, metavar="S",
                        help="corpus base seed (default: 0); the whole "
                             "sweep is deterministic in this value")
    verify.add_argument("--report", default=None, metavar="FILE",
                        help="write the drift-gate report JSON "
                             "(e.g. VERIFY_envelope.json)")
    verify.add_argument("--records", default=None, metavar="FILE",
                        help="persist failing cases as replayable seed "
                             "records (default: VERIFY_failures.json, "
                             "written only when failures occur)")
    verify.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run the seed records in FILE instead of "
                             "drawing a fresh corpus")
    verify.add_argument("--skip-envelope", action="store_true",
                        help="invariants and metamorphic checks only "
                             "(no layout oracles; the fast CI smoke mode)")
    verify.add_argument("--check", action="append", dest="checks",
                        default=None, metavar="NAME", type=_check_name,
                        help="run only this check (repeatable), e.g. "
                             "--check incremental_equivalence; a named "
                             "check runs even under --skip-envelope")
    verify.add_argument("--inject", type=float, default=None, metavar="X",
                        help="self-test: scale the Eq. 12 assembly "
                             "every standard-cell estimate runs AND the "
                             "numpy backend's track kernel by X, and "
                             "require plan_vs_direct (and, with numpy, "
                             "backend_equivalence) to catch them")
    verify.add_argument("--backend-report", default=None, metavar="FILE",
                        help="write the numpy-vs-exact float error "
                             "envelope backend_equivalence measured "
                             "(VERIFY_backend_envelope.json format) to "
                             "FILE")
    verify.add_argument("--congestion-report", default=None, metavar="FILE",
                        help="write the predicted-vs-routed channel "
                             "demand envelope congestion_oracle measured "
                             "(VERIFY_congestion_envelope.json format) "
                             "to FILE")
    verify.set_defaults(handler=_cmd_verify)

    synth = sub.add_parser(
        "synth",
        help="synthesize RTL with an optional yosys binary "
             "(read_liberty -> synth -> dfflibmap -> abc -> stat) and "
             "record the reported chip area; skips gracefully when no "
             "yosys exists",
    )
    synth.add_argument("verilog", help="RTL Verilog source file")
    synth.add_argument("--liberty", required=True, metavar="LIB",
                       help="Liberty cell library to map against")
    synth.add_argument("--top", default=None, metavar="NAME",
                       help="top module (default: yosys -auto-top)")
    synth.add_argument("--blif-out", default=None, metavar="FILE",
                       help="also write the mapped netlist as BLIF "
                            "(ready for mae estimate / mae calibrate)")
    synth.add_argument("--pdn-margin", type=float, default=None,
                       metavar="X",
                       help="report the chip area scaled by a power-"
                            "grid/overhead margin as well (e.g. 1.4)")
    synth.add_argument("--yosys", default=None, metavar="BIN",
                       help="yosys binary to use (default: $MAE_YOSYS "
                            "or PATH lookup)")
    synth.add_argument("--require", action="store_true",
                       help="fail instead of skipping when no yosys "
                            "binary is found (the nightly CI mode)")
    synth.add_argument("--json", default=None, metavar="FILE",
                       help="write the synthesis record as JSON")
    synth.set_defaults(handler=_cmd_synth)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit the per-library correction factor between the "
             "estimator and Liberty cell areas over the golden "
             "frontend fixtures, and write the committed accuracy "
             "envelope (VERIFY_frontend_envelope.json)",
    )
    calibrate.add_argument("--fixtures", default=None, metavar="DIR",
                           help="fixture directory holding *.blif and "
                                "one *.lib (default: the committed "
                                "tests/fixtures/frontend)")
    calibrate.add_argument("--pdn-margin", type=float, default=None,
                           metavar="X",
                           help="power-grid/overhead margin applied to "
                                "the Liberty reference areas "
                                "(default: 1.4)")
    calibrate.add_argument("--slack", type=float, default=None,
                           metavar="X",
                           help="absolute residual slack added around "
                                "the measured band (default: 0.05)")
    calibrate.add_argument("--report", default=None, metavar="FILE",
                           help="where to write the envelope artifact "
                                "(default: VERIFY_frontend_envelope"
                                ".json at the repo root)")
    calibrate.set_defaults(handler=_cmd_calibrate)

    return parser


def _add_process_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tech", choices=sorted(builtin_processes()), default="nmos",
        help="fabrication process database (default: nmos)",
    )


def _resolve_process(args):
    return builtin_processes()[args.tech]()


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------
def _cmd_estimate(args) -> None:
    process = _resolve_process(args)
    config = EstimatorConfig(
        rows=args.rows,
        track_model=getattr(args, "track_model", "upper-bound"),
    )
    estimator = ModuleAreaEstimator(process, config)
    module = estimator.load_schematic(args.schematic)
    methodologies = (
        ("standard-cell", "full-custom")
        if args.methodology == "both"
        else (args.methodology,)
    )
    record = estimator.estimate(module, methodologies)

    print(f"module {module.name}: {record.statistics.describe()}")
    if record.standard_cell is not None:
        sc = record.standard_cell
        print(
            f"standard-cell: {format_area(sc.area, process.lambda_um)}, "
            f"{sc.rows} rows, {sc.tracks} tracks, "
            f"{sc.feedthroughs} feed-throughs, "
            f"{sc.width:.0f} x {sc.height:.0f} lambda "
            f"(aspect {sc.aspect_ratio:.2f})"
        )
    if record.full_custom is not None:
        fc = record.full_custom
        print(
            f"full-custom (exact areas): "
            f"{format_area(fc.area, process.lambda_um)}, "
            f"{fc.width:.0f} x {fc.height:.0f} lambda "
            f"(aspect {fc.aspect_ratio:.2f})"
        )
    if record.full_custom_average is not None:
        fca = record.full_custom_average
        print(
            f"full-custom (average areas): "
            f"{format_area(fca.area, process.lambda_um)}"
        )
    print(f"recommended methodology: {record.best_methodology()}")
    if getattr(args, "aspects", 0):
        from repro.core.candidates import candidate_shapes

        print(f"\naspect-ratio candidates (Section 7 extension):")
        for label, width, height in candidate_shapes(
            module, process, config, count=args.aspects
        ):
            print(f"  {label:12s} {width:8.0f} x {height:8.0f} lambda "
                  f"(aspect {width / height:.2f})")
    if args.output:
        from repro.iodb.database import EstimateDatabase

        database = EstimateDatabase(process.name)
        database.add(record)
        database.save(args.output)
        print(f"estimate database written to {args.output}")


def _cmd_layout(args) -> None:
    from repro.layout.full_custom_flow import layout_full_custom
    from repro.layout.standard_cell_flow import layout_standard_cell
    from repro.technology.process import DeviceKind
    from repro.viz import full_custom_to_svg, placement_to_svg

    process = _resolve_process(args)
    estimator = ModuleAreaEstimator(process)
    module = estimator.load_schematic(args.schematic)

    kinds = {process.device_kind(d) for d in module.devices}
    svg_text = None
    if kinds <= {DeviceKind.TRANSISTOR, DeviceKind.PASSIVE}:
        layout = layout_full_custom(module, process, seed=args.seed)
        print(
            f"full-custom layout of {module.name}: "
            f"{layout.width:.0f} x {layout.height:.0f} lambda, "
            f"area {format_area(layout.area, process.lambda_um)}, "
            f"packing efficiency {layout.packing_efficiency:.0%}"
        )
        svg_text = full_custom_to_svg(layout)
    else:
        rows = args.rows
        if rows is None:
            from repro.core.standard_cell import estimate_standard_cell

            rows = estimate_standard_cell(module, process).rows
        layout = layout_standard_cell(
            module, process, rows=rows, seed=args.seed,
            keep_placement=bool(args.svg),
        )
        print(
            f"standard-cell layout of {module.name}: {rows} rows, "
            f"{layout.tracks} tracks, {layout.feedthroughs} feed-throughs, "
            f"{layout.width:.0f} x {layout.height:.0f} lambda, "
            f"area {format_area(layout.area, process.lambda_um)}"
        )
        if args.svg:
            svg_text = placement_to_svg(layout.placement)
    if args.svg and svg_text is not None:
        from pathlib import Path

        Path(args.svg).write_text(svg_text)
        print(f"drawing written to {args.svg}")


def _cmd_compare(args) -> None:
    from repro.core.gate_array import compare_methodologies

    process = _resolve_process(args)
    estimator = ModuleAreaEstimator(process)
    module = estimator.load_schematic(args.schematic)
    areas = compare_methodologies(module, process)
    print(f"module {module.name} under {process.name}:")
    for methodology, area in sorted(areas.items(), key=lambda kv: kv[1]):
        print(f"  {methodology:14s} {format_area(area, process.lambda_um)}")
    winner = min(areas, key=areas.get)
    print(f"smallest: {winner}")
    if "full-custom" not in areas:
        print("(full-custom skipped: some cells have no transistor "
              "expansion)")


def _cmd_flatten(args) -> None:
    from pathlib import Path

    from repro.netlist.hierarchy import build_library, flatten, _infer_top
    from repro.netlist.verilog import parse_verilog_library
    from repro.netlist.writers import write_verilog

    text = Path(args.schematic).read_text()
    library = build_library(parse_verilog_library(text, args.schematic))
    top = args.top or _infer_top(library)
    # "__" keeps the flattened names valid Verilog identifiers.
    flat = flatten(library, top, separator="__")
    output = write_verilog(flat)
    if args.output:
        Path(args.output).write_text(output)
        print(f"flat module {flat.name} ({flat.device_count} devices) "
              f"written to {args.output}")
    else:
        print(output, end="")


def _cmd_scan(args) -> None:
    process = _resolve_process(args)
    estimator = ModuleAreaEstimator(process)
    module = estimator.load_schematic(args.schematic)
    stats = scan_for(module, process)
    print(stats.describe())
    print("width histogram (W_i, X_i):", list(stats.width_histogram))
    print("net sizes (D, y_D):", list(stats.net_size_histogram))
    if getattr(args, "metrics", False):
        from repro.errors import NetlistError
        from repro.netlist.metrics import (
            average_pins_per_device,
            fanout_profile,
            rent_exponent,
        )

        profile = fanout_profile(module)
        print(f"fanout: mean {profile.mean:.2f}, max {profile.maximum}, "
              f"{profile.two_point_fraction:.0%} two-point nets")
        print(f"average pins per device: "
              f"{average_pins_per_device(module):.2f}")
        try:
            rent = rent_exponent(module)
            print(f"Rent exponent: p = {rent.exponent:.2f} "
                  f"(k = {rent.coefficient:.1f}, "
                  f"{rent.sample_count} blocks)")
        except NetlistError as exc:
            print(f"Rent exponent: unavailable ({exc})")


def _cmd_explain(args) -> None:
    # Imported lazily: repro.obs.explain pulls in the whole estimator
    # stack, which the lightweight subcommands never need.
    from repro.obs.explain import (
        explain_full_custom,
        explain_standard_cell,
        format_congestion_explanation,
        format_full_custom_explanation,
        format_standard_cell_explanation,
        resolve_module,
    )
    from repro.obs.jsonl import write_trace
    from repro.obs.trace import Tracer, use_tracer

    process = _resolve_process(args)
    config = EstimatorConfig(rows=args.rows)
    module = resolve_module(args.module, process)

    if args.congestion and args.methodology != "standard-cell":
        raise ReproError(
            "--congestion needs the standard-cell methodology: the "
            "full-custom flow has no routing channels"
        )

    tracer = Tracer() if args.trace else None

    def run():
        if args.congestion:
            from repro.congestion.model import congestion_report

            return format_congestion_explanation(
                congestion_report(
                    module, process, rows=args.rows, config=config,
                    capacity=args.channel_capacity,
                )
            )
        if args.methodology == "standard-cell":
            return format_standard_cell_explanation(
                explain_standard_cell(module, process, config)
            )
        return format_full_custom_explanation(
            explain_full_custom(module, process, config)
        )

    if tracer is None:
        print(run())
    else:
        with use_tracer(tracer):
            with tracer.span("explain") as span:
                span.set("module", module.name)
                span.set("methodology", args.methodology)
                report = run()
        print(report)
        write_trace(tracer, args.trace)
        print(f"trace written to {args.trace}")


def _cmd_process_list(args) -> None:
    del args
    for name, factory in sorted(builtin_processes().items()):
        process = factory()
        print(f"{name}: {process.name} - {process.description}")


def _cmd_process_show(args) -> None:
    process = _resolve_process(args)
    print(f"{process.name} (lambda = {process.lambda_um} um)")
    print(f"  row height:        {process.row_height} lambda")
    print(f"  feed-through width: {process.feedthrough_width} lambda")
    print(f"  track pitch:       {process.track_pitch} lambda")
    print(f"  port pitch:        {process.port_pitch} lambda")
    print(f"  device types ({len(process.device_types)}):")
    for device_type in sorted(process.device_types, key=lambda d: d.name):
        print(
            f"    {device_type.name:12s} {device_type.width:6.1f} x "
            f"{device_type.height:5.1f} lambda  [{device_type.kind.value}]"
        )


def _cmd_process_export(args) -> None:
    process = _resolve_process(args)
    path = save_process_file(process, args.output)
    print(f"process {process.name} written to {path}")


def _cmd_table1(args) -> None:
    from repro.experiments.table1 import format_table1, run_table1

    print(format_table1(run_table1()))


def _cmd_table2(args) -> None:
    from repro.experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2()))


def _cmd_central_row(args) -> None:
    del args
    from repro.experiments.central_row import (
        format_central_row,
        run_central_row_experiment,
    )

    print(format_central_row(run_central_row_experiment()))


def _cmd_pipeline(args) -> None:
    del args
    from repro.experiments.pipeline import (
        format_pipeline,
        run_pipeline_experiment,
    )

    print(format_pipeline(run_pipeline_experiment()))


def _cmd_iterations(args) -> None:
    del args
    from repro.experiments.iterations import (
        format_iterations,
        run_iteration_experiment,
    )

    print(format_iterations(run_iteration_experiment()))


def _cmd_runtime(args) -> None:
    from repro.experiments.runtime import format_runtime, run_runtime_experiment

    trace_path = getattr(args, "trace", None)
    print(format_runtime(run_runtime_experiment(trace_path=trace_path)))
    if trace_path:
        print(f"trace written to {trace_path}")


def _cmd_pla(args) -> None:
    del args
    from repro.experiments.pla_linearity import (
        format_pla_linearity,
        run_pla_linearity,
    )

    observations, coefficients, r_squared = run_pla_linearity()
    print(format_pla_linearity(observations, coefficients, r_squared))


def _cmd_scaling(args) -> None:
    del args
    from repro.experiments.scaling import (
        format_scaling,
        run_scaling_experiment,
    )

    print(format_scaling(run_scaling_experiment()))


def _cmd_ablation(args) -> None:
    from repro.experiments import ablations

    if args.which == "sharing":
        print(ablations.format_track_sharing(
            ablations.run_track_sharing_ablation()
        ))
    elif args.which == "rows":
        print(ablations.format_row_sweep(ablations.run_row_sweep()))
    else:
        print(ablations.format_oracle_quality(
            ablations.run_oracle_quality_ablation()
        ))


def _cmd_floorplan(args) -> None:
    import json as json_module

    from repro.floorplan.portfolio import (
        SEARCHERS,
        PortfolioConfig,
        load_checkpoint,
        run_portfolio,
    )
    from repro.netlist.verilog import parse_verilog_library
    from repro.workloads.designs import design_from_modules, generate_design

    process = _resolve_process(args)
    if args.design.isdigit():
        design_seed = (
            args.design_seed if args.design_seed is not None else args.seed
        )
        design = generate_design(int(args.design), seed=design_seed)
    else:
        with open(args.design, "r", encoding="utf-8") as handle:
            text = handle.read()
        design = design_from_modules(
            parse_verilog_library(text, filename=args.design)
        )
    searchers = tuple(
        entry.strip()
        for entry in (args.portfolio or ",".join(SEARCHERS)).split(",")
        if entry.strip()
    )
    steps = args.steps or max(100, min(2 * design.module_count, 1200))
    config = PortfolioConfig(
        steps=steps,
        seed=args.seed,
        searchers=searchers,
        aspect_target=args.aspect_target,
        aspect_weight=args.aspect_weight,
        routability_weight=args.routability_weight,
        row_window=args.row_window,
        checkpoint_every=args.checkpoint_every,
        spot_checks=args.spot_checks,
    )
    resume = load_checkpoint(args.resume) if args.resume else None
    result = run_portfolio(
        design,
        process,
        config,
        engine="serial" if args.serial else "portfolio",
        resume=resume,
        checkpoint_path=args.checkpoint,
        stop_after=args.stop_after,
    )

    print(
        f"{result.engine} race over {result.module_count} modules of "
        f"{result.design_name!r}: {result.steps} steps x "
        f"{len(result.searchers)} searchers in {result.elapsed:.2f}s "
        f"({result.modules_per_sec:.0f} module-moves/sec)"
    )
    for name in sorted(result.searchers):
        summary = result.searchers[name]
        marker = " <- winner" if name == result.winner else ""
        print(
            f"  {name:10s} best cost {summary['best_cost']:.4g} at step "
            f"{summary['best_step']}, {summary['accepts']}/"
            f"{summary['moves']} accepts, {summary['wall_time']:.2f}s"
            f"{marker}"
        )
    chip = result.chip
    print(
        f"chip: {chip['width']:.0f} x {chip['height']:.0f} lambda, "
        f"utilization {chip['utilization']:.0%}, "
        f"global HPWL {chip['hpwl']:.0f} lambda"
    )
    if result.spot_checks:
        print(f"exact-backend spot checks passed: {result.spot_checks}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"result record written to {args.json}")


def _cmd_serve(args) -> None:
    from repro.service.engine import EstimationEngine, ServiceConfig
    from repro.service.server import MAEServer, ROUTES

    engine = EstimationEngine(ServiceConfig(
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
    ))
    server = MAEServer(
        engine, host=args.host, port=args.port,
        max_inflight=args.max_inflight,
    )
    print(f"mae serve listening on {server.base_url}")
    for method, path, summary in ROUTES:
        print(f"  {method:6s} {path:24s} {summary}")
    print("Ctrl-C drains in-flight work and stops.")
    try:
        server.run_forever()
    except KeyboardInterrupt:
        print("\ndraining...")
        server.stop(drain=True)
    print("mae serve stopped")


def _cmd_eco(args) -> None:
    import dataclasses

    from repro.core.standard_cell import estimate_standard_cell_from_stats
    from repro.errors import VerificationError
    from repro.incremental import (
        IncrementalEstimator,
        edit_distance,
        generate_edit_sequence,
        load_mutations,
        save_mutations,
    )
    from repro.obs.explain import resolve_module

    process = _resolve_process(args)
    config = EstimatorConfig(rows=args.rows)
    module = resolve_module(args.module, process)

    if args.sample is not None:
        mutations = generate_edit_sequence(
            module, args.sample, seed=args.seed,
            power_nets=config.power_nets,
        )
        save_mutations(args.edits, mutations)
        print(f"{len(mutations)} random edit(s) written to {args.edits}")
    else:
        mutations = load_mutations(args.edits)

    engine = IncrementalEstimator(module, process, config)
    before = engine.estimate()
    print(
        f"module {module.name} before ECO: {before.rows} rows, "
        f"{before.tracks} tracks, "
        f"{format_area(before.area, process.lambda_um)}"
    )
    if args.step:
        for index, mutation in enumerate(mutations):
            estimate = engine.estimate_after(mutation)
            print(
                f"  [{index + 1:3d}] {mutation.kind:13s} -> "
                f"{estimate.rows} rows, {estimate.tracks} tracks, "
                f"area {estimate.area:.0f} lambda^2"
            )
        after = engine.estimate()
    else:
        after = engine.estimate_after(mutations)

    census = ", ".join(
        f"{count} {kind}" for kind, count in
        sorted(edit_distance(mutations).items())
    )
    print(f"applied {len(mutations)} edit(s): {census or 'none'}")
    stats = engine.statistics()
    print(
        f"module {module.name} after ECO (revision "
        f"{engine.stats_version}): {stats.device_count} devices, "
        f"{stats.net_count} nets; {after.rows} rows, {after.tracks} "
        f"tracks, {format_area(after.area, process.lambda_um)}"
    )
    delta = after.area - before.area
    print(f"area delta: {delta:+.0f} lambda^2 "
          f"({delta / before.area:+.1%})")

    if not args.no_verify:
        fresh = engine.rescan()
        rebuilt = estimate_standard_cell_from_stats(fresh, process, config)
        if (engine.statistics() != fresh
                or dataclasses.astuple(after) !=
                dataclasses.astuple(rebuilt)):
            raise VerificationError(
                "incremental estimate diverges from a from-scratch "
                "rescan of the edited netlist"
            )
        print("verified: incremental result is bit-identical to a "
              "from-scratch rescan")


def _check_name(value: str) -> str:
    """``--check`` argument type: a registered check name (an unknown
    one is an argparse usage error)."""
    from repro.errors import VerificationError
    from repro.verify import check_named

    try:
        check_named(value)
    except VerificationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _describe_envelope(record) -> List[str]:
    """One line per methodology with cases: each bounded field's
    observed range against its band, then the violation count."""
    lines = []
    for methodology, bands in record.bounds.items():
        entry = record.summary[methodology]
        if not entry["cases"]:
            continue
        ranges = [
            f"{field} {_figure(entry[field]['min'])}.."
            f"{_figure(entry[field]['max'])} (bounds {_figure(low)}.."
            f"{_figure(high)})"
            for field, (low, high) in bands.items()
        ]
        lines.append(
            f"{record.kind}[{methodology}]: {entry['cases']} cases, "
            + ", ".join(ranges)
            + f", {entry['violations']} violation(s)"
        )
    return lines


def _figure(value) -> str:
    return f"{value:+.3g}" if isinstance(value, float) else repr(value)


def _cmd_verify(args) -> None:
    from contextlib import ExitStack

    from repro.errors import VerificationError
    from repro.perf.backends import available_backends
    from repro.verify import (
        CHECKS,
        VerifyOptions,
        load_records,
        perturbed_backend,
        perturbed_standard_cell,
        replay_records,
        run_verify,
        save_records,
    )

    if args.replay is not None:
        records = load_records(args.replay)
        if not records:
            print(f"{args.replay}: no records to replay")
            return
        reproduced = 0
        for record, result in replay_records(records):
            status = "still failing" if not result.passed else "fixed"
            if not result.passed:
                reproduced += 1
            print(f"  {record.spec.label}: {record.check} {status}"
                  + (f" ({result.detail})" if result.detail else ""))
        print(f"replayed {len(records)} record(s): {reproduced} still "
              f"failing, {len(records) - reproduced} fixed")
        if reproduced:
            raise VerificationError(
                f"{reproduced} replayed failure(s) still reproduce"
            )
        return

    options = VerifyOptions(
        seeds=args.seeds,
        base_seed=args.base_seed,
        check_envelope=not args.skip_envelope,
        checks=tuple(args.checks) if args.checks else None,
    )
    injected = args.inject is not None
    with ExitStack() as stack:
        if injected:
            # The assembly perturbation trips plan_vs_direct (the
            # per-net derivation no longer re-assembles into the
            # estimate); the backend perturbation trips
            # backend_equivalence — inject both so each gate's alarm is
            # exercised.
            stack.enter_context(perturbed_standard_cell(args.inject))
            stack.enter_context(perturbed_backend(args.inject))
        report = run_verify(options)

    for name, counts in sorted(report.check_counts.items()):
        total = counts["passed"] + counts["failed"]
        marker = "ok " if counts["failed"] == 0 else "FAIL"
        print(f"  {marker} {name}: {counts['passed']}/{total}")
    # Selected checks the corpus gave no applicable case (it draws its
    # full-custom families first, so a standard-cell check needs
    # --seeds 4 or more).
    selected = [check.name for check in CHECKS if options.wants(check)]
    unrun = [name for name in selected if name not in report.check_counts]
    no_case = f"no applicable case among {len(report.cases)}"
    for name in unrun:
        print(f"  skip {name}: {no_case}")
    for record in report.envelopes.values():
        for line in _describe_envelope(record):
            print(f"  envelope {line}")
    print(f"gates: " + ", ".join(
        f"{stage}={'pass' if ok else 'FAIL'}"
        for stage, ok in report.gates.items()
    ))

    if args.report is not None:
        path = report.save(args.report)
        print(f"report written to {path}")
    for flag, kind, path in (
        ("--backend-report", "backend", args.backend_report),
        ("--congestion-report", "congestion", args.congestion_report),
    ):
        if path is None:
            continue
        record = report.envelopes.get(kind)
        if record is None:
            raise VerificationError(
                f"{flag}: this sweep measured no {kind} envelope points "
                "(its check did not run, or — for the backend envelope "
                "— the numpy backend is unavailable)"
            )
        record.save(path)
        print(f"{kind} envelope written to {path}: "
              + "; ".join(_describe_envelope(record)))
    if report.failures:
        records_path = args.records or "VERIFY_failures.json"
        save_records(records_path, report.failures)
        print(f"{len(report.failures)} failing seed record(s) written to "
              f"{records_path}")
        for record in report.failures[:5]:
            shrunk = (
                f", shrunk to {record.shrunk_device_count} device(s)"
                if record.shrunk_device_count is not None
                else ""
            )
            print(f"  {record.spec.label}: {record.check}{shrunk}")

    if injected:
        # Each fault must trip its own gate, when the run selected it.
        gates = ["plan_vs_direct"]
        if "numpy" in available_backends():
            gates.append("backend_equivalence")
        not_run = [name for name in gates if name in unrun]
        blind = [
            name for name in gates
            if name in selected and name not in unrun
            and not report.check_counts[name]["failed"]
        ]
        if report.passed or blind or not_run:
            raise VerificationError(
                f"injected perturbation x{args.inject} was NOT caught"
                + (f" by {', '.join(blind)}" if blind else "")
                + (" — the harness is blind" if blind or not not_run
                   else "")
                + "".join(f"; {name} not run: {no_case}"
                          for name in not_run)
            )
        print(f"injected perturbation x{args.inject} caught as expected")
        return
    if options.checks is not None and unrun:
        raise VerificationError(
            f"--check {', '.join(unrun)}: {no_case} (raise --seeds)"
        )
    if not report.passed:
        raise VerificationError(
            "verification failed: "
            + ", ".join(s for s, ok in report.gates.items() if not ok)
        )
    print(f"verify: {len(report.cases)} cases, all gates passed")


def _cmd_synth(args) -> None:
    import json

    from repro.frontend.yosys import find_yosys, run_yosys_flow

    binary = find_yosys(args.yosys)
    if binary is None:
        if args.require:
            from repro.errors import FrontendError

            raise FrontendError(
                "no yosys binary found and --require was given"
            )
        print("yosys not found — skipping synthesis (install yosys, "
              "set $MAE_YOSYS, or pass --yosys BIN)")
        return
    result = run_yosys_flow(
        args.verilog, args.liberty,
        top=args.top, blif_out=args.blif_out, yosys_bin=args.yosys,
    )
    print(f"top module {result.top}: chip area "
          f"{result.chip_area_um2:g} um^2 (stat -liberty)")
    if args.pdn_margin is not None:
        print(f"with x{args.pdn_margin:g} PDN/overhead margin: "
              f"{result.chip_area_um2 * args.pdn_margin:g} um^2")
    for cell, count in result.cell_counts:
        print(f"  {count:6d}  {cell}")
    if result.blif_path:
        print(f"mapped BLIF written to {result.blif_path}")
    if args.json is not None:
        record = result.to_dict()
        if args.pdn_margin is not None:
            record["pdn_margin"] = args.pdn_margin
            record["chip_area_with_margin_um2"] = (
                result.chip_area_um2 * args.pdn_margin
            )
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"synthesis record written to {args.json}")


def _cmd_calibrate(args) -> None:
    from repro.frontend.calibrate import (
        DEFAULT_PDN_MARGIN,
        DEFAULT_SLACK,
        default_envelope_path,
        measure_frontend_envelope,
    )

    record = measure_frontend_envelope(
        root=args.fixtures,
        pdn_margin=(args.pdn_margin if args.pdn_margin is not None
                    else DEFAULT_PDN_MARGIN),
        slack=args.slack if args.slack is not None else DEFAULT_SLACK,
    )
    path = record.save(args.report or default_envelope_path())
    provenance = record.provenance
    low, high = record.bounds["standard-cell"]["residual"]
    print(f"library {provenance['library']}: fitted correction factor "
          f"{record.summary['factor']:.6f} over {len(record.points)} "
          f"golden design(s), pdn margin x{provenance['pdn_margin']:g}")
    for point in record.points:
        print(f"  {point['label']:>16}: {point['devices']:3d} devices, "
              f"residual {point['residual']:+.4f}")
    print(f"stated accuracy band: {low:+.4f}..{high:+.4f} "
          f"(slack {provenance['slack']:g})")
    print(f"frontend envelope written to {path}")
    print("gate it with: mae verify --skip-envelope "
          "--check frontend_accuracy")


if __name__ == "__main__":
    sys.exit(main())
