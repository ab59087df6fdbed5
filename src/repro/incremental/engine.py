"""The delta-aware estimation engine.

:class:`IncrementalEstimator` owns one module and keeps the scan
statistics — the device width/height/area histograms and the net-degree
histogram — *live* under ECO edits.  Applying a
:class:`~repro.incremental.mutations.Mutation` touches only the nets and
devices the edit names (O(affected nets)), never rescans the netlist,
and bumps a revision counter (:attr:`IncrementalEstimator.stats_version`).

Bit-identical by construction
-----------------------------

The engine never sums floats incrementally (float addition is not
associative, so add/remove deltas would drift from a rescan in the last
bit).  It maintains integer *histograms* and rebuilds each snapshot
through :func:`repro.netlist.stats.build_statistics` — the same
canonical constructor :func:`~repro.netlist.stats.scan_module` uses —
so an engine snapshot equals a from-scratch rescan field for field,
bit for bit.  The Hypothesis suite in
``tests/test_incremental_equivalence.py`` and the ``mae verify``
``incremental_equivalence`` check enforce this permanently.

Plan reuse
----------

The engine keeps two plans: its current snapshot's and the one before
it.  :meth:`estimate` reuses a plan while the snapshot's *content*
equals the plan's statistics and the resolved backend is unchanged: an
edit that cancels out (or only touches power rails) keeps the plan and
its memos, and an edit that returns to the previous state swaps the
previous plan back in, memos included, so an edit/revert stream
compiles nothing.  Any other histogram change compiles a fresh plan
and drops the older of the two.  Both plans die with the engine (and
so with its ``mae serve`` session).

Observability: ``incremental.apply`` counts edits applied,
``incremental.rescan_avoided`` counts estimates served from maintained
statistics (each would have been a full rescan on the naive path), and
``incremental.plan_reused`` / ``incremental.plan_invalidated`` split
planning calls by whether the histogram change forced a new plan.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig, scan_for
from repro.core.results import StandardCellEstimate
from repro.errors import NetlistError
from repro.incremental.mutations import (
    AddDevice,
    ConnectTerminal,
    DisconnectTerminal,
    MergeNets,
    Mutation,
    RemoveDevice,
    SplitNet,
)
from repro.netlist.model import Module
from repro.netlist.stats import (
    ModuleStatistics,
    build_statistics,
    effective_port_width,
    resolve_dimensions,
)
from repro.obs.trace import current_tracer
from repro.perf.backends import resolve_backend_name
from repro.perf.plan import EstimationPlan, compile_plan, note_plan_hit
from repro.technology.process import ProcessDatabase

MutationInput = Union[Mutation, Sequence[Mutation]]


class IncrementalEstimator:
    """Delta-aware standard-cell estimator for one module.

    Parameters
    ----------
    module:
        The netlist to track.  The engine edits a copy, so the caller's
        module stays untouched.
    process, config:
        Exactly the arguments of
        :func:`repro.core.standard_cell.estimate_standard_cell`; the
        engine resolves geometry and power-net filtering identically.
    """

    def __init__(
        self,
        module: Module,
        process: ProcessDatabase,
        config: Optional[EstimatorConfig] = None,
        backend: Optional[str] = None,
    ):
        self.process = process
        self.config = config or EstimatorConfig()
        #: Kernel backend name for every estimate served by this engine
        #: (``None``: resolve against the process default per call).
        self.backend = backend
        self._module = module.copy()
        self._power = frozenset(p.lower() for p in self.config.power_nets)
        self._port_pitch = (
            self.config.port_pitch_override or process.port_pitch
        )
        self._device_width = process.device_width
        self._device_height = process.device_height
        self._version = 0
        self._snapshot: Optional[ModuleStatistics] = None
        #: The plans of the current and the previous snapshot's content
        #: (see _plan_for).
        self._plan: Optional[EstimationPlan] = None
        self._previous_plan: Optional[EstimationPlan] = None
        self._rebuild()

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def module(self) -> Module:
        """The tracked module.  Mutate it only through :meth:`apply`."""
        return self._module

    @property
    def stats_version(self) -> int:
        """Revision counter: +1 per applied mutation."""
        return self._version

    def statistics(self) -> ModuleStatistics:
        """The current statistics snapshot (cached until the next
        edit)."""
        if self._snapshot is None:
            self._snapshot = build_statistics(
                module_name=self._module.name,
                device_count=len(self._dims),
                port_count=self._module.port_count,
                width_histogram=self._widths,
                height_histogram=self._heights,
                area_histogram=self._areas,
                net_size_histogram=self._net_sizes,
                port_width_histogram=self._port_widths,
            )
        return self._snapshot

    def rescan(self) -> ModuleStatistics:
        """A from-scratch scan of the tracked module — the oracle
        :meth:`statistics` must equal."""
        return scan_for(self._module, self.process, self.config)

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------
    def apply(self, mutations: MutationInput) -> int:
        """Apply one mutation or a sequence, in order; returns the new
        :attr:`stats_version`.

        Each edit updates only its affected nets' histogram entries.  A
        rejected edit (unknown device, duplicate net, ...) raises
        :class:`~repro.errors.NetlistError` and leaves both the module
        and the bookkeeping exactly as before that edit.
        """
        if isinstance(mutations, Mutation):
            mutations = (mutations,)
        tracer = current_tracer()
        with tracer.span("incremental.apply") as span:
            applied = 0
            try:
                for mutation in mutations:
                    self._apply_one(mutation)
                    self._version += 1
                    self._snapshot = None
                    applied += 1
            finally:
                if tracer.enabled:
                    span.set("module", self._module.name)
                    span.set("edits", applied)
                    span.set("version", self._version)
                    if applied:
                        tracer.metrics.incr("incremental.apply", applied)
        return self._version

    def estimate(self, rows: Optional[int] = None) -> StandardCellEstimate:
        """The Eq. 12 estimate of the module as it stands now.

        Served from the maintained statistics — no rescan — through the
        engine's plan (:meth:`_plan_for`).  ``rows`` defaults to the
        config's row policy (Section 5 initial rows when that is
        ``None`` too).
        """
        tracer = current_tracer()
        with tracer.span("incremental.estimate") as span:
            plan, reused = self._plan_for()
            if tracer.enabled:
                span.set("module", self._module.name)
                span.set("version", self._version)
                span.set("plan_reused", reused)
                metrics = tracer.metrics
                metrics.incr("incremental.rescan_avoided")
                if reused:
                    metrics.incr("incremental.plan_reused")
                else:
                    metrics.incr("incremental.plan_invalidated")
            if rows is None:
                rows = self.config.rows
            return plan.evaluate(rows)

    def estimate_rows(
        self, row_counts: Sequence[int]
    ) -> Tuple[StandardCellEstimate, ...]:
        """Eq. 12 estimates at several row counts in one planning call.

        The multi-row form of :meth:`estimate`: one plan, then
        :meth:`~repro.perf.plan.EstimationPlan.evaluate_rows` — a
        single batched 2-D kernel evaluation under the numpy backend, a
        per-row loop under exact, bit-identical either way.  The
        service facade serves an estimate request with row counts
        through one such call over its distinct row counts.
        """
        row_counts = tuple(row_counts)
        if not row_counts:
            return ()
        tracer = current_tracer()
        with tracer.span("incremental.estimate_rows") as span:
            plan, reused = self._plan_for()
            if tracer.enabled:
                span.set("module", self._module.name)
                span.set("version", self._version)
                span.set("row_counts", len(row_counts))
                span.set("plan_reused", reused)
                metrics = tracer.metrics
                metrics.incr("incremental.rescan_avoided", len(row_counts))
                if reused:
                    metrics.incr("incremental.plan_reused")
                else:
                    metrics.incr("incremental.plan_invalidated")
            return plan.evaluate_rows(row_counts)

    def _plan_for(self) -> Tuple[EstimationPlan, bool]:
        """The plan of the current snapshot and whether it was reused:
        a held plan (the current one, else the previous one, which then
        swaps places with it) whose statistics equal the snapshot's
        content and whose backend is the one this engine resolves to
        now, else a fresh compilation that becomes the current plan."""
        stats = self.statistics()
        backend_name = resolve_backend_name(self.backend)
        for plan in (self._plan, self._previous_plan):
            if (
                plan is not None
                and plan.backend_name == backend_name
                and (plan.stats is stats or plan.stats == stats)
            ):
                if plan is self._previous_plan:
                    self._plan, self._previous_plan = plan, self._plan
                note_plan_hit()
                return plan, True
        self._previous_plan = self._plan
        self._plan = compile_plan(
            stats, self.process, self.config, backend_name
        )
        return self._plan, False

    def estimate_after(
        self, mutations: MutationInput, rows: Optional[int] = None
    ) -> StandardCellEstimate:
        """Apply the edits, then estimate: the one-call ECO API."""
        self.apply(mutations)
        return self.estimate(rows)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Full scan of the tracked module into live bookkeeping (run
        once, at construction)."""
        self._dims: Dict[str, Tuple[float, float]] = {}
        self._widths: Dict[float, int] = {}
        self._heights: Dict[float, int] = {}
        self._areas: Dict[float, int] = {}
        for device in self._module.devices:
            width, height = resolve_dimensions(
                device, self._device_width, self._device_height
            )
            self._dims[device.name] = (width, height)
            _hist_add(self._widths, width, 1)
            _hist_add(self._heights, height, 1)
            _hist_add(self._areas, width * height, 1)

        #: net name -> {device name -> pin endpoint count}; the net's
        #: component count D is the number of keys.
        self._net_devices: Dict[str, Dict[str, int]] = {}
        for net in self._module.nets:
            inner: Dict[str, int] = {}
            for conn in net.connections:
                inner[conn.device] = inner.get(conn.device, 0) + 1
            self._net_devices[net.name] = inner

        self._net_sizes: Dict[int, int] = {}
        for name in self._net_devices:
            self._record_net(name)

        self._port_widths: Dict[float, int] = {}
        for port in self._module.ports:
            width = effective_port_width(port, self._port_pitch)
            _hist_add(self._port_widths, width, 1)

    def _is_signal(self, net_name: str) -> bool:
        return net_name.lower() not in self._power

    def _forget_net(self, name: str) -> None:
        """Retire a net's current contribution to the degree histogram
        (before its membership changes)."""
        inner = self._net_devices.get(name)
        if inner and self._is_signal(name):
            _hist_add(self._net_sizes, len(inner), -1)

    def _record_net(self, name: str) -> None:
        """(Re-)enter a net's contribution at its current degree.
        Port-only nets (degree 0) contribute nothing, like the scan."""
        inner = self._net_devices.get(name)
        if inner and self._is_signal(name):
            _hist_add(self._net_sizes, len(inner), 1)

    def _mutate_module(self, affected: Iterable[str], operation) -> None:
        """Forget the affected nets, run the module edit, re-record.

        Module mutation methods validate before touching state, so on
        failure re-recording the (unchanged) nets restores the
        histogram exactly — the edit is atomic end to end.
        """
        affected = list(affected)
        for name in affected:
            self._forget_net(name)
        try:
            operation()
        except Exception:
            for name in affected:
                self._record_net(name)
            raise

    def _apply_one(self, mutation: Mutation) -> None:
        if isinstance(mutation, AddDevice):
            self._add_device(mutation)
        elif isinstance(mutation, RemoveDevice):
            self._remove_device(mutation)
        elif isinstance(mutation, ConnectTerminal):
            self._connect(mutation)
        elif isinstance(mutation, DisconnectTerminal):
            self._disconnect(mutation)
        elif isinstance(mutation, MergeNets):
            self._merge_nets(mutation)
        elif isinstance(mutation, SplitNet):
            self._split_net(mutation)
        else:
            raise NetlistError(
                f"unsupported mutation type {type(mutation).__name__}"
            )

    def _add_device(self, m: AddDevice) -> None:
        device = m.device()
        # Resolve geometry before anything mutates, so an unknown cell
        # leaves module and bookkeeping untouched.
        width, height = resolve_dimensions(
            device, self._device_width, self._device_height
        )
        affected = set(device.pins.values())
        self._mutate_module(affected, lambda: self._module.add_device(device))
        self._dims[device.name] = (width, height)
        _hist_add(self._widths, width, 1)
        _hist_add(self._heights, height, 1)
        _hist_add(self._areas, width * height, 1)
        for net_name in device.pins.values():
            inner = self._net_devices.setdefault(net_name, {})
            inner[device.name] = inner.get(device.name, 0) + 1
        for net_name in affected:
            self._record_net(net_name)

    def _remove_device(self, m: RemoveDevice) -> None:
        device = self._module.device(m.name)
        affected = set(device.pins.values())
        self._mutate_module(
            affected, lambda: self._module.remove_device(m.name)
        )
        width, height = self._dims.pop(m.name)
        _hist_add(self._widths, width, -1)
        _hist_add(self._heights, height, -1)
        _hist_add(self._areas, width * height, -1)
        for net_name in affected:
            self._net_devices[net_name].pop(m.name, None)
            self._settle_net(net_name)

    def _connect(self, m: ConnectTerminal) -> None:
        self._mutate_module(
            (m.net,), lambda: self._module.connect(m.device, m.pin, m.net)
        )
        inner = self._net_devices.setdefault(m.net, {})
        inner[m.device] = inner.get(m.device, 0) + 1
        self._record_net(m.net)

    def _disconnect(self, m: DisconnectTerminal) -> None:
        device = self._module.device(m.device)
        net_name = device.pins.get(m.pin)
        affected = (net_name,) if net_name is not None else ()
        self._mutate_module(
            affected, lambda: self._module.disconnect(m.device, m.pin)
        )
        inner = self._net_devices[net_name]
        inner[m.device] -= 1
        if not inner[m.device]:
            del inner[m.device]
        self._settle_net(net_name)

    def _merge_nets(self, m: MergeNets) -> None:
        affected = [
            name for name in (m.keep, m.absorb) if self._module.has_net(name)
        ]
        self._mutate_module(
            affected, lambda: self._module.merge_nets(m.keep, m.absorb)
        )
        keep_inner = self._net_devices.setdefault(m.keep, {})
        absorb_inner = self._net_devices.pop(m.absorb, {})
        for device_name, count in absorb_inner.items():
            keep_inner[device_name] = keep_inner.get(device_name, 0) + count
        self._record_net(m.keep)

    def _split_net(self, m: SplitNet) -> None:
        affected = (m.net,) if self._module.has_net(m.net) else ()
        self._mutate_module(
            affected,
            lambda: self._module.split_net(m.net, m.new_net, m.endpoints),
        )
        source_inner = self._net_devices[m.net]
        new_inner: Dict[str, int] = {}
        # The module collapses duplicate endpoints into a set; mirror
        # that so each (device, pin) moves exactly once.
        for device_name, _pin in dict.fromkeys(m.endpoints):
            source_inner[device_name] -= 1
            if not source_inner[device_name]:
                del source_inner[device_name]
            new_inner[device_name] = new_inner.get(device_name, 0) + 1
        self._settle_net(m.net)
        self._net_devices[m.new_net] = new_inner
        self._record_net(m.new_net)

    def _settle_net(self, net_name: str) -> None:
        """After membership shrank: re-record the net at its new degree,
        or drop the bookkeeping entry if the module dropped the net."""
        if self._module.has_net(net_name):
            self._record_net(net_name)
        else:
            del self._net_devices[net_name]


def _hist_add(histogram: Dict, value, delta: int) -> None:
    count = histogram.get(value, 0) + delta
    if count:
        histogram[value] = count
    else:
        histogram.pop(value, None)


def apply_mutations(module: Module, mutations: MutationInput) -> Module:
    """Apply edits directly to a raw module (no engine bookkeeping) —
    the rebuild-per-edit baseline the equivalence suite compares
    against."""
    if isinstance(mutations, Mutation):
        mutations = (mutations,)
    for mutation in mutations:
        mutation.apply(module)
    return module


def edit_distance(mutations: Sequence[Mutation]) -> Dict[str, int]:
    """Edit-kind census of a sequence (reporting helper for ``mae eco``)."""
    census: Dict[str, int] = {}
    for mutation in mutations:
        census[mutation.kind] = census.get(mutation.kind, 0) + 1
    return census
