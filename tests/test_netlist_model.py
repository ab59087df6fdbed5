"""Tests for the netlist data model."""

import dataclasses

import pytest

from repro.errors import NetlistError
from repro.netlist.model import Device, Module, Net, Port, PortDirection


class TestPort:
    def test_defaults(self):
        port = Port("a")
        assert port.direction is PortDirection.INPUT
        assert port.width_lambda == 0.0

    def test_rejects_empty_name(self):
        with pytest.raises(NetlistError):
            Port("")

    def test_rejects_negative_width(self):
        with pytest.raises(NetlistError):
            Port("a", width_lambda=-1.0)


class TestDevice:
    def test_nets_property(self):
        device = Device("u1", "NAND2", {"a": "n1", "b": "n2", "y": "n3"})
        assert device.nets == ("n1", "n2", "n3")

    def test_rejects_empty_name(self):
        with pytest.raises(NetlistError):
            Device("", "NAND2")

    def test_rejects_empty_cell(self):
        with pytest.raises(NetlistError):
            Device("u1", "")

    @pytest.mark.parametrize("field", ["width_lambda", "height_lambda"])
    def test_rejects_nonpositive_dimensions(self, field):
        with pytest.raises(NetlistError):
            Device("u1", "NAND2", **{field: 0.0})

    @pytest.mark.parametrize("field, value", [
        ("name", "u2"), ("cell", "NOR2"), ("pins", {}),
        ("width_lambda", 9.0), ("height_lambda", 9.0),
    ])
    def test_fields_are_frozen(self, field, value):
        """A device cannot change behind its module's revision."""
        device = Device("u1", "NAND2", {"a": "n1"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(device, field, value)


class TestNet:
    def test_component_count_distinct_devices(self):
        net = Net("n1")
        from repro.netlist.model import PinConnection

        net.connections = [
            PinConnection("u1", "a"),
            PinConnection("u1", "b"),
            PinConnection("u2", "a"),
        ]
        assert net.component_count == 2
        assert net.pin_count == 3

    def test_is_external(self):
        net = Net("n1")
        assert not net.is_external
        net.ports.append("p")
        assert net.is_external

    def test_devices_ordered_dedup(self):
        from repro.netlist.model import PinConnection

        net = Net("n1")
        net.connections = [
            PinConnection("b", "x"),
            PinConnection("a", "x"),
            PinConnection("b", "y"),
        ]
        assert net.devices() == ("b", "a")


class TestModule:
    def test_add_port_creates_net(self):
        module = Module("m")
        module.add_port(Port("a"))
        assert module.has_net("a")
        assert module.net("a").ports == ["a"]

    def test_port_with_explicit_net(self):
        module = Module("m")
        module.add_port(Port("a", net="wire1"))
        assert module.port("a").net == "wire1"
        assert module.has_net("wire1")

    def test_duplicate_port_rejected(self):
        module = Module("m")
        module.add_port(Port("a"))
        with pytest.raises(NetlistError):
            module.add_port(Port("a"))

    def test_add_device_registers_connections(self):
        module = Module("m")
        module.add_device(Device("u1", "INV", {"a": "n1", "y": "n2"}))
        assert module.net("n1").component_count == 1
        assert module.net("n2").component_count == 1

    def test_duplicate_device_rejected(self):
        module = Module("m")
        module.add_device(Device("u1", "INV", {"a": "n1"}))
        with pytest.raises(NetlistError):
            module.add_device(Device("u1", "INV", {"a": "n2"}))

    def test_connect_extends_device(self):
        module = Module("m")
        module.add_device(Device("u1", "INV", {"a": "n1"}))
        module.connect("u1", "y", "n2")
        assert module.device("u1").pins["y"] == "n2"
        assert module.net("n2").component_count == 1

    def test_connect_unknown_device_rejected(self):
        module = Module("m")
        with pytest.raises(NetlistError):
            module.connect("nope", "a", "n1")

    def test_connect_duplicate_pin_rejected(self):
        module = Module("m")
        module.add_device(Device("u1", "INV", {"a": "n1"}))
        with pytest.raises(NetlistError):
            module.connect("u1", "a", "n2")

    def test_counts(self, half_adder):
        assert half_adder.device_count == 2
        assert half_adder.port_count == 4
        assert half_adder.net_count == 4  # a, b, s, c

    def test_unknown_lookups_raise(self):
        module = Module("m")
        with pytest.raises(NetlistError):
            module.port("x")
        with pytest.raises(NetlistError):
            module.device("x")
        with pytest.raises(NetlistError):
            module.net("x")

    def test_iter_signal_nets_skips_power(self):
        module = Module("m")
        module.add_device(
            Device("u1", "nmos_enh", {"g": "a", "d": "y", "s": "GND"})
        )
        module.add_device(
            Device("u2", "nmos_dep", {"g": "y", "d": "VDD", "s": "y"})
        )
        names = {net.name for net in module.iter_signal_nets()}
        assert names == {"a", "y"}

    def test_cell_usage(self, half_adder):
        assert half_adder.cell_usage() == {"XOR2": 1, "AND2": 1}

    def test_repr_mentions_counts(self, half_adder):
        text = repr(half_adder)
        assert "half_adder" in text and "devices=2" in text

    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Module("")


class TestRevision:
    """Every mutator bumps ``Module.revision``; a rejected edit does
    not."""

    @staticmethod
    def _module():
        module = Module("m")
        module.add_port(Port("a", net="n1"))
        module.add_device(Device("u1", "INV", {"a": "n1", "y": "n2"}))
        module.add_device(Device("u2", "INV", {"a": "n2", "y": "n3"}))
        return module

    @pytest.mark.parametrize("edit", [
        lambda m: m.add_port(Port("b")),
        lambda m: m.add_device(Device("u3", "INV", {"a": "n3"})),
        lambda m: m.connect("u2", "en", "n1"),
        lambda m: m.remove_device("u2"),
        lambda m: m.disconnect("u1", "y"),
        lambda m: m.merge_nets("n1", "n3"),
        lambda m: m.split_net("n2", "n4", [("u2", "a")]),
    ], ids=["add_port", "add_device", "connect", "remove_device",
            "disconnect", "merge_nets", "split_net"])
    def test_each_mutator_bumps_revision(self, edit):
        module = self._module()
        before = module.revision
        edit(module)
        assert module.revision == before + 1

    def test_construction_counts_edits(self):
        assert Module("empty").revision == 0
        assert self._module().revision == 3

    def test_rejected_edit_keeps_revision(self):
        module = self._module()
        before = module.revision
        with pytest.raises(NetlistError):
            module.add_device(Device("u1", "INV"))
        with pytest.raises(NetlistError):
            module.remove_device("absent")
        assert module.revision == before
