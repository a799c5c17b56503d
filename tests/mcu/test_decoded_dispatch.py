"""Differential tests: the predecoded dispatch loop against the reference ops.

``Machine.run`` executes a predecoded image with most ALU and branch ops
inlined.  ``Machine._alu`` and ``Machine._branch_taken`` stay the
reference semantics; every ALU, immediate-ALU and branch opcode in
``OPCODES`` is run here through ``Machine.run`` on generated operands and
compared with them.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import MachineError
from repro.mcu import machine as machine_module
from repro.mcu.assembler import assemble
from repro.mcu.isa import OPCODES, Instruction, to_signed, to_word
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.peripherals import ADCPeripheral

ALU_OPS = sorted(name for name, spec in OPCODES.items() if spec.kind == "alu")
ALUI_OPS = sorted(name for name, spec in OPCODES.items() if spec.kind == "alui")
BRANCH_OPS = sorted(name for name, spec in OPCODES.items() if spec.kind == "branch")

#: Sign and wrap boundaries, oversampled next to uniform words.
EDGE_WORDS = [0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF]
words = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 0xFFFF))
#: Immediates as written in source: negative, above 16 bits, and shift
#: counts above 15.
immediates = st.one_of(
    st.sampled_from([-1, -0x8000, 15, 16, 17, 31, 0x8000, 0xFFFF, 0x10000]),
    st.integers(-0x10000, 0x1FFFF),
)
#: Destination register: r0 (hardwired zero), a source register, or fresh.
destinations = st.sampled_from([0, 1, 3])
configs = st.sampled_from(
    [MachineConfig(), MachineConfig(data_in_fram=True, fram_fetch_wait=1)]
)


def run_source(source, config):
    machine = Machine(assemble(source), config)
    slice_ = machine.run(10_000)
    assert slice_.halted
    return machine, slice_


def fetch_cost(names, config):
    """Cycles of straight-line code without data accesses."""
    return sum(OPCODES[name].cycles + config.fram_fetch_wait for name in names)


def test_dispatch_order_covers_every_opcode_once():
    order = machine_module._DISPATCH_ORDER
    assert sorted(order) == sorted(OPCODES)
    assert len(set(order)) == len(order)


@pytest.mark.parametrize("name", ALU_OPS)
@settings(max_examples=40, deadline=None)
@given(a=words, b=words, rd=destinations, config=configs)
def test_register_alu_op_matches_reference(name, a, b, rd, config):
    machine, slice_ = run_source(
        f"ldi r1, {a}\nldi r2, {b}\n{name} r{rd}, r1, r2\nhalt\n", config
    )
    expected = to_word(Machine._alu(name, a, b)) if rd else 0
    assert machine.registers[rd] == expected
    assert machine.registers[2] == b
    if rd != 1:
        assert machine.registers[1] == a
    assert slice_.cycles == fetch_cost(["ldi", "ldi", name, "halt"], config)
    assert slice_.instructions == 4


@pytest.mark.parametrize("name", ALUI_OPS)
@settings(max_examples=40, deadline=None)
@given(a=words, imm=immediates, rd=destinations, config=configs)
def test_immediate_alu_op_matches_reference(name, a, imm, rd, config):
    machine, slice_ = run_source(
        f"ldi r1, {a}\n{name} r{rd}, r1, {imm}\nhalt\n", config
    )
    expected = to_word(Machine._alu(name[:-1], a, imm)) if rd else 0
    assert machine.registers[rd] == expected
    if rd != 1:
        assert machine.registers[1] == a
    assert slice_.cycles == fetch_cost(["ldi", name, "halt"], config)


@pytest.mark.parametrize("name", BRANCH_OPS)
@settings(max_examples=40, deadline=None)
@given(a=words, b=words, config=configs)
def test_branch_op_matches_reference(name, a, b, config):
    machine, slice_ = run_source(
        f"ldi r1, {a}\nldi r2, {b}\n{name} r1, r2, taken\nldi r3, 1\nhalt\n"
        "taken:\nldi r3, 2\nhalt\n",
        config,
    )
    taken = Machine._branch_taken(name, a, b)
    assert machine.registers[3] == (2 if taken else 1)
    assert slice_.cycles == fetch_cost(["ldi", "ldi", name, "ldi", "halt"], config)


@settings(max_examples=40, deadline=None)
@given(imm=immediates, rd=destinations)
def test_ldi_wraps_immediate(imm, rd):
    machine, _ = run_source(f"ldi r{rd}, {imm}\nhalt\n", MachineConfig())
    assert machine.registers[rd] == (to_word(imm) if rd else 0)


def _base_for(address, offset):
    """A base-register word reaching ``address`` with ``offset``."""
    return to_word(address - to_signed(offset))


@settings(max_examples=60, deadline=None)
@given(
    at_top=st.booleans(),
    offset=st.integers(-0x7FFF, -1),
    value=immediates,
    config=configs,
)
def test_negative_offsets_reach_both_ends_of_data(at_top, offset, value, config):
    target = config.data_space_words - 1 if at_top else 0
    base = _base_for(target, offset)
    assume(to_signed(base) + offset == target)  # else base needs >16 bits
    machine, slice_ = run_source(
        f"ldi r1, {base}\nldi r3, {value}\nst r3, r1, {offset}\n"
        f"ld r2, r1, {offset}\nhalt\n",
        config,
    )
    assert machine.data[target] == to_word(value)
    assert machine.registers[2] == to_word(value)
    data_wait = config.fram_data_wait if config.data_in_fram else 0
    assert slice_.cycles == (
        fetch_cost(["ldi", "ldi", "st", "ld", "halt"], config) + 2 * data_wait
    )
    if config.data_in_fram:
        assert (slice_.fram_reads, slice_.fram_writes) == (6, 1)
    else:
        assert (slice_.sram_reads, slice_.sram_writes) == (1, 1)


@pytest.mark.parametrize("op,verb", [("ld", "read"), ("st", "write")])
@pytest.mark.parametrize("side", ["below", "above"])
@settings(max_examples=30, deadline=None)
@given(offset=st.integers(-0x7FFF, 0x7FFF), config=configs)
def test_one_word_out_of_range_raises_reference_message(
    op, verb, side, offset, config
):
    address = -1 if side == "below" else config.data_space_words
    base = _base_for(address, offset)
    assume(to_signed(base) + offset == address)
    machine = Machine(
        assemble(f"ldi r1, {base}\n{op} r2, r1, {offset}\nhalt\n"), config
    )
    with pytest.raises(MachineError) as excinfo:
        machine.run(10_000)
    assert str(excinfo.value) == f"data {verb} out of range: {address} (pc=1)"
    assert machine.pc == 1
    assert machine.total_cycles == fetch_cost(["ldi"], config)


def test_r0_writes_are_dropped_but_side_effects_happen():
    machine = Machine(
        assemble(
            "ldi r1, 7\npush r1\npop r0\nld r0, r15, -1\nin r0, 0\n"
            "mov r0, r1\nhalt\n"
        ),
        MachineConfig(),
    )
    adc = ADCPeripheral()
    machine.attach_peripheral(0, adc)
    slice_ = machine.run(10_000)
    assert machine.registers[0] == 0
    assert machine.registers[15] == machine.config.data_space_words
    assert (slice_.sram_reads, slice_.sram_writes) == (2, 1)
    assert adc._index == 1
    assert slice_.peripheral_energy == ADCPeripheral.access_energy


@pytest.mark.parametrize("source", ["jmp 0", "call 0", "bne r1, r2, 0"])
def test_negative_static_target_is_rejected_at_decode(source):
    # The assembler rejects such targets; a hand-built image must not
    # let a negative pc wrap around the decoded code table.
    image = assemble(f"{source}\nhalt\n")
    ins = image.instructions[0]
    image.instructions[0] = Instruction(ins.spec, ins.operands[:-1] + (-2,))
    with pytest.raises(MachineError, match=r"^branch target out of range: -2 \(pc=0\)$"):
        Machine(image)
