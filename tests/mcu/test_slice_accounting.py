"""Pinned slice accounting and error-path state of ``Machine.run``.

The totals below were recorded from the string-dispatch interpreter the
predecoded loop replaced.  ``ExecutionSlice`` counts feed
``McuPowerModel.slice_memory_energy``, so every count must stay exact, and
splitting a run into slices must not change what the slices add up to.
"""

import hashlib

import pytest

from repro.errors import MachineError
from repro.mcu.assembler import assemble
from repro.mcu.machine import Machine, MachineConfig, MachineState
from repro.mcu.peripherals import ADCPeripheral
from repro.mcu.programs.fft import fft_program
from repro.mcu.programs.fir import fir_program
from repro.mcu.programs.sort import sort_program

PROGRAMS = {
    "fft64": lambda: fft_program(64),
    "sort": lambda: sort_program(64),
    "fir": lambda: fir_program(48),  # reads the ADC on port 0
}
CONFIGS = {
    "sram": MachineConfig(),
    "fram": MachineConfig(data_in_fram=True, fram_fetch_wait=1),
}
COUNTS = (
    "cycles", "instructions", "fram_reads", "fram_writes", "sram_reads",
    "sram_writes",
)

PINNED = {
    "fft64-sram": dict(
        cycles=19705, instructions=12900,
        fram_reads=12900, fram_writes=0,
        sram_reads=1392, sram_writes=880,
        peripheral_energy=float.fromhex("0x1.5798ee2308c3ap-28"),
        registers=(0, 64, 0, 0, 95, 127, 0, 31, 32, 64, 8183, 32, 0, 31, 63, 2048),
        data="2e04ee94cf3eda50", output="b6e0c24b198f97fb",
    ),
    "fft64-fram": dict(
        cycles=34877, instructions=12900,
        fram_reads=14292, fram_writes=880,
        sram_reads=0, sram_writes=0,
        peripheral_energy=float.fromhex("0x1.5798ee2308c3ap-28"),
        registers=(0, 64, 0, 0, 95, 127, 0, 31, 32, 64, 8183, 32, 0, 31, 63, 2048),
        data="2e04ee94cf3eda50", output="b6e0c24b198f97fb",
    ),
    "sort-sram": dict(
        cycles=9673, instructions=6101,
        fram_reads=6101, fram_writes=0,
        sram_reads=1042, sram_writes=783,
        peripheral_energy=float.fromhex("0x1.5798ee2308c3ap-28"),
        registers=(0, 64, 63, 953, 57, 63, 62784, 64, 63, 64, 57077, 0, 0, 0, 0, 2048),
        data="7a6bf2482dbe184b", output="ee66432378fb0fd4",
    ),
    "sort-fram": dict(
        cycles=17599, instructions=6101,
        fram_reads=7143, fram_writes=783,
        sram_reads=0, sram_writes=0,
        peripheral_energy=float.fromhex("0x1.5798ee2308c3ap-28"),
        registers=(0, 64, 63, 953, 57, 63, 62784, 64, 63, 64, 57077, 0, 0, 0, 0, 2048),
        data="7a6bf2482dbe184b", output="ee66432378fb0fd4",
    ),
    "fir-sram": dict(
        cycles=11525, instructions=7684,
        fram_reads=7684, fram_writes=0,
        sram_reads=1104, sram_writes=384,
        peripheral_energy=float.fromhex("0x1.8337d85e7b603p-19"),
        registers=(0, 48, 8, 7, 9, 0, 171, 0, 0, 48, 51, 0, 0, 0, 0, 2048),
        data="54ab6c331b6a6509", output="031b4af5197ec30a",
    ),
    "fir-fram": dict(
        cycles=20697, instructions=7684,
        fram_reads=8788, fram_writes=384,
        sram_reads=0, sram_writes=0,
        peripheral_energy=float.fromhex("0x1.8337d85e7b603p-19"),
        registers=(0, 48, 8, 7, 9, 0, 171, 0, 0, 48, 51, 0, 0, 0, 0, 2048),
        data="54ab6c331b6a6509", output="031b4af5197ec30a",
    ),
}
CASES = sorted(PINNED)


def build(case):
    program, config = case.split("-")
    machine = Machine(assemble(PROGRAMS[program]()), CONFIGS[config])
    if program == "fir":
        machine.attach_peripheral(0, ADCPeripheral())
    return machine


def digest(words):
    return hashlib.sha256(",".join(map(str, words)).encode()).hexdigest()[:16]


def run_split(machine, budget, stop_at_ckpt=False):
    """Run to ``halt`` in slices; returns the summed counts and energy."""
    totals = dict.fromkeys(COUNTS, 0)
    energy = 0.0
    slices = 0
    while not machine.halted:
        slice_ = machine.run(budget, stop_at_ckpt=stop_at_ckpt)
        for name in COUNTS:
            totals[name] += getattr(slice_, name)
        energy += slice_.peripheral_energy
        slices += 1
    return totals, energy, slices


def assert_final_state(machine, pinned):
    assert tuple(machine.registers) == pinned["registers"]
    assert digest(machine.data) == pinned["data"]
    assert digest(machine.output_port.log) == pinned["output"]
    assert machine.total_cycles == pinned["cycles"]


@pytest.mark.parametrize("case", CASES)
def test_one_slice_totals_match_pinned(case):
    machine = build(case)
    slice_ = machine.run(10**9)
    pinned = PINNED[case]
    assert slice_.halted
    assert {name: getattr(slice_, name) for name in COUNTS} == {
        name: pinned[name] for name in COUNTS
    }
    assert slice_.peripheral_energy == pinned["peripheral_energy"]
    assert_final_state(machine, pinned)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("budget", [1, 37])
def test_split_runs_sum_to_pinned(case, budget):
    machine = build(case)
    totals, energy, slices = run_split(machine, budget)
    pinned = PINNED[case]
    assert slices > 1
    assert totals == {name: pinned[name] for name in COUNTS}
    # Per-slice energies re-associate the float sum; run(1) adds them in
    # the single-slice order.
    if budget == 1:
        assert energy == pinned["peripheral_energy"]
    else:
        assert energy == pytest.approx(pinned["peripheral_energy"], rel=1e-12)
    assert_final_state(machine, pinned)


@pytest.mark.parametrize("case", CASES)
def test_checkpoint_stops_sum_to_pinned(case):
    machine = build(case)
    totals, energy, slices = run_split(machine, 10**9, stop_at_ckpt=True)
    pinned = PINNED[case]
    assert slices > 1
    assert totals == {name: pinned[name] for name in COUNTS}
    assert energy == pytest.approx(pinned["peripheral_energy"], rel=1e-12)
    assert_final_state(machine, pinned)


@pytest.mark.parametrize(
    "source,message,pc,cycles",
    [
        ("ldi r1, 5\naddi r1, r1, 1\nld r2, r0, -1\nhalt\n",
         "data read out of range: -1 (pc=2)", 2, 2),
        ("ldi r1, 5\nmulq r1, r1, r1\nst r1, r0, 2048\nhalt\n",
         "data write out of range: 2048 (pc=2)", 2, 6),
        ("ldi r1, 1\nnop\n", "PC out of range: 2", 2, 2),
        ("ldi r1, 3\nout 3, r1\nhalt\n", "no peripheral at port 3", 1, 1),
        ("ldi r1, 3\nin r1, 3\nhalt\n", "no peripheral at port 3", 1, 1),
        ("ldi r15, 0\npush r1\nhalt\n",
         "data write out of range: 65535 (pc=1)", 1, 1),
        ("ldi r15, 0\ncall f\nf: halt\n",
         "data write out of range: 65535 (pc=1)", 1, 1),
        ("ldi r15, 2048\npop r1\nhalt\n",
         "data read out of range: 2048 (pc=1)", 1, 1),
        ("ldi r15, 0xFFFF\nret\n", "data read out of range: 65535 (pc=1)", 1, 1),
        ("ldi r1, 9\npush r1\nret\n", "PC out of range: 9", 9, 7),
    ],
)
def test_mid_slice_error_leaves_pc_and_total_cycles(source, message, pc, cycles):
    machine = Machine(assemble(source))
    machine.run(1)  # earlier slices stay counted
    with pytest.raises(MachineError) as excinfo:
        machine.run(100)
    assert str(excinfo.value) == message
    assert machine.pc == pc
    assert machine.total_cycles == cycles


def test_pc_error_waits_for_budget():
    machine = Machine(assemble("ldi r1, 1\n"))
    assert machine.run(1).instructions == 1
    assert machine.run(0).cycles == 0  # no fetch, no error
    with pytest.raises(MachineError, match=r"^PC out of range: 1$"):
        machine.run(1)
    assert (machine.pc, machine.total_cycles) == (1, 1)


def test_restored_negative_pc_raises_on_fetch():
    machine = Machine(assemble("ldi r1, 1\nhalt\n"))
    machine.restore(MachineState(tuple(machine.registers), -1, None))
    assert machine.run(0).cycles == 0
    with pytest.raises(MachineError, match=r"^PC out of range: -1$"):
        machine.run(5)
    assert (machine.pc, machine.total_cycles) == (-1, 0)


def test_negative_return_address_fails_next_fetch():
    machine = Machine(assemble("ldi r1, 1\nret\nhalt\n"))
    machine.registers[15] = 10
    machine.data[10] = -3
    machine.run(1)
    # ret retires, and the budget it used up defers the error.
    assert machine.run(4).instructions == 1
    assert (machine.pc, machine.registers[15]) == (-3, 11)
    with pytest.raises(MachineError, match=r"^PC out of range: -3$"):
        machine.run(1)
    assert machine.total_cycles == 5
