"""The MCU interpreter.

A :class:`Machine` executes an assembled :class:`~repro.mcu.assembler.ProgramImage`
cycle-budget by cycle-budget, which is how the intermittent-power wrapper
drives it: each simulation timestep buys ``f * dt`` cycles of execution.

Memory model
------------
* Program memory is FRAM (as on MSP430FR parts): every instruction fetch is
  an FRAM read.
* Data memory (one flat word-addressed space holding .data, heap and stack)
  is SRAM by default, or FRAM when ``MachineConfig.data_in_fram`` is set —
  the QuickRecall configuration.
* ``r0`` is hardwired to zero.  ``r15`` is the stack pointer, initialised
  to the top of data space at boot.

Volatility: registers and PC are always volatile.  SRAM-backed data is lost
on power failure; FRAM-backed data survives.  :meth:`Machine.cold_boot`
re-runs crt0 (zero registers, re-initialise .data from the image, reset SP),
which is what happens after an outage when no snapshot is restored.

Predecoded form
---------------
``Machine.__init__`` decodes the image once into one
``(opcode, a, b, c, cycles)`` tuple per pc (see :func:`_decode`).  The
opcode is an int and ``cycles`` already includes the fetch wait and any
data wait.  ``ldi`` immediates are masked and ``ld``/``st`` offsets are
sign-converted at decode time.  :meth:`Machine.run` is a single loop that
dispatches on the int opcode.  It tests opcodes in the order of fig7's
measured dynamic mix on FFT-512: ``add`` 22%, ``ldi`` 16%, ``ld`` 11%,
``st`` 7%, ``mulq`` 6%, ``srai`` 6%, ``sub`` 5%, then ``subi``, ``shri``,
``shli``, ``andi``, ``or`` and ``bne`` at 3% each.  Hot ops are inlined
with 16-bit masking.  ``pc``, cycles, instructions and data accesses
live in locals; a ``finally`` writes them back, on errors too.  Rare ALU
ops and branches go through :meth:`Machine._alu` and
:meth:`Machine._branch_taken`, which stay the reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.mcu.assembler import ProgramImage
from repro.mcu.isa import OPCODES, to_signed, to_word
from repro.mcu.peripherals import OutputPort, Peripheral


@dataclass(frozen=True)
class MachineConfig:
    """Static machine configuration.

    Attributes:
        data_space_words: total words of data memory (data + heap + stack).
        data_in_fram: place data memory in FRAM (QuickRecall's unified
            memory) instead of SRAM.
        fram_fetch_wait: extra cycles per instruction fetch from FRAM.
        fram_data_wait: extra cycles per data access when data is in FRAM.
    """

    data_space_words: int = 2048
    data_in_fram: bool = False
    fram_fetch_wait: int = 0
    fram_data_wait: int = 1


@dataclass
class ExecutionSlice:
    """Accounting for one ``run`` call.

    Attributes:
        cycles: cycles consumed (including wait states).
        instructions: instructions retired.
        fram_reads/fram_writes/sram_reads/sram_writes: data+fetch accesses.
        peripheral_energy: joules consumed by peripheral accesses.
        halted: machine executed ``halt``.
        hit_checkpoint: stopped at a ``ckpt`` marker (stop_at_ckpt mode).
    """

    cycles: int = 0
    instructions: int = 0
    fram_reads: int = 0
    fram_writes: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    peripheral_energy: float = 0.0
    halted: bool = False
    hit_checkpoint: bool = False


@dataclass
class MachineState:
    """A captured snapshot of machine state.

    ``data`` is None for register-only snapshots (QuickRecall): data memory
    lives in FRAM and needs no copying.  ``peripherals`` is non-None only
    for peripheral-aware snapshots (port -> opaque device state).
    """

    registers: Tuple[int, ...]
    pc: int
    data: Optional[List[int]]
    peripherals: Optional[Dict[int, object]] = None

    def words(self) -> int:
        """Snapshot size in memory words (what must be written to NVM)."""
        base = len(self.registers) + 1  # registers + pc
        if self.data is not None:
            base += len(self.data)
        if self.peripherals is not None:
            base += 8 * len(self.peripherals)
        return base


#: Every mnemonic's int opcode is its index here, and ``Machine.run`` tests
#: opcodes in this order: fig7's dynamic mix first (module docstring).
#: Opcodes 0-25 are inlined in ``run``; the cold tail is evaluated through
#: the reference ``Machine._alu`` / ``Machine._branch_taken``.
_DISPATCH_ORDER = (
    "add", "ldi", "ld", "st", "mulq", "srai", "sub", "subi", "shri",
    "shli", "andi", "or", "bne",
    "blt", "addi", "mov", "jmp", "ckpt", "call", "ret", "push", "pop",
    "in", "out", "nop", "halt",
    # Cold register ALU ops, cold immediate ALU ops, cold branches.
    "and", "xor", "shl", "shr", "sra", "mul", "slt",
    "ori", "xori", "slti",
    "beq", "bge",
)
_OPCODE = {name: index for index, name in enumerate(_DISPATCH_ORDER)}
_COLD_ALUI = _OPCODE["ori"]
_COLD_BRANCH = _OPCODE["beq"]
#: The ``_alu``/``_branch_taken`` name per opcode ("ori" evaluates "or").
_REFERENCE_NAME = tuple(
    name[:-1] if OPCODES[name].kind == "alui" else name
    for name in _DISPATCH_ORDER
)

_DATA_ACCESS_KINDS = frozenset({"load", "store", "call", "ret", "push", "pop"})
_REGISTER_WRITE_KINDS = frozenset({"alu", "alui", "ldi", "mov"})


def _decode(image: ProgramImage, config: MachineConfig) -> List[Tuple[int, ...]]:
    """Decode ``image`` into one ``(opcode, a, b, c, cycles)`` tuple per pc.

    Operands keep their assembly order, padded with zeros.  ``cycles``
    includes the fetch wait and, for data accesses, the data wait.
    Constant work moves here from the interpreter loop:

    * an ALU op, ``ldi`` or ``mov`` writing ``r0`` becomes ``nop`` (r0 is
      hardwired to zero and these ops have no other effect);
    * the ``ldi`` immediate and the ``andi`` mask are wrapped to 16 bits,
      and shift immediates are reduced to ``imm & 15``;
    * ``ld``/``st`` offsets are sign-converted, with the ``-0x8000`` of
      the base register's sign conversion folded in, so the address is
      ``((base & 0xFFFF) ^ 0x8000) + c``.
    """
    fetch_wait = config.fram_fetch_wait
    data_wait = config.fram_data_wait if config.data_in_fram else 0
    code = []
    for pc, ins in enumerate(image.instructions):
        spec = ins.spec
        name = spec.name
        cycles = spec.cycles + fetch_wait
        if spec.kind in _DATA_ACCESS_KINDS:
            cycles += data_wait
        a, b, c = ins.operands + (0,) * (3 - len(ins.operands))
        if spec.kind in _REGISTER_WRITE_KINDS and a == 0:
            name = "nop"
        elif name == "ldi":
            b = to_word(b)
        elif name == "andi":
            c = to_word(c)
        elif name in ("shli", "shri", "srai"):
            c &= 15
        elif spec.kind in ("load", "store"):
            c = to_signed(c) - 0x8000
        elif spec.kind in ("jump", "call", "branch"):
            # The code table cannot hold a negative pc (list indices
            # wrap); the assembler never emits one.
            target = c if spec.kind == "branch" else a
            if target < 0:
                raise MachineError(
                    f"branch target out of range: {target} (pc={pc})"
                )
        code.append((_OPCODE[name], a, b, c, cycles))
    return code


class Machine:
    """Interpreter for the mini-ISA (see module docstring)."""

    def __init__(self, image: ProgramImage, config: Optional[MachineConfig] = None):
        self.image = image
        self.config = config or MachineConfig()
        if image.data_size > self.config.data_space_words:
            raise MachineError(
                f"program claims {image.data_size} data words, machine has "
                f"{self.config.data_space_words}"
            )
        self.registers: List[int] = [0] * 16
        self.pc = 0
        self.halted = False
        self.total_cycles = 0
        self.ports: Dict[int, Peripheral] = {7: OutputPort()}
        self.data: List[int] = [0] * self.config.data_space_words
        self._code = _decode(image, self.config)
        self.cold_boot()

    # ------------------------------------------------------------------
    # Boot / power management
    # ------------------------------------------------------------------

    def cold_boot(self) -> None:
        """crt0: zero registers, initialise .data, set SP, PC to entry."""
        self.registers = [0] * 16
        self.registers[15] = self.config.data_space_words  # stack pointer
        self.pc = 0
        self.halted = False
        self.data = [0] * self.config.data_space_words
        for address, value in self.image.data_image.items():
            self.data[address] = value

    def power_fail(self) -> None:
        """Lose all volatile state (registers, PC; SRAM data too; volatile
        peripheral buffers)."""
        self.registers = [0] * 16
        self.pc = 0
        self.halted = False
        if not self.config.data_in_fram:
            self.data = [0] * self.config.data_space_words
        for peripheral in self.ports.values():
            peripheral.on_power_fail()

    def attach_peripheral(self, port: int, peripheral: Peripheral) -> None:
        """Map ``peripheral`` at ``port`` for ``in``/``out`` instructions."""
        self.ports[port] = peripheral

    @property
    def output_port(self) -> OutputPort:
        """The default console/telemetry port at port 7."""
        return self.ports[7]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def capture_full(self, include_peripherals: bool = False) -> MachineState:
        """Capture registers + PC + all data memory (the Hibernus snapshot).

        With ``include_peripherals`` the snapshot also carries every
        mapped peripheral's device state — the peripheral-aware extension
        the paper's discussion section calls for.
        """
        peripherals = None
        if include_peripherals:
            peripherals = {
                port: peripheral.capture_state()
                for port, peripheral in self.ports.items()
            }
        return MachineState(
            tuple(self.registers), self.pc, list(self.data), peripherals
        )

    def capture_registers(self) -> MachineState:
        """Capture registers + PC only (the QuickRecall snapshot)."""
        return MachineState(tuple(self.registers), self.pc, None)

    def restore(self, state: MachineState) -> None:
        """Restore a snapshot taken by either capture method."""
        self.registers = list(state.registers)
        self.registers[0] = 0
        self.pc = state.pc
        self.halted = False
        if state.data is not None:
            if len(state.data) != len(self.data):
                raise MachineError("snapshot data size mismatch")
            self.data = list(state.data)
        if state.peripherals is not None:
            for port, payload in state.peripherals.items():
                if port in self.ports and payload is not None:
                    self.ports[port].restore_state(payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, max_cycles: int, stop_at_ckpt: bool = False) -> ExecutionSlice:
        """Execute until the cycle budget is spent, ``halt``, or a ``ckpt``.

        Args:
            max_cycles: cycle budget for this slice (>= 0).
            stop_at_ckpt: when True, pause *after* executing a ``ckpt``
                marker so a checkpointing supervisor can act.

        Returns:
            An :class:`ExecutionSlice` with cycle/access accounting.
        """
        slice_ = ExecutionSlice()
        if self.halted:
            slice_.halted = True
            return slice_
        code = self._code
        regs = self.registers
        data = self.data
        n_data = len(data)
        alu = self._alu
        branch_taken = self._branch_taken
        pc = self.pc
        cycles = retired = reads = writes = 0
        energy = 0.0
        # Each handler advances ``pc`` last, so an exception leaves it on
        # the faulting instruction; ``cycles``/``retired`` count only
        # instructions that completed.  Opcode literals index
        # _DISPATCH_ORDER.
        try:
            if pc < 0 and max_cycles > 0:
                raise MachineError(f"PC out of range: {pc}")
            while cycles < max_cycles:
                op, a, b, c, cost = code[pc]
                if op == 0:  # add
                    regs[a] = (regs[b] + regs[c]) & 0xFFFF
                    pc += 1
                elif op == 1:  # ldi
                    regs[a] = b
                    pc += 1
                elif op == 2:  # ld
                    address = ((regs[b] & 0xFFFF) ^ 0x8000) + c
                    if not 0 <= address < n_data:
                        raise MachineError(
                            f"data read out of range: {address} (pc={pc})"
                        )
                    reads += 1
                    if a:
                        regs[a] = data[address] & 0xFFFF
                    pc += 1
                elif op == 3:  # st
                    address = ((regs[b] & 0xFFFF) ^ 0x8000) + c
                    if not 0 <= address < n_data:
                        raise MachineError(
                            f"data write out of range: {address} (pc={pc})"
                        )
                    writes += 1
                    data[address] = regs[a] & 0xFFFF
                    pc += 1
                elif op == 4:  # mulq
                    x = ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000
                    y = ((regs[c] & 0xFFFF) ^ 0x8000) - 0x8000
                    regs[a] = ((x * y) >> 15) & 0xFFFF
                    pc += 1
                elif op == 5:  # srai
                    regs[a] = ((((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000) >> c) & 0xFFFF
                    pc += 1
                elif op == 6:  # sub
                    regs[a] = (regs[b] - regs[c]) & 0xFFFF
                    pc += 1
                elif op == 7:  # subi
                    regs[a] = (regs[b] - c) & 0xFFFF
                    pc += 1
                elif op == 8:  # shri
                    regs[a] = (regs[b] & 0xFFFF) >> c
                    pc += 1
                elif op == 9:  # shli
                    regs[a] = (regs[b] << c) & 0xFFFF
                    pc += 1
                elif op == 10:  # andi
                    regs[a] = regs[b] & c
                    pc += 1
                elif op == 11:  # or
                    regs[a] = (regs[b] | regs[c]) & 0xFFFF
                    pc += 1
                elif op == 12:  # bne
                    pc = c if regs[a] != regs[b] else pc + 1
                elif op == 13:  # blt (signed: xor 0x8000 maps it to unsigned order)
                    if ((regs[a] & 0xFFFF) ^ 0x8000) < ((regs[b] & 0xFFFF) ^ 0x8000):
                        pc = c
                    else:
                        pc += 1
                elif op == 14:  # addi
                    regs[a] = (regs[b] + c) & 0xFFFF
                    pc += 1
                elif op == 15:  # mov
                    regs[a] = regs[b] & 0xFFFF
                    pc += 1
                elif op == 16:  # jmp
                    pc = a
                elif op == 17:  # ckpt
                    pc += 1
                    if stop_at_ckpt:
                        cycles += cost
                        retired += 1
                        slice_.hit_checkpoint = True
                        return slice_
                elif op == 18:  # call
                    sp = (regs[15] - 1) & 0xFFFF
                    if sp >= n_data:
                        raise MachineError(f"data write out of range: {sp} (pc={pc})")
                    writes += 1
                    data[sp] = (pc + 1) & 0xFFFF
                    regs[15] = sp
                    pc = a
                elif op == 19:  # ret
                    sp = regs[15]
                    if not 0 <= sp < n_data:
                        raise MachineError(f"data read out of range: {sp} (pc={pc})")
                    reads += 1
                    pc = data[sp]
                    regs[15] = (sp + 1) & 0xFFFF
                    if pc < 0:
                        # code[pc] would wrap: retire the ret, then fail
                        # the next fetch as the reference loop does.
                        cycles += cost
                        retired += 1
                        if cycles < max_cycles:
                            raise MachineError(f"PC out of range: {pc}")
                        return slice_
                elif op == 20:  # push
                    sp = (regs[15] - 1) & 0xFFFF
                    if sp >= n_data:
                        raise MachineError(f"data write out of range: {sp} (pc={pc})")
                    writes += 1
                    data[sp] = regs[a] & 0xFFFF
                    regs[15] = sp
                    pc += 1
                elif op == 21:  # pop
                    sp = regs[15]
                    if not 0 <= sp < n_data:
                        raise MachineError(f"data read out of range: {sp} (pc={pc})")
                    reads += 1
                    if a:
                        regs[a] = data[sp] & 0xFFFF
                    regs[15] = (sp + 1) & 0xFFFF
                    pc += 1
                elif op == 22:  # in
                    peripheral = self._port(b)
                    value = peripheral.read() & 0xFFFF
                    if a:
                        regs[a] = value
                    energy += peripheral.access_energy
                    pc += 1
                elif op == 23:  # out
                    peripheral = self._port(a)
                    peripheral.write(regs[b])
                    energy += peripheral.access_energy
                    pc += 1
                elif op == 24:  # nop
                    pc += 1
                elif op == 25:  # halt (pc stays on the halt)
                    self.halted = True
                    slice_.halted = True
                    cycles += cost
                    retired += 1
                    return slice_
                elif op >= _COLD_BRANCH:
                    if branch_taken(_REFERENCE_NAME[op], regs[a], regs[b]):
                        pc = c
                    else:
                        pc += 1
                elif op >= _COLD_ALUI:
                    regs[a] = alu(_REFERENCE_NAME[op], regs[b], c) & 0xFFFF
                    pc += 1
                else:
                    regs[a] = alu(_REFERENCE_NAME[op], regs[b], regs[c]) & 0xFFFF
                    pc += 1
                cycles += cost
                retired += 1
        except IndexError:
            if 0 <= pc < len(code):
                raise
            raise MachineError(f"PC out of range: {pc}") from None
        finally:
            self.pc = pc
            self.total_cycles += cycles
            slice_.cycles = cycles
            slice_.instructions = retired
            slice_.peripheral_energy = energy
            if self.config.data_in_fram:
                slice_.fram_reads = retired + reads
                slice_.fram_writes = writes
            else:
                slice_.fram_reads = retired
                slice_.sram_reads = reads
                slice_.sram_writes = writes
        return slice_

    def _port(self, port: int) -> Peripheral:
        if port not in self.ports:
            raise MachineError(f"no peripheral at port {port}")
        return self.ports[port]

    @staticmethod
    def _alu(name: str, a: int, b: int) -> int:
        if name == "add":
            return a + b
        if name == "sub":
            return a - b
        if name == "and":
            return a & b
        if name == "or":
            return a | b
        if name == "xor":
            return a ^ b
        if name == "shl":
            return a << (b & 15)
        if name == "shr":
            return (a & 0xFFFF) >> (b & 15)
        if name == "sra":
            return to_signed(a) >> (b & 15)
        if name == "mul":
            return to_signed(a) * to_signed(b)
        if name == "mulq":
            return (to_signed(a) * to_signed(b)) >> 15
        if name == "slt":
            return 1 if to_signed(a) < to_signed(b) else 0
        raise MachineError(f"unknown ALU op {name!r}")  # pragma: no cover

    @staticmethod
    def _branch_taken(name: str, a: int, b: int) -> bool:
        if name == "beq":
            return a == b
        if name == "bne":
            return a != b
        if name == "blt":
            return to_signed(a) < to_signed(b)
        if name == "bge":
            return to_signed(a) >= to_signed(b)
        raise MachineError(f"unknown branch {name!r}")  # pragma: no cover
