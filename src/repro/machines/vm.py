"""GVM — a tiny bounded-step stack machine for program enumeration.

A second generic strategy space, closer in spirit to "all algorithms" than
the transducer tables: GVM programs are short instruction sequences over a
stack of integers with character I/O.  Programs of all lengths are
recursively enumerable (see :mod:`repro.machines.enumerators`), every
program is total (execution is cut off after ``max_steps``), and a program
defines a user strategy by mapping each round's incoming message to an
outgoing one.

The instruction set is deliberately minimal — just enough to express the
string transformations (echo, reverse, shift, tag manipulation) that our
toy servers demand — because enumeration cost grows exponentially with the
instruction vocabulary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.strategy import UserStrategy

#: Opcodes.  ``arg`` is meaningful only where noted.
PUSH = "PUSH"    # push arg
DROP = "DROP"    # pop and discard
DUP = "DUP"      # duplicate top
SWAP = "SWAP"    # swap top two
ADD = "ADD"      # pop b, a; push a+b
SUB = "SUB"      # pop b, a; push a-b
READ = "READ"    # push code of next input char, or -1 past end
WRITE = "WRITE"  # pop; if in [0, 0x10FFFF], append chr to output
JMP = "JMP"      # jump to instruction arg
JNZ = "JNZ"      # pop; jump to arg when nonzero
HALT = "HALT"    # stop

OPCODES = (PUSH, DROP, DUP, SWAP, ADD, SUB, READ, WRITE, JMP, JNZ, HALT)
_ARG_OPS = frozenset({PUSH, JMP, JNZ})

#: Instruction: (opcode, argument); the argument is 0 for argless opcodes.
Instruction = Tuple[str, int]


@dataclass(frozen=True)
class Program:
    """An immutable GVM program."""

    instructions: Tuple[Instruction, ...]

    def __post_init__(self) -> None:
        for op, _arg in self.instructions:
            if op not in OPCODES:
                raise ValueError(f"unknown opcode: {op}")

    def __len__(self) -> int:
        return len(self.instructions)

    def format(self) -> str:
        """Render like ``READ; PUSH 1; ADD; WRITE; HALT``."""
        parts = []
        for op, arg in self.instructions:
            parts.append(f"{op} {arg}" if op in _ARG_OPS else op)
        return "; ".join(parts)


def run_program(program: Program, input_text: str, *, max_steps: int = 512) -> str:
    """Execute ``program`` on ``input_text``; return the produced output.

    Execution is total: stack underflow reads 0, out-of-range jumps halt,
    and the step budget cuts infinite loops.  Totality matters because the
    enumeration feeds *arbitrary* programs to live executions — a crashing
    candidate would crash the universal user, whereas a merely useless one
    is just switched away from.
    """
    if max_steps <= 0:
        raise ValueError(f"max_steps must be positive: {max_steps}")
    stack: List[int] = []
    out: List[str] = []
    cursor = 0  # next input character
    pc = 0
    code = program.instructions

    def pop() -> int:
        return stack.pop() if stack else 0

    for _ in range(max_steps):
        if not 0 <= pc < len(code):
            break
        op, arg = code[pc]
        pc += 1
        if op == PUSH:
            stack.append(arg)
        elif op == DROP:
            pop()
        elif op == DUP:
            top = pop()
            stack.append(top)
            stack.append(top)
        elif op == SWAP:
            b, a = pop(), pop()
            stack.append(b)
            stack.append(a)
        elif op == ADD:
            b, a = pop(), pop()
            stack.append(a + b)
        elif op == SUB:
            b, a = pop(), pop()
            stack.append(a - b)
        elif op == READ:
            if cursor < len(input_text):
                stack.append(ord(input_text[cursor]))
                cursor += 1
            else:
                stack.append(-1)
        elif op == WRITE:
            value = pop()
            if 0 <= value <= 0x10FFFF:
                out.append(chr(value))
        elif op == JMP:
            pc = arg
        elif op == JNZ:
            if pop() != 0:
                pc = arg
        elif op == HALT:
            break
    return "".join(out)


class VMUser(UserStrategy):
    """A user strategy defined by one GVM program.

    Each round, the program maps the server's incoming message to the
    message sent back to the server.  This is a *memoryless* strategy (the
    program restarts each round); composing programs with round counters is
    possible but unnecessary for the enumeration experiments.
    """

    def __init__(self, program: Program, *, max_steps: int = 512, label: str = "gvm") -> None:
        self._program = program
        self._max_steps = max_steps
        self._label = label

    @property
    def name(self) -> str:
        return f"{self._label}({self._program.format()})"

    @property
    def program(self) -> Program:
        return self._program

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def step(
        self, state: int, inbox: UserInbox, rng: random.Random
    ) -> Tuple[int, UserOutbox]:
        reply = run_program(self._program, inbox.from_server, max_steps=self._max_steps)
        return state + 1, UserOutbox(to_server=reply)
