"""Instruction sets and their RTL module usage.

The RTL description of a processor tells, for every instruction, which
modules participate in executing it (paper Table 1).  We represent a
module set as a Python integer bitmask so that the OR/AND operations at
the heart of ``P(EN)`` computation are single machine-level operations
even for thousands of modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple
from repro.check.errors import InputError


def modules_to_mask(modules: Iterable[int]) -> int:
    """Pack module indices into a bitmask."""
    mask = 0
    for m in modules:
        if m < 0:
            raise InputError("module index must be non-negative")
        mask |= 1 << m
    return mask


def mask_to_modules(mask: int) -> List[int]:
    """Unpack a bitmask into sorted module indices."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class Instruction:
    """One instruction and the modules its execution exercises."""

    name: str
    modules: FrozenSet[int]

    @property
    def mask(self) -> int:
        return modules_to_mask(self.modules)


@dataclass(frozen=True)
class InstructionSet:
    """An ISA: the instruction list plus the module universe size.

    ``masks[k]`` is the usage bitmask of instruction ``k``; it is the
    only representation the hot paths touch.
    """

    instructions: Tuple[Instruction, ...]
    num_modules: int
    masks: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not self.instructions:
            raise InputError("instruction set may not be empty")
        masks = []
        for instr in self.instructions:
            mask = instr.mask
            if mask >> self.num_modules:
                raise InputError(
                    "instruction %r uses module >= num_modules=%d"
                    % (instr.name, self.num_modules)
                )
            masks.append(mask)
        object.__setattr__(self, "masks", tuple(masks))

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def names(self) -> List[str]:
        return [i.name for i in self.instructions]

    def average_usage_fraction(self, weights: Sequence[float] = None) -> float:
        """Average fraction of modules active per instruction.

        This is the paper's ``Ave(M(I))`` column of Table 4.  With
        ``weights`` (e.g. the IFT) the average is execution-weighted;
        otherwise it is uniform over instructions.
        """
        counts = [len(i.modules) for i in self.instructions]
        if weights is None:
            mean = sum(counts) / len(counts)
        else:
            if len(weights) != len(counts):
                raise InputError("weights length mismatch")
            total = sum(weights)
            if total <= 0:
                raise InputError("weights must have positive sum")
            mean = sum(c * w for c, w in zip(counts, weights)) / total
        return mean / self.num_modules

    @staticmethod
    def from_usage_lists(
        usage: Sequence[Iterable[int]], num_modules: int, names: Sequence[str] = None
    ) -> "InstructionSet":
        """Build an ISA from per-instruction module lists (paper Table 1)."""
        if names is None:
            names = ["I%d" % (k + 1) for k in range(len(usage))]
        instrs = tuple(
            Instruction(name=n, modules=frozenset(u)) for n, u in zip(names, usage)
        )
        return InstructionSet(instructions=instrs, num_modules=num_modules)


def paper_example_isa() -> InstructionSet:
    """The 4-instruction / 6-module example of paper section 3.1.

    Table 1: I1 uses {M1, M2, M3, M5}, I2 uses {M1, M4},
    I3 uses {M2, M5, M6}, I4 uses {M3, M4} (0-indexed here).
    """
    return InstructionSet.from_usage_lists(
        usage=[{0, 1, 2, 4}, {0, 3}, {1, 4, 5}, {2, 3}],
        num_modules=6,
        names=["I1", "I2", "I3", "I4"],
    )


def paper_example_stream() -> List[int]:
    """A 20-cycle instruction stream matching paper section 3.2.

    The exact stream listing in the available paper text is corrupted,
    but section 3.2 pins down its statistics: 20 cycles, instructions
    I1 and I2 occur 15 times total (``P(M1) = 15/20 = 0.75``),
    instructions I1 and I3 occur 11 times total
    (``P(M5 v M6) = 11/20 = 0.55``), and the enable of {M5, M6} makes
    exactly 9 transitions.  This reconstruction satisfies all three.
    """
    text = "I1 I2 I4 I1 I3 I1 I1 I2 I1 I2 I4 I2 I1 I3 I1 I1 I2 I1 I4 I2"
    return [int(tok[1:]) - 1 for tok in text.split()]


def usage_table(isa: InstructionSet) -> Dict[str, List[str]]:
    """Human-readable RTL description (paper Table 1 layout)."""
    return {
        instr.name: ["M%d" % (m + 1) for m in sorted(instr.modules)]
        for instr in isa.instructions
    }
