"""Register layout descriptors for assembled classifier states.

A layout names each tensor factor of a joint state: the swap-test ancilla,
the test/train data copies (paired by copy number), the label qubit, an
optional index qudit, and opaque padding slots. Layouts are hashable so
operator builders can cache on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError

ANCILLA = "ancilla"
TEST = "test"
TRAIN = "train"
LABEL = "label"
INDEX = "index"


def index_register_dim(count: int) -> int:
    """Index qudit dimension for ``count`` slots, zero-padded to a power of 2."""
    if count < 1:
        raise DimensionError("index register needs at least one slot")
    return 1 << max(0, math.ceil(math.log2(count)))


@dataclass(frozen=True)
class Register:
    role: str
    dim: int
    copy: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"register dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[Register, ...]

    def __post_init__(self):
        roles = [r.role for r in self.registers]
        for unique in (ANCILLA, LABEL, INDEX):
            if roles.count(unique) > 1:
                raise DimensionError(f"layout holds more than one {unique} register")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def has(self, role: str) -> bool:
        return any(r.role == role for r in self.registers)

    def index_of(self, role: str, copy: int | None = None) -> int:
        for i, r in enumerate(self.registers):
            if r.role == role and (copy is None or r.copy == copy):
                return i
        raise DimensionError(f"layout has no register with role {role!r} copy {copy!r}")

    def pair_indices(self) -> tuple[tuple[int, int], ...]:
        """(test, train) register positions matched by copy number."""
        tests = {r.copy: i for i, r in enumerate(self.registers) if r.role == TEST}
        trains = {r.copy: i for i, r in enumerate(self.registers) if r.role == TRAIN}
        if set(tests) != set(trains):
            raise DimensionError("test and train copies do not match up")
        pairs = []
        for copy in sorted(tests):
            t, d = tests[copy], trains[copy]
            if self.registers[t].dim != self.registers[d].dim:
                raise DimensionError(f"copy {copy}: test dim {self.registers[t].dim} "
                                     f"!= train dim {self.registers[d].dim}")
            pairs.append((t, d))
        return tuple(pairs)


def block_layout(data_dim: int, k: int, *, ancilla: bool = True,
                 index_slots: int | None = None) -> RegisterLayout:
    """All test copies, then all train copies, then label (and index)."""
    copies = [Register(role, data_dim, copy=i) for role in (TEST, TRAIN) for i in range(1, k + 1)]
    index = [] if index_slots is None else [Register(INDEX, index_register_dim(index_slots))]
    return _layout(ancilla, copies, index)


def pair_layout(data_dim: int, k: int, *, ancilla: bool = True) -> RegisterLayout:
    """Interleaved (test, train) pairs per copy, then the label qubit."""
    return _layout(ancilla, [Register(role, data_dim, copy=i)
                             for i in range(1, k + 1) for role in (TEST, TRAIN)])


def _layout(ancilla: bool, copies: list[Register], index=()) -> RegisterLayout:
    """[ancilla |] copies | label [| index]."""
    anc = [Register(ANCILLA, 2)] if ancilla else []
    return RegisterLayout(tuple(anc + copies + [Register(LABEL, 2)] + list(index)))
