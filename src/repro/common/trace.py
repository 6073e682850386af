"""Instruction trace records and the packed column-oriented trace format.

The simulator is trace-driven (like the paper's Sniper/Pin setup): the
workload generators emit a stream of dynamic instructions which the CPU model
consumes.  Two representations exist:

* :class:`TraceRecord` — one frozen dataclass per dynamic instruction.  This
  is the readable, validated interchange format used by unit tests and by
  callers that inspect individual instructions.
* :class:`PackedTrace` — a column-oriented store (parallel ``array`` columns
  for pc, flags, memory address, stall annotations).  Replaying millions of
  instructions through :class:`~repro.cpu.core.CoreModel` is dominated by
  Python object overhead when every instruction is a dataclass; the packed
  format keeps one machine integer per field per instruction and lets the hot
  loop read plain ints.  ``PackedTrace`` iterates as ``TraceRecord`` objects,
  so the two formats are interchangeable everywhere a trace is consumed.

A record describes one dynamic instruction — its PC, control-flow behaviour
and optional memory operand — plus two small synthetic stall annotations
(``depend_stall`` and ``issue_stall``) that stand in for the backend
dependency/issue-queue stalls a detailed OoO model would produce.  Those
annotations only shape the Top-Down breakdowns of Figures 1 and 2; the
headline results (MPKI, speedup) come from the cache hierarchy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

#: Bit positions of the packed per-instruction flag word.
FLAG_BRANCH = 1
FLAG_TAKEN = 2
FLAG_INDIRECT = 4
FLAG_CALL = 8
FLAG_RETURN = 16
FLAG_MEM = 32
FLAG_STORE = 64
FLAG_DEPEND = 128
FLAG_ISSUE = 256


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One dynamic instruction in a workload trace."""

    pc: int
    size: int = 4
    is_branch: bool = False
    branch_taken: bool = False
    branch_target: int = 0
    is_indirect: bool = False
    is_call: bool = False
    is_return: bool = False
    mem_address: Optional[int] = None
    is_store: bool = False
    depend_stall: int = 0
    issue_stall: int = 0

    def __post_init__(self) -> None:
        if self.pc < 0:
            raise ValueError(f"pc must be non-negative, got {self.pc}")
        if self.size <= 0:
            raise ValueError(f"instruction size must be positive, got {self.size}")

    @property
    def is_memory(self) -> bool:
        """Whether the instruction has a data memory operand."""
        return self.mem_address is not None

    def packed_flags(self) -> int:
        """The flag word this record carries in the packed representation."""
        flags = 0
        if self.is_branch:
            flags |= FLAG_BRANCH
        if self.branch_taken:
            flags |= FLAG_TAKEN
        if self.is_indirect:
            flags |= FLAG_INDIRECT
        if self.is_call:
            flags |= FLAG_CALL
        if self.is_return:
            flags |= FLAG_RETURN
        if self.mem_address is not None:
            flags |= FLAG_MEM
        if self.is_store:
            flags |= FLAG_STORE
        if self.depend_stall:
            flags |= FLAG_DEPEND
        if self.issue_stall:
            flags |= FLAG_ISSUE
        return flags


class PackedTrace:
    """Column-oriented instruction trace.

    Each per-instruction field lives in its own ``array`` column; columns are
    always the same length, with zero entries for fields an instruction does
    not use (the flag word says which fields are meaningful).  The layout costs
    ~36 bytes per instruction against several hundred for a ``TraceRecord``,
    and — more importantly for replay speed — reading a field is a C-level
    index instead of a Python attribute lookup on a per-instruction object.
    """

    __slots__ = (
        "pc",
        "size",
        "flags",
        "branch_target",
        "mem_address",
        "depend_stall",
        "issue_stall",
        "_events_cache",
    )

    def __init__(self) -> None:
        self.pc = array("Q")
        self.size = array("H")
        self.flags = array("H")
        self.branch_target = array("Q")
        self.mem_address = array("Q")
        self.depend_stall = array("I")
        self.issue_stall = array("I")
        #: ``line_size -> (trace length at build time, event column tuple)``.
        self._events_cache: dict[int, tuple[int, tuple]] = {}

    # ------------------------------------------------------------ construction
    def append_raw(
        self,
        pc: int,
        size: int,
        flags: int,
        branch_target: int,
        mem_address: int,
        depend_stall: int,
        issue_stall: int,
    ) -> None:
        """Append one instruction from already-packed column values.

        ``mem_address`` is only meaningful when ``flags`` has :data:`FLAG_MEM`
        set (use 0 otherwise).  The ``array`` columns reject negative values,
        so the ``TraceRecord`` validation invariants hold by construction.
        """
        self.pc.append(pc)
        self.size.append(size)
        self.flags.append(flags)
        self.branch_target.append(branch_target)
        self.mem_address.append(mem_address)
        self.depend_stall.append(depend_stall)
        self.issue_stall.append(issue_stall)

    def append_record(self, record: TraceRecord) -> None:
        """Append one :class:`TraceRecord`."""
        mem = record.mem_address
        self.append_raw(
            record.pc,
            record.size,
            record.packed_flags(),
            record.branch_target,
            mem if mem is not None else 0,
            record.depend_stall,
            record.issue_stall,
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "PackedTrace":
        """Pack an iterable of records into a new column-oriented trace."""
        packed = cls()
        for record in records:
            packed.append_record(record)
        return packed

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self.pc)

    def record(self, index: int) -> TraceRecord:
        """Materialise the instruction at ``index`` as a :class:`TraceRecord`."""
        flags = self.flags[index]
        return TraceRecord(
            pc=self.pc[index],
            size=self.size[index],
            is_branch=bool(flags & FLAG_BRANCH),
            branch_taken=bool(flags & FLAG_TAKEN),
            branch_target=self.branch_target[index],
            is_indirect=bool(flags & FLAG_INDIRECT),
            is_call=bool(flags & FLAG_CALL),
            is_return=bool(flags & FLAG_RETURN),
            mem_address=self.mem_address[index] if flags & FLAG_MEM else None,
            is_store=bool(flags & FLAG_STORE),
            depend_stall=self.depend_stall[index],
            issue_stall=self.issue_stall[index],
        )

    def __getitem__(self, index: int) -> TraceRecord:
        if not isinstance(index, int):
            raise TypeError("PackedTrace indices must be integers")
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("PackedTrace index out of range")
        return self.record(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def to_records(self) -> list[TraceRecord]:
        """Materialise the whole trace as a list of records."""
        return list(self)

    # ------------------------------------------------------------------ replay
    def fetch_events(self, line_size: int) -> tuple[array, array, array, array]:
        """Replay events: ``(indices, pcs, flag_words, fetch_lines)`` of
        state-touching instructions.

        An instruction is an *event* when it carries any flag (branch, memory
        operand, stall annotation), or when its fetch crosses into a new cache
        line — either because the PC leaves the previous instruction's line or
        because the previous instruction was a taken branch (which redirects
        fetch).  Every other instruction only retires, so the replay loop can
        skip it entirely and account its retire bandwidth in bulk.  The pc and
        flag columns are duplicated per event — and the line-aligned fetch
        address is precomputed per event — so the loop zips plain machine
        integers instead of performing indexed loads and shift/mask work.

        The result depends only on the stored columns and ``line_size``; it is
        computed lazily and cached (and recomputed if the trace grew since).
        Captured trace archives persist these columns, so replayed traces
        skip the whole pass (see :mod:`repro.workloads.capture`).
        """
        cached = self._events_cache.get(line_size)
        if cached is not None and cached[0] == len(self.pc):
            return cached[1]
        indices = array("I")
        event_pcs = array("Q")
        event_flags = array("H")
        event_lines = array("Q")
        redirect_mask = FLAG_BRANCH | FLAG_TAKEN
        prev_line = -1
        redirected = True
        index = 0
        for pc, flags in zip(self.pc, self.flags):
            line = pc - pc % line_size
            if flags or redirected or line != prev_line:
                indices.append(index)
                event_pcs.append(pc)
                event_flags.append(flags)
                event_lines.append(line)
            prev_line = line
            redirected = flags & redirect_mask == redirect_mask
            index += 1
        events = (indices, event_pcs, event_flags, event_lines)
        self._events_cache[line_size] = (len(self.pc), events)
        return events

    def adopt_geometry(
        self, line_size: int, events: tuple[array, array, array, array]
    ) -> None:
        """Seed the fetch-event cache with columns restored from an archive.

        The columns must describe exactly this trace at its current length —
        the caller (the trace archive) guarantees that by keying the file on
        the content hash of the generating spec.
        """
        self._events_cache[line_size] = (len(self.pc), tuple(events))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedTrace({len(self)} instructions)"
