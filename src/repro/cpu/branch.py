"""Branch prediction unit.

Table 1 of the paper configures a 1 K-entry BTB, a 512-entry indirect BTB, a
256-entry loop predictor and a 1 K-entry global (history-based) direction
predictor with an 8-cycle misprediction penalty.  The model here predicts both
the direction (gshare) and the target (BTB / indirect BTB / return stack) of
each branch in the trace and reports whether the prediction was correct; the
core charges the penalty and the pseudo-FDIP prefetcher follows the predicted
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.trace import TraceRecord
from repro.cpu.config import BranchPredictorConfig


@dataclass
class BranchStats:
    """Counters for branch prediction behaviour."""

    branches: int = 0
    mispredictions: int = 0
    direction_mispredictions: int = 0
    target_mispredictions: int = 0
    btb_misses: int = 0

    @property
    def mpki_numerator(self) -> int:
        return self.mispredictions

    @property
    def accuracy(self) -> float:
        if self.branches == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.branches


@dataclass
class PredictionOutcome:
    """Result of predicting one branch."""

    predicted_taken: bool
    predicted_target: int
    mispredicted: bool
    direction_wrong: bool = False
    target_wrong: bool = False


@dataclass
class _LoopEntry:
    trip_count: int = 0
    current: int = 0
    confident: bool = False


class BranchPredictionUnit:
    """gshare direction predictor + BTB/indirect-BTB/loop/return-stack targets."""

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        self.config = config or BranchPredictorConfig()
        self.config.validate()
        cfg = self.config
        #: Global history register, in a one-element list so the fast-path
        #: closure can update it in place (``_history`` is a property view).
        self._history_cell = [0]
        self._history_mask = (1 << cfg.history_bits) - 1
        # 2-bit saturating counters, initialised weakly taken.
        self._counters = [2] * cfg.global_predictor_entries
        self._btb: dict[int, int] = {}
        self._indirect_btb: dict[int, int] = {}
        self._loop: dict[int, _LoopEntry] = {}
        self._return_stack: list[int] = []
        self.stats = BranchStats()
        #: The per-branch predict+update step as a closure over the (stable,
        #: reset-in-place) prediction structures.
        self.predict_and_update_raw = self._make_predict_raw()

    @property
    def _history(self) -> int:
        """Object view of the history register (cold paths and tests)."""
        return self._history_cell[0]

    @_history.setter
    def _history(self, value: int) -> None:
        self._history_cell[0] = value

    # ------------------------------------------------------------------ steps
    def predict_and_update(self, record: TraceRecord) -> PredictionOutcome:
        """Predict a branch, update all structures with the actual outcome."""
        if not record.is_branch:
            raise ValueError("predict_and_update requires a branch record")
        outcome = self.predict_and_update_raw(
            record.pc,
            record.size,
            record.branch_taken,
            record.branch_target,
            record.is_indirect,
            record.is_call,
            record.is_return,
        )
        predicted_taken, predicted_target, mispredicted, direction_wrong, target_wrong = outcome
        return PredictionOutcome(
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            mispredicted=mispredicted,
            direction_wrong=direction_wrong,
            target_wrong=target_wrong,
        )

    def _make_predict_raw(self):
        """Build the scalar predict+update step as a closure.

        The returned callable is the twin of :meth:`predict_and_update` used
        by the packed-trace replay loop, which has no record object to hand
        over; it inlines the direction (gshare + loop), target
        (BTB/indirect/return-stack) and update steps of the method-based
        helpers below with identical state transitions.  Returns
        ``(predicted_taken, predicted_target, mispredicted, direction_wrong,
        target_wrong)``.
        """
        cfg = self.config
        stats = self.stats
        counters = self._counters
        btb = self._btb
        indirect_btb = self._indirect_btb
        loop = self._loop
        return_stack = self._return_stack
        history_cell = self._history_cell
        history_mask = self._history_mask
        gshare_entries = cfg.global_predictor_entries
        loop_entries = cfg.loop_predictor_entries
        indirect_entries = cfg.indirect_btb_entries
        btb_entries = cfg.btb_entries
        ras_entries = cfg.return_stack_entries

        def predict_and_update_raw(
            pc: int,
            size: int,
            taken: bool,
            target: int,
            is_indirect: bool,
            is_call: bool,
            is_return: bool,
        ) -> tuple[bool, int, bool, bool, bool]:
            stats.branches += 1
            history = history_cell[0]

            # Direction prediction (loop predictor, else gshare).
            loop_entry = loop.get(pc)
            if loop_entry is not None and loop_entry.confident:
                predicted_taken = loop_entry.current < loop_entry.trip_count
            else:
                predicted_taken = (
                    counters[((pc >> 2) ^ history) % gshare_entries] >= 2
                )

            # Target prediction (return stack, indirect BTB, BTB).
            if is_return and return_stack:
                predicted_target = return_stack[-1]
            elif is_indirect:
                predicted_target = indirect_btb.get(pc, 0)
            else:
                predicted_target = btb.get(pc)
                if predicted_target is None:
                    stats.btb_misses += 1
                    predicted_target = 0

            direction_wrong = predicted_taken != taken
            target_wrong = (
                taken and not direction_wrong and predicted_target != target
            )
            mispredicted = direction_wrong or target_wrong

            if mispredicted:
                stats.mispredictions += 1
            if direction_wrong:
                stats.direction_mispredictions += 1
            if target_wrong:
                stats.target_mispredictions += 1

            # Direction update (gshare counter + loop predictor).
            index = ((pc >> 2) ^ history) % gshare_entries
            value = counters[index]
            if taken:
                if value < 3:
                    counters[index] = value + 1
            elif value > 0:
                counters[index] = value - 1
            if loop_entry is None:
                if len(loop) >= loop_entries:
                    loop.pop(next(iter(loop)))
                loop_entry = _LoopEntry()
                loop[pc] = loop_entry
            if taken:
                loop_entry.current += 1
            else:
                current = loop_entry.current
                if current > 0:
                    if loop_entry.trip_count == current:
                        loop_entry.confident = True
                    else:
                        loop_entry.trip_count = current
                        loop_entry.confident = False
                loop_entry.current = 0

            # Target update (return stack push/pop, BTB fills).
            if is_call:
                return_stack.append(pc + size)
                if len(return_stack) > ras_entries:
                    return_stack.pop(0)
            if is_return and return_stack:
                return_stack.pop()
            if taken:
                if is_indirect:
                    if (
                        pc not in indirect_btb
                        and len(indirect_btb) >= indirect_entries
                    ):
                        indirect_btb.pop(next(iter(indirect_btb)))
                    indirect_btb[pc] = target
                else:
                    if pc not in btb and len(btb) >= btb_entries:
                        btb.pop(next(iter(btb)))
                    btb[pc] = target

            history_cell[0] = ((history << 1) | (1 if taken else 0)) & history_mask
            return (
                predicted_taken,
                predicted_target,
                mispredicted,
                direction_wrong,
                target_wrong,
            )

        return predict_and_update_raw

    def reset(self) -> None:
        # In place: the fast-path closure captures every structure.
        cfg = self.config
        self._history_cell[0] = 0
        self._counters[:] = [2] * cfg.global_predictor_entries
        self._btb.clear()
        self._indirect_btb.clear()
        self._loop.clear()
        self._return_stack.clear()
        stats = self.stats
        stats.branches = 0
        stats.mispredictions = 0
        stats.direction_mispredictions = 0
        stats.target_mispredictions = 0
        stats.btb_misses = 0

    # ------------------------------------------------------------- direction
    def _direction_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.config.global_predictor_entries

    def _predict_direction(self, pc: int) -> bool:
        loop_entry = self._loop.get(pc)
        if loop_entry is not None and loop_entry.confident:
            # Loop predictor: predict taken until the learned trip count.
            return loop_entry.current < loop_entry.trip_count
        return self._counters[self._direction_index(pc)] >= 2

    def _update_direction(self, pc: int, taken: bool) -> None:
        index = self._direction_index(pc)
        if taken:
            self._counters[index] = min(self._counters[index] + 1, 3)
        else:
            self._counters[index] = max(self._counters[index] - 1, 0)
        self._update_loop(pc, taken)

    def _update_loop(self, pc: int, taken: bool) -> None:
        entry = self._loop.get(pc)
        if entry is None:
            if len(self._loop) >= self.config.loop_predictor_entries:
                self._loop.pop(next(iter(self._loop)))
            entry = _LoopEntry()
            self._loop[pc] = entry
        if taken:
            entry.current += 1
        else:
            if entry.current > 0:
                if entry.trip_count == entry.current:
                    entry.confident = True
                else:
                    entry.trip_count = entry.current
                    entry.confident = False
            entry.current = 0

    # ---------------------------------------------------------------- targets
    def _predict_target_raw(self, pc: int, is_indirect: bool, is_return: bool) -> int:
        if is_return and self._return_stack:
            return self._return_stack[-1]
        if is_indirect:
            return self._indirect_btb.get(pc, 0)
        target = self._btb.get(pc)
        if target is None:
            self.stats.btb_misses += 1
            return 0
        return target

    def _predict_target(self, record: TraceRecord) -> int:
        return self._predict_target_raw(record.pc, record.is_indirect, record.is_return)

    def _update_target_raw(
        self,
        pc: int,
        size: int,
        taken: bool,
        target: int,
        is_indirect: bool,
        is_call: bool,
        is_return: bool,
    ) -> None:
        cfg = self.config
        if is_call:
            self._return_stack.append(pc + size)
            if len(self._return_stack) > cfg.return_stack_entries:
                self._return_stack.pop(0)
        if is_return and self._return_stack:
            self._return_stack.pop()
        if not taken:
            return
        if is_indirect:
            if (
                pc not in self._indirect_btb
                and len(self._indirect_btb) >= cfg.indirect_btb_entries
            ):
                self._indirect_btb.pop(next(iter(self._indirect_btb)))
            self._indirect_btb[pc] = target
        else:
            if pc not in self._btb and len(self._btb) >= cfg.btb_entries:
                self._btb.pop(next(iter(self._btb)))
            self._btb[pc] = target
