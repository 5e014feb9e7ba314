"""Timing spans around raeslab's public functions, installed from outside.

A span replaces a function by a timing wrapper under every name the
``raeslab`` modules bind it to, so ``raeslab.layers.gru_forward`` and the
copy that ``raeslab.models`` imported are both covered. A target that no
longer exists, for example after a refactor fuses or renames it, is listed
in ``Spans.absent`` and its metrics are left out; nothing raises.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) for every traced boundary.
TRACED = (
    ("data.generate", "raeslab.data", "generate_dataset"),
    ("data.generate", "raeslab.data", "shuffle_split"),
    ("data.batches", "raeslab.data", "batches"),
    ("models.encode", "raeslab.models", "encode_context"),
    ("models.context", "raeslab.models", "decoder_input_steps"),
    ("models.decode", "raeslab.models", "decode_steps"),
    ("layers.gru_forward", "raeslab.layers", "gru_forward"),
    ("layers.head", "raeslab.layers", "time_distributed_dense"),
    ("layers.conv1d", "raeslab.layers", "conv1d_forward"),
    ("layers.maxpool1d", "raeslab.layers", "maxpool1d_forward"),
    ("optim.mse", "raeslab.optim", "mse_loss"),
    ("optim.adam", "raeslab.optim", "AdamState.step"),
    ("tensor.backward", "raeslab.tensor", "backward"),
)

# The validation pass is timed in untraced runs too: two clock reads a call.
EVALUATE = ("eval", "raeslab.harness", "evaluate")

STEP_OPS = ("step", "stack_steps")


def gru_gflop(layer, xs, h0, *_):
    """Forward GEMM work of one unrolled GRU: 3 gates x 2*B*(in+H)*H per step."""
    batch = h0.shape[0] if len(h0.shape) == 2 else 1
    hidden = layer.hidden_size
    return len(xs) * 3 * 2 * batch * (layer.input_size + hidden) * hidden / 1e9


def tape_counts(tape, *_):
    """(records, per-step stack/unstack records) on the tape about to be replayed."""
    names = tape.op_names()
    return len(tape), sum(1 for n in names if n in STEP_OPS)


# Counters read from a span's arguments; a probe that no longer fits the
# signature is dropped instead of failing the run.
PROBES = {"layers.gru_forward": gru_gflop, "tensor.backward": tape_counts}


class Spans:
    """Per-phase wall time of the wrapped functions, and their probe values.

    ``phase`` names the part of the run being recorded ("setup", "train",
    "eval"); while it is None the wrappers only forward the call. The
    evaluate span switches the phase to "eval" for its own duration.
    """

    def __init__(self):
        self.phase: str | None = None
        self.time: dict[tuple[str, str], float] = defaultdict(float)
        self.probed: dict[tuple[str, str], list] = defaultdict(list)
        self.absent: list[str] = []
        self.broken_probes: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.time.clear()
        self.probed.clear()

    def install(self, targets) -> None:
        for name, module_name, path in targets:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            holders = [owner] if parents else _raeslab_modules()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        phase_override = "eval" if name == EVALUATE[0] else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            if probe is not None and name not in self.broken_probes:
                try:
                    self.probed[phase, name].append(probe(*args, **kwargs))
                except (AttributeError, IndexError, TypeError):
                    self.broken_probes.add(name)
            if phase_override is not None:
                self.phase = phase_override
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.time[phase, name] += time.perf_counter() - start
                self.phase = phase

        return wrapper


def _raeslab_modules():
    return [m for key, m in list(sys.modules.items()) if key == "raeslab" or key.startswith("raeslab.")]
