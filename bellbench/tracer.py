"""In-memory span tracer for the bellsim layers, installed from outside the
package by patching module attributes.

A span is recorded around every call that crosses a layer boundary: the
public functions of one bellsim module that another module (or the command
line) calls, listed in ``BOUNDARIES``.  Helpers a module only calls itself
are not wrapped, so their time counts as self time of the boundary function
that called them; ``spectral.build_jsa`` therefore covers JSA sampling plus
the grid checks, and ``cli.main`` covers argument parsing, the command
handlers' own bookkeeping and the output writes.

Every module that rebinds a wrapped function with ``from ... import`` (for
example ``scenario`` importing ``build_jsa`` and ``group_index``) is patched
too; patching only the defining module would miss every engine call.

Spans are kept in memory as (name, start, end, parent, op id, x, y), where x
and y are two integers read from the result of a few functions (``ATTRS``),
and are written out with ``save``.  Self time is the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# Layer boundaries: module -> public names that another bellsim module or the
# CLI calls.  "Class.method" entries wrap a method on the class.
BOUNDARIES = {
    "dispersion": (
        "refractive_index",
        "group_index",
        "angled_extraordinary_index",
        "angled_extraordinary_group_index",
        "phase_matching_cut_angle",
        "element_delays",
        "get_material",
    ),
    "spectral": ("make_grid", "build_jsa"),
    "biphoton": (
        "apply_envelope_phase",
        "scale",
        "overlap",
        "normalized_overlap_magnitude",
        "interference_terms",
        "JointSpectralAmplitude.norm_squared",
    ),
    "polarization": ("make_state", "half_wave_plate", "fidelity"),
    "scenario": (
        "load_config",
        "default_config_path",
        "required_compensation_fs",
        "build_amplitudes",
        "scan",
        "prepare_bell",
        "effective_polarization_state",
    ),
    "fitting": ("fit_fringe", "raw_visibility"),
    "cli": ("main",),
}

# Integers recorded from a function's result: (x, y).
ATTRS = {
    # cells sampled, bytes of the sampled complex array (computed from its size)
    "spectral.build_jsa": lambda jsa: (jsa.values.size, jsa.values.nbytes),
    # solver iterations, converged flag
    "fitting.fit_fringe": lambda fit: (fit.iterations, int(fit.converged)),
}

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "x", "y")


class Tracer:
    """Records spans for ops run between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[dict] = []  # per op: op id, wall ns, span arrays
        self._spans: list[list] = []
        self._stack: list[int] = [-1]
        self._op_id = -1
        self._op_start = 0

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        attrs = ATTRS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            rec = [name_id, 0, 0, stack[-1], 0, 0]
            stack.append(len(self._spans))
            self._spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4], rec[5] = attrs(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary function (and its rebinds) for the duration."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "bellsim" or name.startswith("bellsim.")}
        saved = []
        try:
            for module_name, quals in BOUNDARIES.items():
                module = modules.get(f"bellsim.{module_name}")
                if module is None:
                    raise RuntimeError(f"bellsim.{module_name} is not imported")
                for qual in quals:
                    owner, attr = module, qual
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        owner = getattr(module, cls_name)
                    if not hasattr(owner, attr):
                        raise RuntimeError(f"layer boundary bellsim.{module_name}.{qual} is missing")
                    original = getattr(owner, attr)
                    wrapper = self._wrap(f"{module_name}.{attr}", original)
                    targets = [(owner, attr)]
                    targets += [(mod, key) for mod in modules.values()
                                for key, value in vars(mod).items()
                                if value is original and not (mod is owner and key == attr)]
                    for target, key in targets:
                        saved.append((target, key, getattr(target, key)))
                        setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(saved):
                setattr(target, key, value)

    def begin_op(self, op_id: int) -> None:
        self._spans = []
        self._stack = [-1]
        self._op_id = op_id
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        wall_ns = time.perf_counter_ns() - self._op_start
        table = np.array(self._spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        self.ops.append({"op": self._op_id, "wall_ns": wall_ns, "spans": table})
        self._spans = []

    def save(self, path) -> None:
        """Write every span of every op to a compressed .npz file."""
        tables = [op["spans"] for op in self.ops]
        op_ids = [np.full(len(t), op["op"], dtype=np.int64) for op, t in zip(self.ops, tables)]
        spans = np.concatenate(tables) if tables else np.zeros((0, len(SPAN_FIELDS)), np.int64)
        columns = {field: spans[:, k] for k, field in enumerate(SPAN_FIELDS)}
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op=np.concatenate(op_ids) if op_ids else np.zeros(0, np.int64),
            op_wall_ns=np.array([op["wall_ns"] for op in self.ops], dtype=np.int64),
            **columns,
        )

    def summary(self):
        """Per name: calls, self ns, x and y summed over all ops; plus the
        root-span coverage of op wall time."""
        n = len(self.names)
        calls = np.zeros(n, np.int64)
        self_ns = np.zeros(n, np.float64)
        x = np.zeros(n, np.int64)
        y = np.zeros(n, np.int64)
        covered = 0
        wall = 0
        for op in self.ops:
            t = op["spans"]
            wall += op["wall_ns"]
            name, parent = t[:, 0], t[:, 3]
            duration = t[:, 2] - t[:, 1]
            child = np.zeros(len(t), np.int64)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], duration[has_parent])
            calls += np.bincount(name, minlength=n)
            self_ns += np.bincount(name, weights=duration - child, minlength=n)
            x += np.bincount(name, weights=t[:, 4], minlength=n).astype(np.int64)
            y += np.bincount(name, weights=t[:, 5], minlength=n).astype(np.int64)
            covered += int(duration[~has_parent].sum())
        by_name = {
            name: {"calls": int(calls[k]), "self_ns": float(self_ns[k]), "x": int(x[k]), "y": int(y[k])}
            for k, name in enumerate(self.names)
        }
        return by_name, (covered / wall if wall else 0.0)

    def op_counts(self):
        """Per op: the exact counts (calls of each name, x and y sums) that
        must repeat between two traced runs of the same ops."""
        n = len(self.names)
        out = []
        for op in self.ops:
            t = op["spans"]
            calls = np.bincount(t[:, 0], minlength=n)
            xs = np.bincount(t[:, 0], weights=t[:, 4], minlength=n)
            ys = np.bincount(t[:, 0], weights=t[:, 5], minlength=n)
            out.append({self.names[k]: (int(calls[k]), int(xs[k]), int(ys[k]))
                        for k in range(n) if calls[k]})
        return out
