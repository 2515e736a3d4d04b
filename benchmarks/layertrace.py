"""Outside-in per-layer trace: wraps listed functions of ``ginverse`` and
``numpy.linalg`` without touching the package's source.

Each listed function is looked up in its home module.  The one wrapper made
for it replaces every binding of that same object (by identity) in every
loaded ``ginverse`` module namespace, so a re-export is counted once per
call.  Methods are wrapped on their class.  A function that is not found is
reported as absent; it is never counted as zero calls.

While an op is open (``begin_op`` .. ``end_op``) every wrapped call records
a span (id, parent id, op id, function, start ns, end ns).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its children; children of one span never overlap, because the
program is single-threaded.  Hashing first arguments for ``repeat_share``
is itself recorded as a ``trace.key`` span, so it is never charged to a
layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, metric stem, home module, attribute path)
TARGETS = (
    ("matcore", "as_matrix", "ginverse.matcore", "as_matrix"),
    ("matcore", "numerical_rank", "ginverse.matcore", "numerical_rank"),
    ("matcore", "col_space_contains", "ginverse.matcore", "col_space_contains"),
    ("classical", "moore_penrose", "ginverse.classical", "moore_penrose"),
    ("classical", "index", "ginverse.classical", "index"),
    ("classical", "drazin", "ginverse.classical", "drazin"),
    ("classical", "group_inverse", "ginverse.classical", "group_inverse"),
    ("classical", "core_inverse", "ginverse.classical", "core_inverse"),
    ("classical", "core_ep", "ginverse.classical", "core_ep"),
    ("wgi", "mwgi", "ginverse.wgi", "mwgi"),
    ("wgi", "mwgi_via_power", "ginverse.wgi", "mwgi_via_power"),
    ("wgi", "mwgi_normal_equation", "ginverse.wgi", "mwgi_normal_equation"),
    ("wgi", "mwgi_drazin_solve", "ginverse.wgi", "mwgi_drazin_solve"),
    ("wgi", "mwgi_step", "ginverse.wgi", "mwgi_step"),
    ("wgi", "mwgi_core_of_drazin", "ginverse.wgi", "mwgi_core_of_drazin"),
    ("wgi", "mwgi_core_chain", "ginverse.wgi", "mwgi_core_chain"),
    ("wgi", "mwgi_regular_lift", "ginverse.wgi", "mwgi_regular_lift"),
    ("wgi", "verify_definition", "ginverse.wgi", "verify_definition"),
    ("wgi", "group_decomposition", "ginverse.wgi", "group_decomposition"),
    ("wgi", "GroupDecomposition.verify", "ginverse.wgi", "GroupDecomposition.verify"),
    ("wgi", "polar_idempotent", "ginverse.wgi", "polar_idempotent"),
    ("wgi", "PolarData.verify", "ginverse.wgi", "PolarData.verify"),
    ("wgi", "b_characterization", "ginverse.wgi", "b_characterization"),
    ("wgi", "bc_inverse_check", "ginverse.wgi", "bc_inverse_check"),
    ("wgi", "outer_inverse_subspaces", "ginverse.wgi", "outer_inverse_subspaces"),
    ("eqsolve", "solve_general", "ginverse.eqsolve", "solve_general"),
    ("eqsolve", "residual", "ginverse.eqsolve", "residual"),
    ("oracle", "certify", "ginverse.oracle", "certify"),
    ("oracle", "exact_mwgi", "ginverse.oracle", "exact_mwgi"),
    ("oracle", "exact_drazin", "ginverse.oracle", "exact_drazin"),
    ("oracle", "exact_core_ep", "ginverse.oracle", "exact_core_ep"),
    ("oracle", "exact_mp", "ginverse.oracle", "exact_mp"),
    ("oracle", "exact_index", "ginverse.oracle", "exact_index"),
    ("oracle", "rank", "ginverse.oracle", "rank"),
    ("oracle", "inverse", "ginverse.oracle", "inverse"),
    ("oracle", "full_rank_factorization", "ginverse.oracle", "full_rank_factorization"),
    ("oracle", "matmul", "ginverse.oracle", "RationalMatrix.__matmul__"),
    ("oracle", "power", "ginverse.oracle", "RationalMatrix.power"),
    ("linalg", "svd", "numpy.linalg", "svd"),
    ("linalg", "matrix_power", "numpy.linalg", "matrix_power"),
)
LAYERS = ("matcore", "classical", "wgi", "eqsolve", "oracle", "linalg")

# functions whose repeated first argument within one op is wasted work
REPEAT_TRACKED = (
    "classical.index",
    "classical.drazin",
    "classical.core_ep",
    "linalg.svd",
    "oracle.exact_index",
    "oracle.exact_drazin",
    "oracle.rank",
)
SVD = "linalg.svd"

# The metrics that go into the JSON result: those that are nonzero on every
# workload at the commit that defined the benchmark.  The others read 0 on
# some workload by construction (a float workload makes no oracle call, only
# crosscheck calls the routes, only illcond raises), so they are printed and
# their spans written to the trace file, but they stay out of the JSON.
_EVERY_WORKLOAD = (
    "matcore.as_matrix",
    "matcore.numerical_rank",
    "classical.moore_penrose",
    "classical.index",
    "classical.drazin",
    "classical.core_ep",
    "wgi.mwgi",
    "linalg.svd",
    "linalg.matrix_power",
)
IN_JSON = frozenset(
    [f"{fn}.{metric}" for fn in _EVERY_WORKLOAD for metric in ("calls_per_op", "self_ms_per_op")]
    + [f"{fn}.repeat_share" for fn in ("classical.index", "classical.drazin", "linalg.svd")]
    + [f"{layer}.self_ms_per_op" for layer in ("matcore", "classical", "wgi", "linalg")]
    + ["linalg.svd.work_n3_per_op"]
)
SELF = ".self_ms_per_op"

OP = "op"
KEY = "trace.key"


def _arg_key(x):
    """Identity of an argument's value: a digest for arrays, the entries otherwise."""
    if isinstance(x, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16).digest()
        return (x.shape, x.dtype.str, digest)
    entries = getattr(x, "entries", None)
    return ("entries", entries) if entries is not None else ("repr", repr(x))


def _load_package() -> None:
    """Import every ginverse submodule, so every binding can be found."""
    package = importlib.import_module("ginverse")
    for info in pkgutil.iter_modules(package.__path__, "ginverse."):
        importlib.import_module(info.name)


def _resolve(module: str, path: str):
    """(owner, attribute, object) for a dotted attribute path, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        found = owner.__dict__.get(attr)  # defined on this class, not inherited
    else:
        found = getattr(owner, attr, None)
    return None if found is None or not callable(found) else (owner, attr, found)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Installs the wrappers, records spans per op, and reduces them to metrics."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        # span name index: one per target, then the op root and the key pseudo-span
        self.names = [f"{layer}.{stem}" for layer, stem, _, _ in self.targets] + [OP, KEY]
        self._op_idx = len(self.targets)
        self._key_idx = self._op_idx + 1
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.repeats: Counter = Counter()
        self.raised: Counter = Counter()
        self.svd_work = 0
        self.ops = 0
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._op = -1
        self._seen: dict[int, set] = defaultdict(set)
        self._raised_seen: set = set()
        self._raised_keep: list = []

    # ---------------------------------------------------------- wrapping
    def install(self) -> None:
        """Put every wrapper in place; the bindings are found on the first call."""
        if self._plan is None:
            self._plan = self._find_bindings()
        for owner, attr, _, wrapper in self._plan:
            _assign(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original, _ in reversed(self._plan or ()):
            _assign(owner, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        _load_package()
        namespaces = [
            vars(mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ginverse" or name.startswith("ginverse."))
        ]
        plan = []
        for idx, (layer, _, module, path) in enumerate(self.targets):
            name = self.names[idx]
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(idx, layer, original)
            if isinstance(owner, type):  # a method: its class is its one binding
                plan.append((owner, attr, original, wrapper))
            else:
                home = vars(owner)
                plan.append((home, attr, original, wrapper))
                plan.extend(
                    (space, key, original, wrapper)
                    for space in namespaces
                    for key, value in space.items()
                    if value is original and not (space is home and key == attr)
                )
            self.present.add(name)
        return plan

    def _wrap(self, idx: int, layer: str, fn):
        tracer = self
        track = self.names[idx] in REPEAT_TRACKED
        is_svd = self.names[idx] == SVD
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:  # outside an op: pass straight through
                return fn(*args, **kwargs)
            parent = stack[-1]
            if track and args:
                key_start = clock()
                seen = tracer._seen[idx]
                key = _arg_key(args[0])
                if key in seen:
                    tracer.repeats[idx] += 1
                else:
                    seen.add(key)
                if is_svd:
                    shape = np.shape(args[0])
                    tracer.svd_work += shape[-2] * shape[-1] * min(shape[-2], shape[-1])
                tracer.spans.append(
                    (next(tracer._ids), parent, tracer._op, tracer._key_idx, key_start, clock())
                )
            span = next(tracer._ids)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_raise(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span, parent, tracer._op, idx, start, end))

        return traced

    def _note_raise(self, layer: str, exc: BaseException) -> None:
        # an exception passing through several wrappers of one layer counts once
        key = (layer, id(exc))
        if key not in self._raised_seen:
            self._raised_seen.add(key)
            self._raised_keep.append(exc)  # keeps id(exc) unique within the op
            self.raised[layer] += 1

    # --------------------------------------------------------------- ops
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._seen.clear()
        self._raised_seen.clear()
        self._raised_keep.clear()
        self._root = next(self._ids)
        self._stack.append(self._root)
        self._root_start = time.perf_counter_ns()

    def end_op(self) -> None:
        """Close the op's root span."""
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self._root, 0, self._op, self._op_idx, self._root_start, end))
        self.ops += 1

    # ---------------------------------------------------------- reduction
    def self_times(self) -> dict[int, int]:
        """Self time in ns for every span id."""
        covered: Counter = Counter()
        for span, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        return {span: end - start - covered[span] for span, _, _, _, start, end in self.spans}

    def metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
        """Per-op layer metrics over every op traced so far, absent functions left out,
        split into (metrics for the JSON result, metrics only printed)."""
        ops = max(1, self.ops)
        own = self.self_times()
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for span, _, _, idx, _, _ in self.spans:
            calls[idx] += 1
            self_ns[idx] += own[span]
        out: dict[str, tuple[float, str]] = {}
        layer_ns: Counter = Counter()
        for idx, (layer, _, _, _) in enumerate(self.targets):
            name = self.names[idx]
            if name not in self.present:
                continue
            out[f"{name}.calls_per_op"] = (calls[idx] / ops, "calls/op")
            out[name + SELF] = (self_ns[idx] / ops / 1e6, "ms/op")
            if name in REPEAT_TRACKED:
                share = self.repeats[idx] / calls[idx] if calls[idx] else 0.0
                out[f"{name}.repeat_share"] = (share, "ratio")
            layer_ns[layer] += self_ns[idx]
        for layer in LAYERS:
            if any(n.startswith(layer + ".") for n in self.present):
                out[layer + SELF] = (layer_ns[layer] / ops / 1e6, "ms/op")
                out[f"{layer}.raised_per_op"] = (self.raised[layer] / ops, "raises/op")
        if SVD in self.present:
            out[f"{SVD}.work_n3_per_op"] = (self.svd_work / ops, "n3/op")
        shown = {name: out.pop(name) for name in list(out) if name not in IN_JSON}
        # the op's own code and the unlisted functions it calls directly
        shown[OP + SELF] = (self_ns[self._op_idx] / ops / 1e6, "ms/op")
        shown[KEY + SELF] = (self_ns[self._key_idx] / ops / 1e6, "ms/op")
        return out, shown

    def dump(self) -> dict:
        return {
            "fields": ["span", "parent", "op", "name", "start_ns", "end_ns"],
            "names": self.names,
            "absent": self.absent,
            "spans": self.spans,
        }
