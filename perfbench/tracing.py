"""Per-layer tracing by wrapping module attributes from outside the package.

`Tracer.install()` replaces, in every qnetcode module, each attribute that is
bound to a traced function with a wrapper, so calls between modules and calls
inside a module that go through its globals both pass through it.
`Tracer.restore()` puts the originals back, so untimed and untraced code
never pays for the wrappers.

Traced functions:
- every public function that one qnetcode module imports from another
  (including the package namespace), if it is defined in the `cli`,
  `network`, `protocol` or `quantum` layer; each call records a span
  (name, start, end, parent);
- the functions the per-layer metrics name (`REQUIRED`), even where no other
  module imports them;
- in the `rings` layer only call counts, for `mat_vec`, `mat_mul` and the
  arithmetic dunders of `RingElem`.

A function named in `REQUIRED` that no longer exists is recorded as absent
rather than failing, and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

SPAN_LAYERS = ("cli", "network", "protocol", "quantum")
LAYERS = SPAN_LAYERS + ("rings",)

REQUIRED = (
    ("cli", "main"),
    ("network", "parse_network"),
    ("network", "find_counterexample"),
    ("network", "verify_solution"),
    ("network", "evaluate_classical"),
    ("network", "transfer_coefficients"),
    ("protocol", "run_protocol"),
    ("protocol", "enumerate_branches"),
    ("protocol", "compute_corrections"),
    ("protocol", "classical_cost"),
    ("quantum", "apply_coding_unitary"),
    ("quantum", "apply_fourier"),
    ("quantum", "measure"),
    ("quantum", "apply_phase"),
    ("quantum", "fidelity"),
    ("rings", "mat_vec"),
    ("rings", "mat_mul"),
)
ELEM_OPS = ("__add__", "__sub__", "__mul__", "__neg__")

# metric stem -> traced quantum function
QUANTUM_OPS = {
    "coding": "apply_coding_unitary",
    "fourier": "apply_fourier",
    "measure": "measure",
    "phase": "apply_phase",
    "fidelity": "fidelity",
}
# Inclusive time of the outermost span of each group; nested spans of the same
# group (verify_solution -> find_counterexample) are not counted twice.
GROUPS = {
    "network.parse_network": "parse",
    "network.find_counterexample": "verify",
    "network.verify_solution": "verify",
    "network.transfer_coefficients": "transfer",
    "protocol.compute_corrections": "corrections",
    "protocol.classical_cost": "cost",
    **{f"quantum.{fn}": stem for stem, fn in QUANTUM_OPS.items()},
}
_QUANTUM_SPANS = {f"quantum.{fn}" for fn in QUANTUM_OPS.values()}


def _amps_size(obj) -> int:
    amps = getattr(obj, "amps", None)
    return int(getattr(amps, "size", 0))


def _scheme_key(net, scheme):
    """Content key of an instance and scheme, so re-parsed copies compare equal."""
    try:
        coeffs = tuple(sorted((v, rows) for v, rows in scheme.coeffs.items()))
        return (scheme.ring, scheme.q, net.nodes, net.edges, net.pairs, coeffs)
    except (AttributeError, TypeError):
        return id(scheme)


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"qnetcode.{name}") for name in LAYERS}
        self.package = importlib.import_module("qnetcode")
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # spans of the current pass: [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._schemes: set = set()
        # totals over all passes
        self.counts: Counter = Counter()
        self.self_time: Counter = Counter()  # by span name
        self.group_time: Counter = Counter()  # by GROUPS value
        self.covered_s = 0.0  # wall time inside top-level spans
        self.scheme_count = 0  # distinct schemes per pass, summed over passes
        self.peak_entries = 0
        self.entries_moved = 0

    # -- recording

    def _observe(self, name: str, args, result) -> None:
        try:
            if name in _QUANTUM_SPANS:
                size_in = _amps_size(args[0]) if args else 0
                if name == "quantum.fidelity" and len(args) > 1:
                    size_in += _amps_size(args[1])
                out = result[-1] if isinstance(result, tuple) else result
                size_out = _amps_size(out)
                self.peak_entries = max(self.peak_entries, size_in, size_out)
                self.entries_moved += size_in + size_out
            elif name == "protocol.run_protocol":
                log = result.log
                self.counts["measurements"] += len(log.all_outcomes())
                self.counts["elements_sent"] += log.elements_sent
            elif name == "network.transfer_coefficients":
                self._schemes.add(_scheme_key(args[0], args[1]))
        except (AttributeError, TypeError, IndexError):
            self.counts[f"observe_failed:{name}"] += 1

    def _span_wrapper(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                observe(name, args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _generator_wrapper(self, fn, name):
        """Spans around each resume of a generator, so time between yields counts."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span[2] = clock()
                    stack.pop()
                counts["branches"] += 1
                if getattr(item, "fidelity", 0.0) is None:
                    counts["unrealizable"] += 1
                yield item

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching

    def _targets(self) -> dict[int, tuple[object, str]]:
        """Function id -> (function, span name) for everything to wrap."""
        targets: dict[int, tuple[object, str]] = {}
        for layer, fname in REQUIRED:
            fn = getattr(self.modules[layer], fname, None)
            if fn is None:
                self.absent.append(f"{layer}.{fname}")
            else:
                targets[id(fn)] = (fn, f"{layer}.{fname}")
        for mod in (self.package, *self.modules.values()):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                layer = home.rpartition(".")[2]
                if home.startswith("qnetcode.") and home != mod.__name__ and layer in SPAN_LAYERS:
                    targets.setdefault(id(obj), (obj, f"{layer}.{attr}"))
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for fn, name in self._targets().values():
            if name.startswith("rings."):
                wrapper = self._count_wrapper(fn, name)
            elif inspect.isgeneratorfunction(fn):
                wrapper = self._generator_wrapper(fn, name)
            else:
                wrapper = self._span_wrapper(fn, name)
            for mod in (self.package, *self.modules.values()):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
        elem = getattr(self.modules["rings"], "RingElem", None)
        for op in ELEM_OPS:
            fn = elem.__dict__.get(op) if elem is not None else None
            if fn is None:
                self.absent.append(f"rings.RingElem.{op}")
                continue
            self._patches.append((elem, op, fn))
            setattr(elem, op, self._count_wrapper(fn, "rings.elem_ops"))

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- derivation

    def end_pass(self) -> None:
        """Fold the spans of one pass into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                self.covered_s += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.self_time[name] += end - start - child[i]
            group = GROUPS.get(name)
            if group is None:
                continue
            p = parent
            while p >= 0 and GROUPS.get(spans[p][0]) != group:
                p = spans[p][3]
            if p < 0:
                self.group_time[group] += end - start
        spans.clear()
        self.scheme_count += len(self._schemes)
        self._schemes.clear()

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))
