"""Span tracing installed around ``obat``'s public functions from outside.

``Tracer.install()`` replaces each listed function with a wrapper in every
``obat`` module that holds it (so names re-imported into ``obat.cli``,
``obat.determinize`` and the package root are covered), and wraps the
oracles' ``__init__``, ``member`` and its ``__call__`` alias.  Nothing under
``src/`` changes; ``uninstall()`` puts the originals back.

Spans (name, start, end, parent, item) live in flat arrays while the run
lasts and are written out once at the end.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

LAYERS = ("cli", "tiles", "automata", "determinize", "convert", "verify")

# Public functions per layer.  Left out on purpose: leaf predicates called
# inside O(n^4) loops (tiles.trans_leq, tiles.all_transitions,
# convert.pref_leq), whose wrapper would cost more than the call, and
# generator functions (enumerate_*, finite_words), whose span would only
# cover the creation of the generator.
FUNCTIONS = {
    "tiles": ("product", "upward_closure", "skeleton", "top_successor", "successors"),
    "determinize": (
        "determinize",
        "delta",
        "tile_monoid",
        "reachable_residuals",
        "kills_initial",
        "candidate_records",
        "apply_eps_completion",
    ),
    "automata": ("oba_validate",),
    "convert": ("rabin_to_oba", "parity_to_oba", "check_eps_complete"),
    "verify": ("equiv_up", "check_local_preference"),
    "cli": ("main", "load_document", "write_doc", "oba_to_doc", "parity_to_doc"),
}
ORACLES = ("ObaOracle", "DpaOracle", "NpaOracle")
ORACLE_METHODS = (("__init__", "init"), ("member", "member"))


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
    names += [f"automata.{cls}.{label}" for cls in ORACLES for _, label in ORACLE_METHODS]
    return names


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.failed = dict.fromkeys(LAYERS, 0)
        self.verify_queries = 0
        self.new_monoid_elements = 0
        self.item = -1
        # spans, one entry per array index
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self._stack: list[list] = []  # [span index, child seconds, name index]
        self._verify_depth = 0
        self._counted: set[tuple[str, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        layer = name.split(".", 1)[0]
        is_verify = layer == "verify"
        is_query = name.endswith(".member")
        is_monoid = name == "determinize.tile_monoid"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            pos = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent)
            tracer.span_item.append(tracer.item)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [pos, 0.0]
            tracer._stack.append(frame)
            if is_query and tracer._verify_depth:
                tracer.verify_queries += 1
            if is_verify:
                tracer._verify_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                key = (layer, id(e))
                if key not in tracer._counted:
                    tracer._counted.add(key)
                    tracer.failed[layer] += 1
                raise
            finally:
                end = clock()
                if is_verify:
                    tracer._verify_depth -= 1
                tracer._stack.pop()
                dur = end - start
                tracer.span_start[pos] = start
                tracer.span_end[pos] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if is_monoid:
                generators = set(args[0].alphabet.values())
                tracer.new_monoid_elements += len(set(result.semigroup) - generators)
            return result

        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            importlib.import_module(f"obat.{layer}")
        automata = sys.modules["obat.automata"]
        modules = [m for key, m in sorted(sys.modules.items()) if key == "obat" or key.startswith("obat.")]
        for layer, fns in FUNCTIONS.items():
            home = sys.modules[f"obat.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        for cls_name in ORACLES:
            cls = getattr(automata, cls_name)
            for method, label in ORACLE_METHODS:
                wrapped = self._wrap(f"automata.{cls_name}.{label}", cls.__dict__[method])
                self._patch(cls, method, wrapped)
                if method == "member":
                    self._patch(cls, "__call__", wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_item(self, item: int) -> None:
        self.item = item
        self._counted.clear()

    # --- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in zip(self.names, self.self_s):
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans, gzip-compressed; times in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_count else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("# names: " + " ".join(self.names) + "\n")
            f.write("# index\tname\tstart_us\tend_us\tparent\titem\n")
            names = self.names
            for i in range(self.span_count):
                f.write(
                    f"{i}\t{names[self.span_name[i]]}\t{(self.span_start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - t0) * 1e6:.1f}\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
