"""Spans around the public functions of each `ririg` layer.

The tracer wraps each listed function at its module boundary: every
`ririg` module that bound the function gets the wrapper under the same
name, so calls between layers are seen as well as calls from the
benchmark.  A span is (function, start, end, parent span, op id), kept in
memory and written out when the run ends.  A function's self time is its
span time minus the time of its direct child spans.

Very hot inner functions stay unwrapped and their time shows in the
caller's self time: `eval_term`, `lambda_op`, `reachable_values`, and
`generate_filter_lambda` as bound in `compat` (its k>2 path).  `cli` is
left out: it rebuilds its argument parser on every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "catalog": ("canonical_form", "enumerate_ririgs",
                "enumerate_modal_expansions", "CatalogEntry.from_algebra",
                "catalog_save", "catalog_load"),
    "core": ("validate_ririg", "synthesize_imp"),
    "modal": ("validate_modal",),
    "filters": ("all_congruences_direct", "all_ifilters",
                "theta_from_filter", "generate_filter",
                "generate_filter_blocks_stabilized", "generate_filter_lambda",
                "is_simple", "is_subdirectly_irreducible", "cep_check"),
    "terms": ("in_chain_variety", "fg_intersection_check"),
    "parsing": ("parse_equation",),
    "compat": ("is_compatible_direct", "compat_witness_kary",
               "compat_witness_lambda", "laf_representation"),
    "logic": ("parse_proof", "check_proof", "semantic_entails",
              "soundness_check", "lddt_witness"),
    "files": ("load_algebra", "save_algebra"),
}

# (module, name) bindings left unwrapped although the function is listed
UNWRAPPED = {("ririg.compat", "generate_filter_lambda")}


def span_names():
    """Metric stems, `<module>.<function>`, in a fixed order."""
    return [f"{mod}.{attr.rsplit('.', 1)[-1]}"
            for mod, attrs in TRACED.items() for attr in attrs]


class Tracer:
    """Installs and removes the wrappers; records spans while installed.

    Some functions also get a count hook, called with (args, kwargs,
    result) after the run, outside every span, so counting costs no
    traced time.
    """

    def __init__(self, hooks=None):
        self.names = span_names()
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.deferred = []
        hooks = hooks or {}
        self._patches = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ririg" or name.startswith("ririg.")]
        for name_id, (mod, attr) in enumerate(
                (mod, attr) for mod, attrs in TRACED.items()
                for attr in attrs):
            stem = self.names[name_id]
            owner = importlib.import_module(f"ririg.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name_id, original.__func__,
                                                 hooks.get(stem)))
                self._patches.append((cls, meth, original, wrapped))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name_id, fn, hooks.get(stem))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn and (m.__name__, key) not in UNWRAPPED:
                        self._patches.append((m, key, fn, wrapped))

    def _wrap(self, name_id, fn, hook):
        spans, stack, deferred = self.spans, self.stack, self.deferred
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.op_id)
            if hook is not None:
                deferred.append((hook, args, kwargs, result))
            return result
        return wrapper

    def install(self):
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def counts(self):
        """Sum of each hook's counts over the recorded calls."""
        out = {}
        for hook, args, kwargs, result in self.deferred:
            for key, value in hook(args, kwargs, result).items():
                out[key] = out.get(key, 0) + value
        return out

    def per_function(self):
        """{stem: (self seconds, calls)} over the recorded spans."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            self_ns[name_id] += end - start - child[idx]
            calls[name_id] += 1
        return {stem: (self_ns[i] / 1e9, calls[i])
                for i, stem in enumerate(self.names)}

    def children_of(self, stem, child_stem):
        """Number of `child_stem` spans directly under `stem` spans."""
        parent_id = self.names.index(stem)
        child_id = self.names.index(child_stem)
        return sum(1 for name_id, _, _, parent, _ in self.spans
                   if name_id == child_id and parent >= 0
                   and self.spans[parent][0] == parent_id)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
