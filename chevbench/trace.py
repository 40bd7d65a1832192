"""Tracing of chevkern's layers from outside the package.

The tracer wraps public functions and methods of the chevkern modules from
the outside: a function is replaced in every chevkern module that imported
it, a method is replaced on its class, and everything is put back by
``uninstall``.  Nothing under ``src/`` knows it is being traced.

Two kinds of wrapper share one timing stack:

* span wrappers (layer boundaries: chevalley, steinberg, extensions,
  derivations, cli and the Matrix operations) record a span
  ``(id, parent, check, name, start, end)`` in memory;
* hot wrappers (scalar arithmetic and dispatch helpers, called millions of
  times) only count calls and accumulate time, per category and per
  enclosing span.

Every frame on the stack collects the time of the frames nested in it, so a
category's self time is its duration minus the time of nested spans and hot
calls, and the self times of all categories add up to the traced time.

A tracer made with ``hot=False`` installs the span wrappers only.  Its
inclusive span times are much less distorted by the tracing itself, which
matters for the share of a sweep spent inside one layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN_CATEGORIES = (
    "kernel.matmul", "kernel.matinv", "kernel.det", "kernel.rref",
    "kernel.matrix_addscale",
    "rings.unit_witness",
    "chevalley.root_element", "chevalley.group_mul", "chevalley.group_inverse",
    "chevalley.perfectness", "chevalley.congruence", "chevalley.levi",
    "chevalley.verify_commutator", "chevalley.infer_constants",
    "steinberg.symbol_word", "steinberg.word_eval",
    "extensions.from_coords", "extensions.form", "extensions.heisenberg_mul",
    "extensions.group_setup", "extensions.splitness",
    "extensions.decompose", "extensions.reassemble", "extensions.product_splitting",
    "derivations.der_dim", "derivations.apply_derivation",
    "derivations.parse_problem",
    "cli.render",
)
HOT_CATEGORIES = (
    "kernel.multipoly", "kernel.numberfield", "kernel.poly_eval",
    "kernel.dispatch", "kernel.matrix_eq",
    "rings.trunc_mul", "rings.trunc_inverse",
    "rootsys.root_string", "steinberg.tame_symbol", "cli.report",
)
CLI_SUITES = ("relations", "symbols", "units", "filtration", "extensions",
              "derivations")

DISPATCH = ("is_zero", "zero_like", "one_like", "scalar_into", "domain_key",
            "ring_inv", "as_ring_element")
MULTIPOLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__pow__", "__eq__", "is_zero",
                     "derivative")
NUMBERFIELD_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "inverse",
                       "__truediv__", "__pow__", "__eq__", "is_zero")
ADDSCALE_METHODS = ("__add__", "__sub__", "__neg__", "__rmul__", "scale", "trace")


class Tracer:
    """Counts, self times and spans for one traced sweep."""

    def __init__(self, hot: bool = True):
        self.hot_calls = hot
        self.active = False
        self.spans = []
        # frames [nested_time, span_id, span_category, nested_hot_time]
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.check = None
        self.candidates = 0
        self.hits = 0
        self.kept_letters = 0
        self._patches = []  # (namespace, key, original)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, category, fn, span):
        if not (span or self.hot_calls):
            return fn
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                frame = [0.0, sid, category, 0.0]
            else:
                frame = [0.0, parent, stack[-1][2] if stack else None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[category] += 1
                self_s[category] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    if not span:
                        stack[-1][3] += dur
                if span:
                    tracer.incl_s[category] += dur
                    tracer.spans[sid] = (sid, parent, tracer.check, category,
                                         start, end, frame[3])

        return wrapper

    def span(self, category, fn):
        return self._timed(category, fn, True)

    def hot(self, category, fn):
        return self._timed(category, fn, False)

    # -- installation --------------------------------------------------------

    def _set(self, ns, key, value):
        """Replace ``key`` in a module, class or dict, remembering the original."""
        if isinstance(ns, dict):
            original = ns[key]
            ns[key] = value
        elif isinstance(ns, type):
            original = ns.__dict__[key]
            setattr(ns, key, value)
        else:
            original = getattr(ns, key)
            setattr(ns, key, value)
        self._patches.append((ns, key, original))

    def _function(self, category, module, name, span):
        """Wrap a module function in every chevkern module that imported it."""
        original = getattr(module, name)
        wrapped = self._timed(category, original, span)
        if wrapped is original:
            return
        for mod in _chevkern_modules():
            if getattr(mod, name, None) is original:
                self._set(mod, name, wrapped)

    def _method(self, category, cls, name, span):
        original = cls.__dict__[name]
        wrapped = self._timed(category, original, span)
        if wrapped is not original:
            self._set(cls, name, wrapped)

    def install(self):
        from chevkern import chevalley, cli, derivations, extensions, kernel, rings, rootsys, steinberg

        Matrix = kernel.Matrix
        tracer = self

        # kernel: Matrix boundaries are spans, scalars and dispatch are hot
        matmul = self.span("kernel.matmul", Matrix.__dict__["__mul__"])
        scalar_mul = self.span("kernel.matrix_addscale", Matrix.__dict__["__mul__"])

        def mul(a, b):
            return matmul(a, b) if isinstance(b, Matrix) else scalar_mul(a, b)

        self._set(Matrix, "__mul__", mul)
        for name in ADDSCALE_METHODS:
            self._method("kernel.matrix_addscale", Matrix, name, True)
        self._method("kernel.matinv", Matrix, "inv", True)
        self._method("kernel.det", Matrix, "det", True)
        self._function("kernel.rref", kernel, "rref", True)

        matrix_eq = self.hot("kernel.matrix_eq", Matrix.__dict__["__eq__"])

        def eq(a, b):
            result = matrix_eq(a, b)
            if tracer.active and tracer._innermost() == "chevalley.infer_constants":
                tracer.candidates += 1
                tracer.hits += result is True
            return result

        if self.hot_calls:
            self._set(Matrix, "__eq__", eq)
        for name in MULTIPOLY_METHODS:
            self._method("kernel.multipoly", kernel.MultiPoly, name, False)
        for name in NUMBERFIELD_METHODS:
            self._method("kernel.numberfield", kernel.NumberFieldElement, name, False)
        self._function("kernel.poly_eval", kernel, "poly_eval", False)
        for name in DISPATCH:
            self._function("kernel.dispatch", kernel, name, False)

        # rings
        for name in ("__mul__", "__rmul__"):
            self._method("rings.trunc_mul", rings.TruncElement, name, False)
        self._method("rings.trunc_inverse", rings.TruncElement, "inverse", False)
        self._function("rings.unit_witness", rings, "unit_group_witness", True)

        self._function("rootsys.root_string", rootsys, "root_string", False)

        # chevalley
        self._method("chevalley.root_element", chevalley.ChevalleyModel, "e", True)
        self._method("chevalley.group_mul", chevalley.GroupElement, "__mul__", True)
        self._method("chevalley.group_inverse", chevalley.GroupElement, "inverse", True)
        for category, name in (("chevalley.perfectness", "perfectness_witness"),
                               ("chevalley.congruence", "congruence_dimension"),
                               ("chevalley.levi", "levi_decompose"),
                               ("chevalley.verify_commutator", "verify_commutator"),
                               ("chevalley.infer_constants", "infer_structure_constants")):
            self._function(category, chevalley, name, True)

        # steinberg
        symbol_word = self.span("steinberg.symbol_word", steinberg.symbol_word)

        def counted_symbol_word(*args, **kwargs):
            word = symbol_word(*args, **kwargs)
            if tracer.active:
                tracer.kept_letters += len(word)
            return word

        functools.update_wrapper(counted_symbol_word, steinberg.symbol_word)
        for mod in _chevkern_modules():
            if getattr(mod, "symbol_word", None) is steinberg.symbol_word:
                self._set(mod, "symbol_word", counted_symbol_word)
        self._function("steinberg.word_eval", steinberg, "word_eval", True)
        self._method("steinberg.tame_symbol", steinberg.TameSymbol, "__call__", False)

        # extensions: the default pairing is a closure made per group, so the
        # constructor is wrapped and wraps the instance's form in turn
        group_init = self.span("extensions.group_setup",
                               extensions.HeisenbergLikeGroup.__dict__["__init__"])

        def init(group, *args, **kwargs):
            group_init(group, *args, **kwargs)
            group.form = tracer.span("extensions.form", group.form)

        self._set(extensions.HeisenbergLikeGroup, "__init__", init)
        self._method("extensions.from_coords", extensions.TracelessMatrices,
                     "from_coords", True)
        self._method("extensions.heisenberg_mul", extensions.HeisenbergElement,
                     "__mul__", True)
        for category, name in (("extensions.splitness", "splitness_verdict"),
                               ("extensions.decompose", "decompose_algebra"),
                               ("extensions.reassemble", "reassemble"),
                               ("extensions.product_splitting", "product_splitting")):
            self._function(category, extensions, name, True)

        # derivations
        for name in ("der_dim", "apply_derivation", "parse_problem"):
            self._function("derivations." + name, derivations, name, True)

        # cli: suite runners are looked up in a dict, reports are rendered by
        # two methods, and every record goes through Report.add
        for suite in CLI_SUITES:
            self._set(cli.SUITE_RUNNERS, suite,
                      self.span("cli.suite." + suite, cli.SUITE_RUNNERS[suite]))
        for name in ("to_json", "to_text"):
            self._method("cli.render", cli.Report, name, True)
        self._method("cli.report", cli.Report, "add", False)
        self.active = True

    def uninstall(self):
        self.active = False
        for ns, key, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)

    def restored(self) -> bool:
        """True when every patched name holds its original object again."""
        for ns, key, original in self._patches:
            if isinstance(ns, dict):
                current = ns[key]
            elif isinstance(ns, type):
                current = ns.__dict__[key]
            else:
                current = getattr(ns, key)
            if current is not original:
                return False
        return True

    def _innermost(self):
        """Category of the innermost open span."""
        return self.stack[-1][2] if self.stack else None

    # -- checks ----------------------------------------------------------------

    def run_check(self, check_id, name, fn):
        """Run one check as the root span of its own span tree."""
        self.check = check_id
        return self.span("check." + name, fn)()

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write("id\tparent\tcheck\tname\tstart_s\tend_s\thot_s\n")
            for sid, parent, check, name, start, end, hot_s in self.spans:
                out.write("%d\t%s\t%s\t%s\t%.9f\t%.9f\t%.9f\n" % (
                    sid, "" if parent is None else parent, check, name, start, end, hot_s))


def _chevkern_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "chevkern" or name.startswith("chevkern.")) and m is not None]
