"""In-memory spans around trunca's layers, installed from outside ``src/``.

:func:`install` wraps the public functions of each of trunca's seven modules
(the names in its ``__all__``; for ``cli``, which has none, its public
functions) and the public methods of the classes they export, such as
``Generator.psi`` and ``TruncatedCopula.cdf``.  Every reference to a wrapped
function inside trunca's modules is rebound -- module globals and module-level
tables such as the CLI's command map -- so a call from ``sampling`` into
``frailty`` into ``generators`` records nested spans.

A span is ``[name, start, end, parent, request, ok, attrs]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``request`` the repetition
it belongs to, ``ok`` false when the call raised, and ``attrs`` the counts a
hook read from its arguments or result (values, draws, points, proposals).
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("generators", "frailty", "copulas", "sampling", "analytics", "modelspec", "cli")
FAMILIES = ("clayton", "amh", "frank", "gumbel", "joe", "outer_power")
# (family, tilted) pairs that some workload draws; untilted laws of the other
# families never run, because truncation always tilts and only the oracle
# draws untilted frailties
FRAILTY_KINDS = tuple((f, "tilted") for f in FAMILIES) + (("clayton", "base"), ("gumbel", "base"))
SAMPLE_FORMS = ("tilted-archimedean", "product", "general", "nested", "marshall-olkin")
CLI_COMMANDS = ("sample", "kendall", "taildep", "truncate-eval", "cdf")


class Tracer:
    """Collects spans; ``request`` tags every span opened until it changes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = 0
        self._stack = []

    def call(self, name, hook, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, True, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = self.clock()
        try:
            result, span[6] = hook(fn, args, kwargs)
        except BaseException:
            span[5] = False
            raise
        finally:
            span[2] = self.clock()
            self._stack.pop()
        return result


# --- hooks: (fn, args, kwargs) -> (result, attrs) -----------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), None


def _sized(pos, name, key):
    def hook(fn, args, kwargs):
        return fn(*args, **kwargs), {key: int(np.size(_arg(args, kwargs, pos, name)))}
    return hook


def _draws(pos):
    def hook(fn, args, kwargs):
        size = _arg(args, kwargs, pos, "size")
        return fn(*args, **kwargs), {"draws": 1 if size is None else int(size)}
    return hook


def _frailty_kind(g, h):
    from trunca.generators import OuterPowerGenerator, TiltedGenerator

    if isinstance(g, TiltedGenerator):
        h += g.h
        g = g.base
    family = "outer_power" if isinstance(g, OuterPowerGenerator) else g.family
    return family, "tilted" if h > 0 else "base"


def _sample_frailty(fn, args, kwargs):
    g = _arg(args, kwargs, 0, "g")
    family, tilt = _frailty_kind(g, float(_arg(args, kwargs, 1, "h")))
    size = _arg(args, kwargs, 3, "size")
    attrs = {"family": family, "tilt": tilt, "draws": 1 if size is None else int(size)}
    return fn(*args, **kwargs), attrs


def _tilted_sibuya(fn, args, kwargs):
    # ask for the sampler's own (accepted, proposals) stats, hand back what the caller asked for
    wanted = bool(_arg(args, kwargs, 5, "return_stats", False))
    call_args = args[:5]
    call_kwargs = {k: v for k, v in kwargs.items() if k != "return_stats"}
    result = fn(*call_args, return_stats=True, **call_kwargs)
    attrs = {"draws": int(result[1]), "proposals": int(result[2])}
    return (result if wanted else result[0]), attrs


def _truncated_cdf(fn, args, kwargs):
    from trunca.copulas import GeneralTruncation

    tc, u = args[0], _arg(args, kwargs, 1, "u")
    route = "bisect" if isinstance(tc, GeneralTruncation) else "closed"
    points = int(np.atleast_2d(np.asarray(u)).shape[0])
    return fn(*args, **kwargs), {"route": route, "points": points}


def _sample_truncated(fn, args, kwargs):
    tc = _arg(args, kwargs, 0, "tc")
    return fn(*args, **kwargs), {"form": tc.form, "rows": int(_arg(args, kwargs, 1, "n"))}


def _oracle_sample(fn, args, kwargs):
    out = fn(*args, **kwargs)
    meta = out.meta
    attrs = {"rows": int(out.n), "proposals": int(meta["proposals"]), "accepted": int(meta["accepted"])}
    return out, attrs


def _write_csv(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _cli_main(fn, args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return fn(*args, **kwargs), {"command": argv[0] if argv else ""}


HOOKS = {
    "generators.Generator.psi": _sized(1, "t", "values"),
    "generators.Generator.psi_inv": _sized(1, "u", "values"),
    "frailty.sample_frailty": _sample_frailty,
    "frailty.sample_stable": _draws(2),
    "frailty.sample_tilted_stable": _draws(3),
    "frailty.sample_tilted_sibuya": _tilted_sibuya,
    "copulas.TruncatedCopula.cdf": _truncated_cdf,
    "copulas.CopulaModel.margin_section": _sized(2, "x", "values"),
    "sampling.sample_truncated": _sample_truncated,
    "sampling.oracle_sample": _oracle_sample,
    "sampling.write_csv": _write_csv,
    "cli.main": _cli_main,
}


# --- installation -------------------------------------------------------------


def _public(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name, _plain)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, hook, fn, args, kwargs)

    return traced


class Installation:
    """The rebindings made by :func:`install`; ``uninstall`` reverts them."""

    def __init__(self):
        self.patches = []  # (container, key, original, is_item)

    def set(self, container, key, value, is_item=False):
        if is_item:
            self.patches.append((container, key, container[key], True))
            container[key] = value
        else:
            self.patches.append((container, key, vars(container)[key], False))
            setattr(container, key, value)

    def uninstall(self):
        for container, key, original, is_item in reversed(self.patches):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self.patches.clear()


def install(tracer):
    """Wrap trunca's public layer functions and methods; returns an Installation."""
    import trunca.cli  # noqa: F401  (loads every layer)

    inst = Installation()
    wrappers = {}  # id(original function) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"trunca.{layer}"]
        for name, obj in _public(mod):
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(member):
                        inst.set(obj, attr, _wrap(tracer, span, member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        inst.set(obj, attr, type(member)(_wrap(tracer, span, member.__func__)))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "trunca" or mod_name.startswith("trunca.")):
            continue
        for key, val in list(vars(mod).items()):
            entry = wrappers.get(id(val))
            if entry is not None and entry[0] is val:
                inst.set(mod, key, entry[1])
            elif isinstance(val, dict) and not key.startswith("__"):
                for k, v in list(val.items()):
                    entry = wrappers.get(id(v))
                    if entry is not None and entry[0] is v:
                        inst.set(val, k, entry[1], is_item=True)
    return inst


# --- reduction ----------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            a, b = max(spans[c][1], s[1]), min(spans[c][2], s[2])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[2] - s[1]) - covered)
    return out


def roots(spans):
    """Index of the top-level span each span descends from."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[3] < 0 else out[s[3]])
    return out


def layer_metrics(spans, requests):
    """Per-layer metrics of a traced run; ``requests`` are the traced repetition ids.

    Spans of other repetitions are ignored.  Times per repetition are medians
    over repetitions of per-repetition sums; rates divide summed time by
    summed work.  A metric whose layer call never ran in the workload reads 0.
    """
    requests = sorted(set(requests))
    selfs = self_times(spans)
    root = roots(spans)
    names = [s[0] for s in spans]
    wanted = set(requests)
    kept = [(i, s) for i, s in enumerate(spans) if s[4] in wanted]

    def outer(i):
        # first span of its name on its stack: recursion and wrappers calling
        # the same public function again are not counted twice
        p = spans[i][3]
        return p < 0 or names[p] != names[i]

    def per_request(select, value):
        sums = dict.fromkeys(requests, 0.0)
        for i, s in kept:
            if select(i, s):
                sums[s[4]] += value(i, s)
        return float(np.median(list(sums.values())))

    def rate(select, key, scale):
        time_sum = work = 0.0
        for i, s in kept:
            if select(i, s):
                time_sum += s[2] - s[1]
                work += s[6][key]
        return scale * time_sum / work if work else 0.0

    def busy(*span_names, form=None):
        def select(i, s):
            return s[0] in span_names and outer(i) and (form is None or s[6]["form"] == form)
        return per_request(select, lambda i, s: s[2] - s[1])

    def attr_sum(name, key):
        return float(sum(s[6][key] for _, s in kept if s[0] == name))

    m = {}
    for layer in LAYERS:
        prefix = layer + "."
        m[f"{layer}.self_s"] = per_request(lambda i, s: s[0].startswith(prefix), lambda i, s: selfs[i])
        count = sum(1 for _, s in kept if s[0].startswith(prefix))
        failed = sum(1 for _, s in kept if s[0].startswith(prefix) and not s[5])
        m[f"{layer}.failed"] = failed / count if count else 0.0

    # generator kernels as called from outside the generators layer
    for fn in ("psi", "psi_inv"):
        full = f"generators.Generator.{fn}"
        m[f"generators.{fn}.ns_per_value"] = rate(
            lambda i, s: s[0] == full and (s[3] < 0 or not names[s[3]].startswith("generators.")),
            "values", 1e9)

    for family, tilt in FRAILTY_KINDS:
        m[f"frailty.{family}.{tilt}.ns_per_draw"] = rate(
            lambda i, s: s[0] == "frailty.sample_frailty" and outer(i)
            and s[6]["family"] == family and s[6]["tilt"] == tilt,
            "draws", 1e9)
    stable_draws = attr_sum("frailty.sample_tilted_stable", "draws")
    stable_props = sum(s[6]["draws"] for _, s in kept
                       if s[0] == "frailty.sample_stable" and s[3] >= 0
                       and names[s[3]] == "frailty.sample_tilted_stable")
    m["frailty.tilted_stable.proposals_per_draw"] = stable_props / stable_draws if stable_draws else 0.0
    sib_draws = attr_sum("frailty.sample_tilted_sibuya", "draws")
    m["frailty.tilted_sibuya.proposals_per_draw"] = (
        attr_sum("frailty.sample_tilted_sibuya", "proposals") / sib_draws if sib_draws else 0.0)

    trunc = [i for i, s in kept if s[0] == "copulas.truncate_general" and outer(i)]
    m["copulas.truncate.us_per_call"] = (
        1e6 * sum(spans[i][2] - spans[i][1] for i in trunc) / len(trunc) if trunc else 0.0)
    for route in ("closed", "bisect"):
        m[f"copulas.cdf.{route}.ns_per_point"] = rate(
            lambda i, s: s[0] == "copulas.TruncatedCopula.cdf" and outer(i) and s[6]["route"] == route,
            "points", 1e9)
    # sections evaluated for the sampled rows; bisection calls them too, and
    # that cost belongs to copulas.cdf.bisect.ns_per_point
    m["copulas.margin_section.ns_per_value"] = rate(
        lambda i, s: s[0] == "copulas.CopulaModel.margin_section" and s[3] >= 0
        and names[s[3]] == "sampling.transform_margins", "values", 1e9)

    for form in SAMPLE_FORMS:
        m[f"sampling.sample_truncated.{form}.busy_s"] = busy("sampling.sample_truncated", form=form)
    m["sampling.oracle.busy_s"] = busy("sampling.oracle_sample")
    proposals = attr_sum("sampling.oracle_sample", "proposals")
    rows = attr_sum("sampling.oracle_sample", "rows")
    m["sampling.oracle.accept_rate"] = (
        attr_sum("sampling.oracle_sample", "accepted") / proposals if proposals else 0.0)
    m["sampling.oracle.proposals_per_row"] = proposals / rows if rows else 0.0
    m["sampling.transform_margins.busy_s"] = busy("sampling.transform_margins")
    m["sampling.ranks.busy_s"] = busy("sampling.pseudo_observations")
    m["sampling.csv.busy_s"] = busy("sampling.write_csv")
    csv_time = sum(s[2] - s[1] for _, s in kept if s[0] == "sampling.write_csv")
    m["sampling.csv.mb_per_s"] = attr_sum("sampling.write_csv", "bytes") / 1e6 / csv_time if csv_time else 0.0

    m["analytics.kendall.busy_s"] = busy("analytics.empirical_kendall_tau")
    m["analytics.taildep.busy_s"] = busy(
        "analytics.tail_dep_tilted", "analytics.tail_dep_exchangeable_equal_t",
        "analytics.empirical_tail_dep", "analytics.model_tail_dep")
    m["modelspec.load.busy_s"] = busy("modelspec.load_model")

    for command in CLI_COMMANDS:
        def in_command(i, s, command=command):
            top = spans[root[i]]
            return s[0].startswith("cli.") and top[0] == "cli.main" and top[6]["command"] == command
        m[f"cli.{command}.self_s"] = per_request(in_command, lambda i, s: selfs[i])
    return m
