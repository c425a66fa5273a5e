"""The three workloads: enum-sweep, typed-traces and cli-session.

Each workload is a closed loop with one caller on one thread.  Its work is
organised in identical rounds, so every round must produce the same exact
counts.  A round records the time of every op; outputs are checked against
the reference outside those timers.

The benchmark calls only the public functions of the modules in the
README's module table, plus ``fraglang.cli.main``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import operator
import random
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Optional

from spans import Tracer

PACKAGE = "fraglang"
MODULES = (
    "cli",
    "generate",
    "lang",
    "oracle",
    "preservation",
    "semantics",
    "sexpr",
    "surface",
    "sweeps",
    "typecheck",
)


def _loaded() -> dict[str, Any]:
    return {name: mod for name, mod in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}


def import_fresh() -> SimpleNamespace:
    """Import fraglang afresh, dropping any copy already loaded."""
    for name in _loaded():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def time_setup(workload: "Workload", seed: int) -> float:
    """Seconds of one set-up whose inputs are dropped.

    The modules the rounds run on are put back afterwards, so a lazy import
    inside fraglang still finds the same classes as the inputs it is given.
    """
    running = _loaded()
    started = perf_counter()
    workload.setup(seed)
    seconds = perf_counter() - started
    for name in _loaded():
        del sys.modules[name]
    sys.modules.update(running)
    return seconds


@dataclass
class Round:
    """One pass over a workload's fixed schedule of ops."""

    work: int = 0
    failed: int = 0
    times: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    keys: list[Any] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def op(self, kind: str, seconds: float, key: Any = None) -> None:
        """Record an op; ops of a round that share a ``key`` are repeats of one op."""
        self.keys.append(len(self.times) if key is None else key)
        self.times.append(seconds)
        self.kinds.append(kind)
        self.ok.append(True)

    def fail(self, index: int, note: str) -> None:
        """Mark op ``index`` failed; an op fails at most once."""
        if self.ok[index]:
            self.ok[index] = False
            self.failed += 1
            self.problems.append(note)


class Summary:
    """Rounds folded in as they finish, so memory does not grow with their number.

    Every round runs the same ops in the same order.  An op's time is the
    fastest of its repeats, in this round and the others: on a shared
    machine other tenants only ever add time to an op, so the fastest repeat
    is the steadiest estimate of the program's own cost.  Medians and
    percentiles are taken across distinct ops.
    """

    MAX_PROBLEMS = 50

    def __init__(self) -> None:
        self.rounds = 0
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.slots: dict[Any, int] = {}  # op key -> index into the arrays below
        self.kinds: list[str] = []
        self.best = array("d")
        self.ok = bytearray()
        self.repeats = array("l")  # times the op runs in one round
        self.counts: list[dict[str, int]] = []
        self.problems: list[str] = []

    def add(self, r: Round) -> None:
        first = self.rounds == 0
        if first:
            self.work = r.work
        best, ok = self.best, self.ok
        for key, kind, t, good in zip(r.keys, r.kinds, r.times, r.ok):
            i = self.slots.get(key)
            if i is None:
                i = self.slots[key] = len(self.kinds)
                self.kinds.append(kind)
                best.append(t)
                ok.append(good)
                self.repeats.append(0)
            else:
                if t < best[i]:
                    best[i] = t
                if not good:
                    ok[i] = 0
            if first:
                self.repeats[i] += 1
        self.rounds += 1
        self.attempted += r.attempted
        self.failed += r.failed
        self.counts.append(r.counts)
        self.problems += r.problems[: self.MAX_PROBLEMS - len(self.problems)]

    def ops_per_round(self) -> int:
        return sum(self.repeats)

    def round_s(self) -> float:
        """Seconds of one round made of the per-op times."""
        return sum(t * n for t, n in zip(self.best, self.repeats))

    def throughput(self) -> float:
        """Work units per second of that round."""
        return self.work / self.round_s()

    def percentile_ms(self, kind: str, pct: int) -> float:
        """Percentile of the times of the ops of ``kind`` that never failed.

        Every workload has at least 200 such ops, so the 95th percentile has
        at least ten ops beyond it.
        """
        samples = [t for t, k, ok in zip(self.best, self.kinds, self.ok) if k == kind and ok]
        if pct == 50:
            return statistics.median(samples) * 1e3
        return statistics.quantiles(samples, n=100)[pct - 1] * 1e3

    def median_ms(self, kind: str) -> float:
        return statistics.median([t for t, k in zip(self.best, self.kinds) if k == kind]) * 1e3


@dataclass(frozen=True)
class Layer:
    """A function the benchmark calls, as ``<module>.<fn>``."""

    module: str
    fn: str
    kind: str = "call"  # "call", "outcome" (counts non-None results) or "iter"

    @property
    def name(self) -> str:
        return f"{self.module}.{self.fn}"


def bind(mods: SimpleNamespace, layers: tuple[Layer, ...], tracer: Optional[Tracer]) -> SimpleNamespace:
    """The layer functions, each wrapped in a span when tracing."""
    api = {}
    for layer in layers:
        if layer.module == "eq":
            fn = operator.eq
        else:
            fn = getattr(getattr(mods, layer.module), layer.fn)
        api[layer.fn] = _traced(tracer, layer, fn)
    return SimpleNamespace(**api)


def _traced(tracer: Optional[Tracer], layer: Layer, fn: Callable) -> Callable:
    if tracer is None:
        return fn
    if layer.kind == "iter":
        return tracer.wrap_iter(layer.name, fn)
    return tracer.wrap(layer.name, fn, outcome=layer.kind == "outcome")


def _stratified_typed_terms(mods, rng: random.Random, sizes: range, per_stratum: int,
                            types=None, accept: Callable[[Any], bool] = lambda t: True):
    """(type, term) pairs: ``per_stratum`` accepted draws for every size and type."""
    drawn = []
    for size in sizes:
        for ty in types or mods.typecheck.LangType:
            kept = 0
            while kept < per_stratum:
                t = mods.generate.random_typed_term(rng, ty, size)
                if accept(t):
                    drawn.append((ty, t))
                    kept += 1
    return drawn


def _mono_trace(mods, t) -> tuple[Any, Any, int]:
    """Reference from the monolithic twin: type, normal form and step count."""
    m = mods.oracle.embed(t)
    ty = mods.oracle.mono_infer(m)
    steps = 0
    while True:
        after = mods.oracle.mono_step(m)
        if after is None:
            return ty, m, steps
        m, steps = after, steps + 1


class Workload:
    """Defaults for the workloads below."""

    def prepare(self, inputs: SimpleNamespace) -> None:
        """Compute the reference outputs, after set-up and untimed."""

    def deep_inputs(self, inputs: SimpleNamespace) -> Round:
        """Probe requests made once per run, outside the rounds and their counts."""
        return Round()


# --------------------------------------------------------------------------
# enum-sweep: the acceptance gate's fused pass over a fixed enumeration prefix


class EnumSweep(Workload):
    """Why: nearly every term is ill-typed and tiny, so the injection-spine
    destructors reached through ``infer`` and ``embed``, plus enumeration, do
    almost all the work and derivation validation almost none.  No seed: the
    prefix is fixed, so its counts repeat exactly."""

    name = "enum-sweep"
    LATENCY_KIND = "term"
    DEPTH = 2
    LITERALS = (0, 1)
    # Every typed term of the enumeration comes within its first 2,000, so
    # this prefix keeps the whole typed population; a short round gives each
    # term more repeats in a run, which steadies the per-term minimum.
    PREFIX = 4_000
    LAYERS = (
        Layer("generate", "enumerate_terms", "iter"),
        Layer("typecheck", "infer", "outcome"),
        Layer("semantics", "drive_step", "outcome"),
        Layer("lang", "is_value"),
        Layer("preservation", "preserve"),
        Layer("typecheck", "validate_typing"),
        Layer("oracle", "embed"),
        Layer("oracle", "mono_infer"),
        Layer("oracle", "mono_step"),
    )
    SPANNED = LAYERS

    def setup(self, seed: int) -> SimpleNamespace:
        return SimpleNamespace(mods=import_fresh())

    def run_round(self, inputs: SimpleNamespace, api: SimpleNamespace, tracer: Optional[Tracer]) -> Round:
        r = Round(counts=dict.fromkeys(
            ("terms", "ill_typed", "value", "typed_stuck", "typed_steppable", "stepped"), 0))
        agreement = []  # (op, term, modular type, mono type, modular target, mono target)
        clock = perf_counter
        terms = api.enumerate_terms(self.DEPTH, self.LITERALS)
        for op in range(self.PREFIX):
            if tracer is not None:
                tracer.new_request()
            started = clock()
            try:
                t = next(terms)
                typed = api.infer(t)
                stepped = api.drive_step(t)
                value = api.is_value(t)
                preserved = True
                if typed is not None and stepped is not None:
                    wt = api.preserve(stepped[1], typed[1])
                    preserved = api.validate_typing(wt, stepped[0], typed[0])
                m = api.embed(t)
                mono_ty = api.mono_infer(m)
                modular_target = None if stepped is None else api.embed(stepped[0])
                mono_target = api.mono_step(m)
            except Exception as exc:  # an escaping exception fails the op
                r.op("term", clock() - started)
                r.fail(op, f"enum-sweep term {op}: {exc!r}")
                continue
            r.op("term", clock() - started)
            r.work += 1
            r.counts["terms"] += 1
            if typed is None:
                r.counts["ill_typed"] += 1
            elif value:
                r.counts["value"] += 1
            elif stepped is None:
                r.counts["typed_stuck"] += 1
            else:
                r.counts["typed_steppable"] += 1
            r.counts["stepped"] += stepped is not None
            if not preserved or (value and stepped is not None):
                r.fail(op, f"enum-sweep term {op}: preservation or value check failed on {inputs.mods.surface.render(t)}")
            agreement.append((op, t, None if typed is None else typed[0], mono_ty, modular_target, mono_target))
        render = inputs.mods.surface.render
        for op, t, ty, mono_ty, target, mono_target in agreement:
            if ty is not mono_ty or target != mono_target:
                r.fail(op, f"enum-sweep term {op}: modular and monolithic results differ on {render(t)}")
        return r

    def expected_counts(self, inputs: SimpleNamespace, recorded: dict) -> Optional[dict]:
        return recorded.get(self.name, {}).get(str(self.PREFIX))

    def report(self, summary: Summary) -> list[tuple[str, float, str]]:
        return [("sweep_terms_per_s", summary.throughput(), "terms/s")]


# --------------------------------------------------------------------------
# typed-traces: well-typed terms traced to normal form, every step checked


class TypedTraces(Workload):
    """Why: every term builds and checks derivations, so structural equality,
    the validators, ``preserve`` and the s-expression form do the work, and
    enumeration and the oracle do none.  Only terms that take at least one
    step are drawn; array-typed terms never step, so the draws are of
    naturals and options (whose lookups type arrays inside them)."""

    name = "typed-traces"
    LATENCY_KIND = "step"  # percentiles cover the checks of one step
    SIZES = range(1, 21)
    PER_STRATUM = 5
    FUEL = 10_000
    LAYERS = (
        Layer("typecheck", "infer", "outcome"),
        Layer("semantics", "trace"),
        Layer("semantics", "validate_step"),
        Layer("preservation", "preserve"),
        Layer("typecheck", "validate_typing"),
        Layer("sexpr", "render_derivation"),
        Layer("sexpr", "parse_derivation"),
        Layer("sexpr", "elaborate_step"),
        Layer("eq", "derivation"),
    )
    SPANNED = LAYERS

    def setup(self, seed: int) -> SimpleNamespace:
        mods = import_fresh()
        LangType = mods.typecheck.LangType
        terms = _stratified_typed_terms(
            mods, random.Random(seed), self.SIZES, self.PER_STRATUM,
            types=(LangType.NAT, LangType.OPTION),
            accept=lambda t: mods.semantics.drive_step(t) is not None)
        return SimpleNamespace(mods=mods, terms=terms)

    def prepare(self, inputs: SimpleNamespace) -> None:
        inputs.reference = [_mono_trace(inputs.mods, t) for _, t in inputs.terms]

    def run_round(self, inputs: SimpleNamespace, api: SimpleNamespace, tracer: Optional[Tracer]) -> Round:
        r = Round(counts={"terms": 0, "steps.total": 0})
        outputs = []  # (op of the term's trace, type, normal form, steps, all checks passed)
        clock = perf_counter
        for index, (_, t) in enumerate(inputs.terms):
            if tracer is not None:
                tracer.new_request()
            op = r.attempted
            started = clock()
            try:
                ty, wt = api.infer(t)
                steps = api.trace(t, self.FUEL)
            except Exception as exc:  # an escaping exception fails the op
                r.op("trace", clock() - started)
                r.fail(op, f"typed-traces term {index}: {exc!r}")
                continue
            r.op("trace", clock() - started)
            valid = True
            source = t
            for target, d in steps:
                started = clock()
                try:
                    checked = api.validate_step(d, source, target)
                    wt = api.preserve(d, wt)
                    checked &= api.validate_typing(wt, target, ty)
                    skeleton = api.parse_derivation(api.render_derivation(d))
                    checked &= api.derivation(api.elaborate_step(skeleton, source), d)
                    checked &= api.derivation(api.parse_derivation(api.render_derivation(wt)), wt)
                except Exception as exc:  # an escaping exception fails the op
                    r.op("step", clock() - started)
                    r.fail(r.attempted - 1, f"typed-traces term {index}: {exc!r}")
                    break
                r.op("step", clock() - started)
                valid &= checked
                source = target
            r.work += len(steps)
            r.counts["terms"] += 1
            r.counts["steps.total"] += len(steps)
            outputs.append((op, index, ty, source, len(steps), valid))
        embed = inputs.mods.oracle.embed
        for op, index, ty, final, n_steps, valid in outputs:
            mono_ty, mono_nf, mono_steps = inputs.reference[index]
            if not valid or ty is not mono_ty or n_steps != mono_steps or embed(final) != mono_nf:
                text = inputs.mods.surface.render(inputs.terms[index][1])
                r.fail(op, f"typed-traces term {index}: differs from the monolithic twin or fails a check on {text}")
        return r

    def expected_counts(self, inputs: SimpleNamespace, recorded: dict) -> dict:
        return {
            "terms": len(inputs.terms),
            "steps.total": sum(steps for _, _, steps in inputs.reference),
        }

    def report(self, summary: Summary) -> list[tuple[str, float, str]]:
        return [("checked_steps_per_s", summary.throughput(), "steps/s")]


# --------------------------------------------------------------------------
# cli-session: fraglang.cli.main called in-process


@dataclass
class Request:
    argv: list[str]
    kind: str  # "text", "chain.n<N>" or "selftest"
    expect_code: int
    check: Callable[[str], bool]


def call_main(main: Callable, argv: list[str]) -> tuple[float, Any, str]:
    """Run one request: (seconds, exit code or the escaping exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaping exception fails the request
        code = exc
    return perf_counter() - started, code, out.getvalue()


class CliSession(Workload):
    """Why: surface parse/render, per-step rendering and ``cli`` dispatch
    carry the small requests; the ``1 + ... + 1`` chains expose the
    superlinear trace on terms far larger than elsewhere; ``selftest`` runs
    the property sweeps."""

    name = "cli-session"
    LATENCY_KIND = "text"  # percentiles cover the seeded-text requests only
    SIZES = range(1, 21)
    PER_STRATUM = 4
    CHAINS = (100, 200, 400)
    # A round runs the seeded-text requests once before each chain, so each
    # text request gets three repeats a round, spread over its seconds.
    TEXT_PASSES = len(CHAINS)
    # Inputs that overflow the recursive core today; exit 1 under a
    # documented limit (or a correct answer) would count as success.
    DEEP_CHAIN = 1_500
    DEEP_PARENS = 3_000
    # Every function ``fraglang.cli`` imports from the other modules.
    CLI_IMPORTS = (
        Layer("generate", "enumerate_terms", "iter"),
        Layer("generate", "random_term"),
        Layer("preservation", "preserve"),
        Layer("semantics", "drive_step", "outcome"),
        Layer("semantics", "trace"),
        Layer("sexpr", "parse_derivation"),
        Layer("sexpr", "render_derivation"),
        Layer("surface", "parse"),
        Layer("surface", "render"),
        Layer("sweeps", "driver_sweep"),
        Layer("sweeps", "oracle_sweep"),
        Layer("sweeps", "preservation_sweep"),
        Layer("sweeps", "trace_sweep"),
        Layer("typecheck", "infer", "outcome"),
        Layer("typecheck", "validate_typing"),
    )
    LAYERS = (Layer("cli", "main"),)
    SPANNED = LAYERS + CLI_IMPORTS

    def setup(self, seed: int) -> SimpleNamespace:
        mods = import_fresh()
        rng = random.Random(seed)
        typed = _stratified_typed_terms(mods, rng, self.SIZES, self.PER_STRATUM)
        return SimpleNamespace(
            mods=mods,
            texts=[mods.surface.render(t) for _, t in typed],
            chains={n: " + ".join(["1"] * n) for n in self.CHAINS},
        )

    def prepare(self, inputs: SimpleNamespace) -> None:
        """The distinct requests, and a round's plan of indices into them."""
        mods = inputs.mods
        inputs.requests = requests = []
        for text in inputs.texts:
            ty, nf, steps = _mono_trace(mods, mods.surface.parse(text))
            eval_fits = steps <= 64  # the CLI's default fuel
            requests.append(Request(["check", text], "text", 0, _first_line_is(ty.value)))
            requests.append(Request(
                ["eval", "--trace", text], "text", 0 if eval_fits else 1,
                _normal_form_is(mods, nf, steps) if eval_fits else _any))
            requests.append(Request(
                ["preserve", text], "text", 0 if steps else 1, _lines_are(3) if steps else _any))
        texts = list(range(len(requests)))
        inputs.plan = []
        for n, text in inputs.chains.items():
            inputs.plan += texts + [len(requests)]
            requests.append(Request(
                ["eval", "--trace", "--fuel", str(n), text], f"chain.n{n}", 0,
                _chain_result_is(n)))
        inputs.plan.append(len(requests))
        requests.append(Request(["selftest", "--depth", "1"], "selftest", 0, _all_pass))

    def run_round(self, inputs: SimpleNamespace, api: SimpleNamespace, tracer: Optional[Tracer]) -> Round:
        r = Round(counts={"requests.by_exit_code.0": 0, "requests.by_exit_code.1": 0,
                          "requests.by_exit_code.2": 0})
        cli = inputs.mods.cli
        saved = {}
        if tracer is not None:
            # A name cli no longer imports records no spans, which fails
            # the traced run's coverage check.
            for layer in self.CLI_IMPORTS:
                if hasattr(cli, layer.fn):
                    saved[layer.fn] = getattr(cli, layer.fn)
                    setattr(cli, layer.fn, _traced(tracer, layer, saved[layer.fn]))
        try:
            for key in inputs.plan:
                if tracer is not None:
                    tracer.new_request()
                request = inputs.requests[key]
                seconds, code, out = call_main(api.main, request.argv)
                self._record(r, key, request, seconds, code, out)
        finally:
            for fn, original in saved.items():
                setattr(cli, fn, original)
        return r

    def _record(self, r: Round, key: int, request: Request, seconds: float, code: Any, out: str) -> None:
        op = r.attempted
        r.op(request.kind, seconds, key)
        key = f"requests.by_exit_code.{code}"
        if key in r.counts:
            r.counts[key] += 1
        if code != request.expect_code:
            r.fail(op, f"cli-session {request.argv[0]}: exit {code!r}, expected {request.expect_code}")
        elif not request.check(out):
            r.fail(op, f"cli-session {request.argv[0]}: output differs from the reference")
        else:
            r.work += 1

    def deep_inputs(self, inputs: SimpleNamespace) -> Round:
        """Deep-input requests, once per run; they fail with RecursionError today."""
        r = Round()
        nat = inputs.mods.typecheck.LangType.NAT.value
        deep = {
            f"chain of {self.DEEP_CHAIN}": " + ".join(["1"] * self.DEEP_CHAIN),
            f"{self.DEEP_PARENS} nested parentheses": "(" * self.DEEP_PARENS + "1" + ")" * self.DEEP_PARENS,
        }
        for op, (label, text) in enumerate(deep.items()):
            seconds, code, out = call_main(inputs.mods.cli.main, ["check", text])
            r.op("deep", seconds)
            if code == 1 or (code == 0 and _first_line_is(nat)(out)):
                r.work += 1
            else:
                r.fail(op, f"cli-session check on {label}: {code!r}")
        return r

    def expected_counts(self, inputs: SimpleNamespace, recorded: dict) -> dict:
        tally = {"requests.by_exit_code.0": 0, "requests.by_exit_code.1": 0,
                 "requests.by_exit_code.2": 0}
        for key in inputs.plan:
            tally[f"requests.by_exit_code.{inputs.requests[key].expect_code}"] += 1
        return tally

    def report(self, summary: Summary) -> list[tuple[str, float, str]]:
        lines = [
            ("request_p50_ms", summary.percentile_ms(self.LATENCY_KIND, 50), "ms"),
            ("request_p95_ms", summary.percentile_ms(self.LATENCY_KIND, 95), "ms"),
        ]
        for n in self.CHAINS:
            lines.append((f"eval_chain_ms.n{n}", summary.median_ms(f"chain.n{n}"), "ms"))
        lines.append(("selftest_ms", summary.median_ms("selftest"), "ms"))
        return lines


def _any(out: str) -> bool:
    return True


def _first_line_is(expected: str) -> Callable[[str], bool]:
    return lambda out: out.split("\n", 1)[0] == expected


def _lines_are(count: int) -> Callable[[str], bool]:
    return lambda out: len(out.splitlines()) == count


def _normal_form_is(mods, nf, steps: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = out.splitlines()
        if len(lines) != steps + 1 or not all(line.startswith("--> ") for line in lines[:-1]):
            return False
        return mods.oracle.embed(mods.surface.parse(lines[-1])) == nf
    return check


def _chain_result_is(n: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = out.splitlines()
        return len(lines) == n and lines[-1] == str(n)
    return check


def _all_pass(out: str) -> bool:
    lines = out.splitlines()
    return len(lines) == 5 and all(line.startswith("PASS ") for line in lines)


WORKLOADS = {w.name: w for w in (EnumSweep(), TypedTraces(), CliSession())}
