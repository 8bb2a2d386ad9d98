"""detlint per-file rule set, expressed over the token stream.

Each rule names the determinism invariant or repo convention it guards.
Scopes are directories relative to the lint root (normally src/).  See
DESIGN.md §8 and §12 for the rationale behind every rule.

All eleven rules from the regex engine are ported here as token
matchers: identifier rules match whole identifier tokens (no substring
false positives, no lookbehind hacks), call rules require an actual
``(`` token, and the structural rules (unordered-iteration declarations,
Model entry-point bodies) use real template-argument and brace matching
instead of bounded regex windows.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Set

from .engine import Finding, Rule, SourceFile
from .lexer import Token


def _next(tokens: Sequence[Token], i: int) -> Optional[Token]:
    return tokens[i + 1] if i + 1 < len(tokens) else None


def _is_call(tokens: Sequence[Token], i: int) -> bool:
    nxt = _next(tokens, i)
    return nxt is not None and nxt.kind == "punct" and nxt.text == "("


def _skip_template_args(tokens: Sequence[Token], i: int) -> int:
    """With tokens[i] == '<', return the index just past the matching
    '>' (treating '>>' as two closers, as C++ has since C++11). Returns
    i unchanged if the angle brackets never balance."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text in (";", "{"):
                return i  # not a template argument list after all
            if depth <= 0 and t.text in (">", ">>"):
                return j + 1
        j += 1
    return i


def _matching_close(tokens: Sequence[Token], i: int, open_: str,
                    close: str) -> int:
    """tokens[i] must be `open_`; returns the index of the matching
    `close`, or len(tokens) if unbalanced."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j]
        if t.kind == "punct":
            if t.text == open_:
                depth += 1
            elif t.text == close:
                depth -= 1
                if depth == 0:
                    return j
    return len(tokens)


def _ident_rule(name: str, description: str, message: str, *,
                idents: Sequence[str] = (),
                called_idents: Sequence[str] = (),
                ident_pattern: Optional[str] = None,
                scope: Optional[Sequence[str]] = None,
                exclude: Optional[Sequence[str]] = None) -> Rule:
    """Rule that flags identifier tokens: `idents` match anywhere,
    `called_idents` only when followed by '(', `ident_pattern` is a
    full-token regex matched anywhere."""
    ident_set = set(idents)
    called_set = set(called_idents)
    rx = re.compile(ident_pattern) if ident_pattern else None

    def check(f: SourceFile) -> Iterable[Finding]:
        if scope is not None and not f.in_dir(*scope):
            return
        if exclude is not None and any(
                f.rel == e or f.rel.startswith(e) for e in exclude):
            return
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident":
                continue
            if (t.text in ident_set
                    or (t.text in called_set and _is_call(ts, i))
                    or (rx is not None and rx.fullmatch(t.text))):
                yield Finding(f.rel, t.line, name, message)

    return Rule(name, description, check)


# --- nondeterminism sources -------------------------------------------------

RULE_RANDOM_DEVICE = _ident_rule(
    "banned-random-device",
    "std::random_device draws hardware entropy; every RNG stream must "
    "derive from an explicit seed_t (src/rng) so runs replay bit-exactly.",
    "std::random_device is nondeterministic; seed an hm::rng stream instead",
    idents=("random_device",),
)

RULE_C_RANDOM = _ident_rule(
    "banned-c-random",
    "rand()/srand()/rand_r() use hidden global state with "
    "implementation-defined sequences; results differ across libcs.",
    "C rand()/srand() is banned; use hm::rng::Xoshiro256",
    called_idents=("rand", "srand", "rand_r"),
)

RULE_WALL_CLOCK = _ident_rule(
    "banned-wall-clock",
    "Wall-clock reads (time(), clock(), system_clock, "
    "high_resolution_clock) leak the host's clock into results or seeds. "
    "Timing measurements use steady_clock via hm::Stopwatch.",
    "wall-clock access is banned in src/; use hm::Stopwatch (steady_clock) "
    "for timing and explicit seeds for RNG",
    idents=("system_clock", "high_resolution_clock"),
    called_idents=("time", "clock"),
)

class _UnorderedAccumRule(Rule):
    """std::reduce / std::transform_reduce calls and `execution::`
    (parallel execution policies) — both reassociate floating-point
    sums, so totals depend on the implementation's chunking."""

    NAME = "unordered-accumulation"

    def __init__(self):
        super().__init__(
            self.NAME,
            "std::reduce / std::transform_reduce / parallel execution "
            "policies reassociate floating-point sums, so totals depend "
            "on the implementation's chunking. Numeric code uses the "
            "fixed-order hm::tensor reductions or std::accumulate.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        msg = ("unordered accumulation primitive; use hm::tensor::sum/dot "
               "or std::accumulate (fixed order)")
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident":
                continue
            if t.text in ("reduce", "transform_reduce") and _is_call(ts, i):
                yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.text == "execution":
                nxt = _next(ts, i)
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text == "::":
                    yield Finding(f.rel, t.line, self.NAME, msg)


RULE_FLOAT_IN_KERNEL = _ident_rule(
    "float-narrowing-in-kernel",
    "Kernels compute in scalar_t (double). A float temporary inserts a "
    "double->float->double narrowing round-trip that silently changes "
    "results vs. the scalar references the tests compare against.",
    "float in a kernel narrows scalar_t arithmetic; use scalar_t",
    idents=("float",),
    scope=("tensor",),
)


class _RawSimdRule(Rule):
    """ISA-specific SIMD outside src/tensor: intrinsics headers,
    _mm* calls, __m128/256/512 vector types, ia32 builtins."""

    NAME = "raw-simd-outside-tensor"
    HEADER_RE = re.compile(r"\w*intrin\.h$|arm_neon\.h$")
    CALL_RE = re.compile(r"_mm\d*_\w+")
    TYPE_RE = re.compile(r"__m(?:128|256|512)[di]?|__builtin_ia32_\w+")

    def __init__(self):
        super().__init__(
            self.NAME,
            "ISA-specific SIMD (intrinsics headers, _mm* calls, "
            "__m128/256/512 vector types, ia32 builtins) is confined to "
            "src/tensor: the runtime dispatch layer there is the one place "
            "allowed to know about vector widths, and every variant it "
            "builds is bit-compared against the generic kernels "
            "(tests/test_simd.cpp). An intrinsic anywhere else forks the "
            "rounding/width behavior per build flag with no oracle.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if f.in_dir("tensor"):
            return
        msg = ("raw SIMD intrinsic outside src/tensor; call the tensor "
               "kernels and let runtime dispatch pick the ISA")
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind in ("header", "string"):
                # '<immintrin.h>' / "immintrin.h" include operands.
                name = t.text.strip('<>"')
                if self.HEADER_RE.search(name):
                    yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.kind == "ident":
                if self.TYPE_RE.fullmatch(t.text) or (
                        self.CALL_RE.fullmatch(t.text)
                        and _is_call(ts, i)):
                    yield Finding(f.rel, t.line, self.NAME, msg)


class _UnorderedIterationRule(Rule):
    """Iteration over std::unordered_{map,set} in deterministic modules.

    Hash-container iteration order is unspecified and varies with libc++,
    load factor, and pointer values; iterating one inside src/algo,
    src/sim, or src/metrics reorders float accumulation or client visit
    order between hosts. Keyed lookup (find/at/[]/count/contains) is fine.
    """

    NAME = "unordered-iteration"
    SCOPE = ("algo", "sim", "metrics")
    UNORDERED = {"unordered_map", "unordered_set",
                 "unordered_multimap", "unordered_multiset"}
    BEGIN = {"begin", "cbegin", "rbegin", "crbegin"}
    DECL_TERMINATORS = {";", ",", ")", "(", "{", "=", "["}

    def __init__(self):
        super().__init__(
            self.NAME,
            "Iterating a std::unordered_map/set yields an unspecified, "
            "host-dependent order; inside src/algo, src/sim, and "
            "src/metrics that order reaches float accumulation and "
            "scheduling decisions. Use std::map/std::vector, or sort keys "
            "before iterating.",
            self._check)

    def _declared_names(self, ts: Sequence[Token]) -> Set[str]:
        """Names declared with an unordered container type: after the
        container identifier, skip its template arguments and any &/*
        qualifiers; the next identifier followed by a declarator
        terminator is the declared name (locals, members, parameters)."""
        names: Set[str] = set()
        for i, t in enumerate(ts):
            if t.kind != "ident" or t.text not in self.UNORDERED:
                continue
            j = i + 1
            if j < len(ts) and ts[j].kind == "punct" and ts[j].text == "<":
                j = _skip_template_args(ts, j)
                if j == i + 1:
                    continue  # unbalanced; not a declaration
            while j < len(ts) and ts[j].kind == "punct" \
                    and ts[j].text in ("&", "*", "&&"):
                j += 1
            if j < len(ts) and ts[j].kind == "ident":
                nxt = _next(ts, j)
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text in self.DECL_TERMINATORS:
                    names.add(ts[j].text)
        return names

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if not f.in_dir(*self.SCOPE):
            return
        ts = f.code_tokens
        names = self._declared_names(ts)
        msg = ("iteration over an unordered container has host-dependent "
               "order; use an ordered container or sort the keys first")
        for i, t in enumerate(ts):
            # Range-for whose range expression mentions a tracked name or
            # an unordered container type (temporaries).
            if t.kind == "ident" and t.text == "for" and _is_call(ts, i):
                close = _matching_close(ts, i + 1, "(", ")")
                head = ts[i + 2:close]
                colon = next((k for k, h in enumerate(head)
                              if h.kind == "punct" and h.text == ":"), None)
                if colon is not None:
                    for h in head[colon + 1:]:
                        if h.kind == "ident" and (
                                h.text in names
                                or h.text in self.UNORDERED):
                            yield Finding(f.rel, t.line, self.NAME, msg)
                            break
            # name.begin() / name.cbegin() — explicit iteration start.
            # A bare .end() in a find() comparison is keyed lookup and
            # stays legal.
            elif (t.kind == "ident" and t.text in names
                  and i + 2 < len(ts)
                  and ts[i + 1].kind == "punct" and ts[i + 1].text == "."
                  and ts[i + 2].kind == "ident"
                  and ts[i + 2].text in self.BEGIN
                  and _is_call(ts, i + 2)):
                yield Finding(f.rel, t.line, self.NAME, msg)


# --- repo conventions -------------------------------------------------------


class _OpenMpRule(Rule):
    """#pragma omp — OpenMP bypasses hm::parallel's deterministic
    chunking (and the build does not pass -fopenmp)."""

    def __init__(self):
        super().__init__(
            "no-openmp",
            "Threading goes through hm::parallel exclusively — its "
            "chunking is what makes reductions thread-count-invariant. An "
            "OpenMP pragma bypasses that contract (and the build does not "
            "pass -fopenmp).",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind == "pp" and t.text == "pragma":
                nxt = _next(ts, i)
                if nxt is not None and nxt.kind == "ident" \
                        and nxt.text == "omp":
                    yield Finding(
                        f.rel, t.line, self.name,
                        "#pragma omp bypasses hm::parallel's deterministic "
                        "chunking")


class _StdoutRule(Rule):
    """Direct stdout writes outside src/core/log."""

    NAME = "stray-stdout"

    def __init__(self):
        super().__init__(
            self.NAME,
            "All user-facing output flows through src/core/log so "
            "verbosity is centrally controlled and benchmark stdout stays "
            "machine-parseable.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if f.in_dir("core/log") or f.rel.startswith("core/log"):
            return
        msg = "direct stdout write outside src/core/log; use hm::log"
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident":
                continue
            if t.text == "cout":
                # std::cout (or any qualified ::cout).
                if i > 0 and ts[i - 1].kind == "punct" \
                        and ts[i - 1].text == "::":
                    yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.text in ("printf", "puts") and _is_call(ts, i):
                yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.text == "fprintf" and _is_call(ts, i):
                nxt = ts[i + 2] if i + 2 < len(ts) else None
                if nxt is not None and nxt.kind == "ident" \
                        and nxt.text == "stdout":
                    yield Finding(f.rel, t.line, self.NAME, msg)


class _StderrRule(Rule):
    """Direct stderr writes outside src/core/log.

    Diagnostics must flow through hm::log so --log-level / HM_LOG_LEVEL
    control them and multi-process (socket transport) runs interleave
    line-atomically. The one sanctioned exception — the abort path in
    core/check.hpp, which cannot risk re-entering the logger — carries
    an inline ``detlint: allow(stray-stderr)``.
    """

    NAME = "stray-stderr"

    def __init__(self):
        super().__init__(
            self.NAME,
            "Diagnostics flow through src/core/log so --log-level / "
            "HM_LOG_LEVEL gate them and worker processes never tear each "
            "other's lines; raw stderr writes bypass both.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if f.in_dir("core/log") or f.rel.startswith("core/log"):
            return
        msg = "direct stderr write outside src/core/log; use hm::log"
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident":
                continue
            if t.text == "cerr":
                # std::cerr (or any qualified ::cerr).
                if i > 0 and ts[i - 1].kind == "punct" \
                        and ts[i - 1].text == "::":
                    yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.text == "perror" and _is_call(ts, i):
                yield Finding(f.rel, t.line, self.NAME, msg)
            elif t.text == "fprintf" and _is_call(ts, i):
                nxt = ts[i + 2] if i + 2 < len(ts) else None
                if nxt is not None and nxt.kind == "ident" \
                        and nxt.text == "stderr":
                    yield Finding(f.rel, t.line, self.NAME, msg)


# --- observability contract (DESIGN.md §15) ---------------------------------


class _ObsInKernelRule(Rule):
    """Observability hooks inside src/tensor kernels.

    The determinism contract keeps the tensor math layer free of obs
    instrumentation: a counter bump per kernel invocation would sit on
    the hottest loops in the codebase, and the zero-perturbation claim
    (bit-identical trajectories with obs on/idle/compiled-out) is only
    cheap to audit if the kernels provably contain no hooks at all.
    Kernel-level activity is attributed from the call sites one layer
    up (trainers, ClusterSim, the thread pool). The single exception is
    tensor/simd.cpp, which publishes the run's SIMD dispatch decision —
    once, at startup, outside any kernel.
    """

    NAME = "obs-in-kernel"
    SCOPE = ("tensor",)
    ALLOWED = ("tensor/simd.cpp",)
    HOOK_RE = re.compile(r"HM_OBS_\w+")

    def __init__(self):
        super().__init__(
            self.NAME,
            "src/tensor kernels must stay free of observability hooks "
            "(HM_OBS_* macros, hm::obs calls): they sit on the hottest "
            "loops and would make the zero-perturbation contract "
            "unauditable. Attribute kernel work from the call sites one "
            "layer up; only tensor/simd.cpp may publish its dispatch "
            "decision.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if not f.in_dir(*self.SCOPE):
            return
        if f.rel in self.ALLOWED:
            return
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident":
                continue
            if self.HOOK_RE.fullmatch(t.text):
                yield Finding(
                    f.rel, t.line, self.NAME,
                    f"{t.text} inside a tensor kernel; attribute this "
                    "from the calling layer instead")
            elif t.text == "obs":
                nxt = _next(ts, i)
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text == "::":
                    yield Finding(
                        f.rel, t.line, self.NAME,
                        "hm::obs call inside a tensor kernel; attribute "
                        "this from the calling layer instead")


class _ObsClockRule(Rule):
    """Clock reads in src/obs outside the designated timing TU.

    The obs determinism contract separates channels: value-channel
    payloads must be pure functions of (seed, config), so nothing in
    the metrics registry or manifest may observe a clock. All time
    acquisition lives in obs/trace.cpp (steady_clock only, feeding
    span timestamps on the timing channel). A clock read anywhere else
    in src/obs is a contract breach waiting to leak into a metric.
    """

    NAME = "obs-clock-outside-timing"
    SCOPE = ("obs",)
    ALLOWED = ("obs/trace.cpp",)
    CLOCK_IDENTS = ("chrono", "steady_clock", "Stopwatch", "clock_gettime",
                    "gettimeofday", "timespec")

    def __init__(self):
        super().__init__(
            self.NAME,
            "Value-channel metric payloads must be pure functions of "
            "(seed, config); every clock read in src/obs is confined to "
            "obs/trace.cpp, which stamps span timestamps on the timing "
            "channel. A clock anywhere else in src/obs can leak wall "
            "time into a metric value.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if not f.in_dir(*self.SCOPE):
            return
        if f.rel in self.ALLOWED:
            return
        ts = f.code_tokens
        for t in ts:
            if t.kind == "ident" and t.text in self.CLOCK_IDENTS:
                yield Finding(
                    f.rel, t.line, self.NAME,
                    f"clock access ({t.text}) in src/obs outside "
                    "obs/trace.cpp; time belongs to the timing channel "
                    "only")


RULE_PERSISTENCE = _ident_rule(
    "direct-persistence",
    "Durable artifacts must go through src/io: its temp-file + fsync + "
    "atomic-rename protocol with checksums is what makes writes crash-safe "
    "and loads corruption-tolerant. A stray ofstream/fopen/rename "
    "elsewhere can leave a torn, unchecksummed file behind a crash.",
    "direct file persistence outside src/io; route writes through the "
    "crash-safe io layer (io::atomic_write_file / io::save_*)",
    idents=("ofstream", "filesystem"),
    called_idents=("fopen", "freopen", "rename", "remove", "unlink"),
    exclude=("io",),
)


RULE_RAW_TRANSPORT = _ident_rule(
    "raw-transport-syscall",
    "Raw process/socket syscalls (fork, socketpair, send/recv, poll, "
    "waitpid, kill, ...) are the transport layer's business: src/net owns "
    "worker lifecycle, framing, and deadlines. A stray fork or send "
    "elsewhere bypasses the robustness envelope (retries, liveness "
    "tracking, orderly shutdown) and can leak fds or zombie processes.",
    "raw transport/process syscall outside src/net; route it through "
    "net::Transport",
    called_idents=("fork", "vfork", "socketpair", "send", "recv", "poll",
                   "waitpid", "kill", "pipe", "accept", "connect", "bind",
                   "listen", "prctl", "sigaction", "signal"),
    exclude=("net",),
)


class _HiddenGlobalPoolRule(Rule):
    """ThreadPool::global() outside src/parallel.

    The execution context is explicit: a trainer receives its pool and
    hands it down (to the device jobs, the aggregations, the one kernel
    that splits), and a null pool means serial. A call that reaches the
    process-wide pool instead runs on threads the caller never asked
    for: a 1-thread pool is no longer one thread, and a forked socket
    worker that inherited the pool finds it without its threads.
    """

    NAME = "hidden-global-pool"
    OWNER = ("parallel",)

    def __init__(self):
        super().__init__(
            self.NAME,
            "Work reaches a thread pool only through a pool its caller "
            "passes; ThreadPool::global() is confined to src/parallel, "
            "so a pool's size is the thread count and a forked worker "
            "never touches a pool it inherited.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if f.in_dir(*self.OWNER):
            return
        ts = f.code_tokens
        for i in range(len(ts) - 2):
            if (ts[i].kind == "ident" and ts[i].text == "ThreadPool"
                    and ts[i + 1].kind == "punct" and ts[i + 1].text == "::"
                    and ts[i + 2].kind == "ident"
                    and ts[i + 2].text == "global"):
                yield Finding(
                    f.rel, ts[i].line, self.NAME,
                    "ThreadPool::global() outside src/parallel; take the "
                    "pool from the caller (null = serial)")


class _ModelEntryCheckRule(Rule):
    """Every public Model entry point must open with HM_CHECK guards.

    The Model interface takes caller-owned spans (parameters, batches,
    outputs); an unguarded size mismatch is a silent out-of-bounds read.
    The rule accepts any HM_CHECK* within the first WINDOW lines of the
    definition body (real brace matching bounds the body, so a guard in
    the *next* definition can never satisfy this one).
    """

    NAME = "model-entry-unchecked"
    SCOPE = ("nn",)
    METHODS = {"init_params", "loss_and_grad", "sgd_step", "loss", "predict"}
    WINDOW = 40  # lines of body scanned for a check

    def __init__(self):
        super().__init__(
            self.NAME,
            "Public Model entry points (init_params, loss_and_grad, "
            "sgd_step, loss, predict) must guard their span/shape "
            "preconditions with HM_CHECK before touching caller memory.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if not f.in_dir(*self.SCOPE) or not f.rel.endswith(".cpp"):
            return
        ts = f.code_tokens
        for i, t in enumerate(ts):
            # Class::method( — a qualified definition or call.
            if not (t.kind == "ident" and i + 2 < len(ts)
                    and ts[i + 1].kind == "punct" and ts[i + 1].text == "::"
                    and ts[i + 2].kind == "ident"
                    and ts[i + 2].text in self.METHODS
                    and _is_call(ts, i + 2)):
                continue
            close = _matching_close(ts, i + 3, "(", ")")
            if close >= len(ts):
                continue
            # Definition, not a call: the next structural token after the
            # parameter list (past cv/ref/noexcept qualifiers) must open a
            # brace before any ';'.
            j = close + 1
            while j < len(ts) and not (
                    ts[j].kind == "punct" and ts[j].text in ("{", ";")):
                j += 1
            if j >= len(ts) or ts[j].text != "{":
                continue
            body_end = _matching_close(ts, j, "{", "}")
            deadline = t.line + self.WINDOW
            guarded = any(
                b.kind == "ident" and b.text.startswith("HM_CHECK")
                for b in ts[j:body_end] if b.line <= deadline)
            if not guarded:
                yield Finding(
                    f.rel, t.line, self.NAME,
                    f"{t.text}::{ts[i + 2].text} has no HM_CHECK guard in "
                    f"the first {self.WINDOW} lines of its body")


class _RawThreadRule(Rule):
    """Constructing a std::thread / std::jthread, or calling std::async,
    outside src/parallel and the snapshot writer (io/snapshot.*).
    std::thread::hardware_concurrency() and other static members are
    fine: they start nothing."""

    NAME = "raw-thread"
    ALLOWED = ("parallel/", "io/snapshot.")

    def __init__(self):
        super().__init__(
            self.NAME,
            "Threads come from a ThreadPool (src/parallel) or, for a "
            "snapshot write overlapping the next round, from the run's "
            "io::SnapshotWriter. Fork safety rests on that: a pool is "
            "refused in a forked child, and the writer is the only other "
            "thread and is joined before a trainer returns. A thread "
            "started anywhere else can hold a lock across the socket "
            "backend's fork() and can outlive the run.",
            self._check)

    def _check(self, f: SourceFile) -> Iterable[Finding]:
        if any(f.rel.startswith(a) for a in self.ALLOWED):
            return
        ts = f.code_tokens
        for i, t in enumerate(ts):
            if t.kind != "ident" or i < 2:
                continue
            if not (ts[i - 1].kind == "punct" and ts[i - 1].text == "::"
                    and ts[i - 2].kind == "ident"
                    and ts[i - 2].text == "std"):
                continue
            nxt = _next(ts, i)
            if t.text in ("thread", "jthread"):
                if nxt is not None and nxt.kind == "punct" \
                        and nxt.text == "::":
                    continue  # a static member, e.g. hardware_concurrency
                yield Finding(f.rel, t.line, self.NAME,
                              f"std::{t.text} outside src/parallel; run "
                              f"the work on the ThreadPool the caller "
                              f"passes")
            elif t.text == "async" and _is_call(ts, i):
                yield Finding(f.rel, t.line, self.NAME,
                              "std::async starts an unmanaged thread; run "
                              "the work on the ThreadPool the caller "
                              "passes")


ALL_RULES: List[Rule] = [
    RULE_RANDOM_DEVICE,
    RULE_C_RANDOM,
    RULE_WALL_CLOCK,
    _UnorderedAccumRule(),
    RULE_FLOAT_IN_KERNEL,
    _RawSimdRule(),
    _UnorderedIterationRule(),
    _OpenMpRule(),
    _StdoutRule(),
    _StderrRule(),
    _ObsInKernelRule(),
    _ObsClockRule(),
    RULE_PERSISTENCE,
    RULE_RAW_TRANSPORT,
    _HiddenGlobalPoolRule(),
    _ModelEntryCheckRule(),
    _RawThreadRule(),
]
