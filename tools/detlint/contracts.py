"""Cross-file contract checks.

These are the invariants that span translation units — the ones a
per-file linter structurally cannot see:

  * kernel-table-unpinned: every function pointer in
    src/tensor/simd.hpp's KernelTable must be exercised by the 0-ULP
    SIMD equivalence suite (tests/test_simd.cpp). A dispatched kernel
    nobody bit-compares is a silent per-ISA determinism fork.
  * trainer-not-in-resume-matrix: every `train_*` entry point declared
    in src/algo must appear in the kill-and-resume matrix
    (tests/test_snapshot.cpp) and in the trainer table
    (tests/test_util.hpp) whose rows tests/test_golden.cpp pins. A
    trainer outside the matrix can corrupt state across a crash, and one
    without a golden row can drift, without any test noticing.
  * undocumented-flag: every CLI flag read through hm::Flags in src/
    must be documented (as `--name`) in README.md or DESIGN.md. Flags
    only discoverable by reading the source rot instantly.
  * option-not-in-record: every field of TrainOptions, FaultSpec and
    SimplexSet must be a row of the options record (src/algo/options.cpp)
    or an entry, with a reason, in its exempt list. A field in neither
    could change between a snapshot and its resume unnoticed.

Each finding anchors at the source line that created the obligation
(the table field, the trainer declaration, the flag read), so inline
`detlint: allow(...)` markers and the baseline both apply naturally.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .engine import Finding, Project, ProjectRule, SourceFile
from .lexer import Token, string_value

KERNEL_TABLE_HEADER = "tensor/simd.hpp"
KERNEL_PIN_SUITE = "tests/test_simd.cpp"
TRAINER_MATRIX_SUITE = "tests/test_snapshot.cpp"
TRAINER_GOLDEN_SUITE = "tests/test_util.hpp"  # test_golden pins its rows
DOC_FILES = ("README.md", "DESIGN.md")


def _kernel_table_fields(src: SourceFile) -> List[Tuple[str, int]]:
    """(field name, line) of each function pointer declared inside
    `struct KernelTable { ... }` — fields have the shape
    `ret (*name)(args...);` so the name is the identifier between
    `(*` and `)`."""
    ts = src.code_tokens
    fields: List[Tuple[str, int]] = []
    for i, t in enumerate(ts):
        if not (t.kind == "ident" and t.text == "KernelTable"
                and i > 0 and ts[i - 1].kind == "ident"
                and ts[i - 1].text == "struct"):
            continue
        j = i + 1
        while j < len(ts) and not (ts[j].kind == "punct"
                                   and ts[j].text in ("{", ";")):
            j += 1
        if j >= len(ts) or ts[j].text != "{":
            continue  # forward declaration
        depth = 0
        for k in range(j, len(ts)):
            tk = ts[k]
            if tk.kind == "punct" and tk.text == "{":
                depth += 1
            elif tk.kind == "punct" and tk.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif (tk.kind == "punct" and tk.text == "("
                  and k + 2 < len(ts)
                  and ts[k + 1].kind == "punct" and ts[k + 1].text == "*"
                  and ts[k + 2].kind == "ident"
                  and k + 3 < len(ts)
                  and ts[k + 3].kind == "punct" and ts[k + 3].text == ")"):
                fields.append((ts[k + 2].text, ts[k + 2].line))
    return fields


def _member_calls(src: SourceFile) -> Set[str]:
    """Identifiers invoked as `.name(` anywhere in the file."""
    ts = src.code_tokens
    out: Set[str] = set()
    for i, t in enumerate(ts):
        if (t.kind == "punct" and t.text == "."
                and i + 2 < len(ts)
                and ts[i + 1].kind == "ident"
                and ts[i + 2].kind == "punct" and ts[i + 2].text == "("):
            out.add(ts[i + 1].text)
    return out


def _check_kernel_pins(project: Project) -> Iterable[Finding]:
    header = project.src_file(KERNEL_TABLE_HEADER)
    if header is None:
        return
    fields = _kernel_table_fields(header)
    if not fields:
        return
    suite = project.aux_file(KERNEL_PIN_SUITE)
    pinned = _member_calls(suite) if suite is not None else set()
    for name, line in fields:
        if name not in pinned:
            yield Finding(
                header.rel, line, "kernel-table-unpinned",
                f"KernelTable entry '{name}' is not exercised by the 0-ULP "
                f"equivalence suite ({KERNEL_PIN_SUITE}); every dispatched "
                f"kernel must be bit-compared across SIMD variants")


RULE_KERNEL_PINS = ProjectRule(
    "kernel-table-unpinned",
    "Every KernelTable function pointer (src/tensor/simd.hpp) must be "
    "called by tests/test_simd.cpp, the suite that bit-compares all SIMD "
    "variants at 0 ULP. An unpinned entry could silently diverge per ISA.",
    _check_kernel_pins,
)


def _trainer_declarations(src: SourceFile) -> Dict[str, int]:
    """`train_*` function names declared in an algo header, with the
    line of their first declaration."""
    ts = src.code_tokens
    out: Dict[str, int] = {}
    for i, t in enumerate(ts):
        if (t.kind == "ident" and t.text.startswith("train_")
                and i + 1 < len(ts)
                and ts[i + 1].kind == "punct" and ts[i + 1].text == "("):
            out.setdefault(t.text, t.line)
    return out


def _trainers_named_in(project: Project, rel: str) -> Set[str]:
    """`train_*` identifiers anywhere in the code of test suite `rel`."""
    suite = project.aux_file(rel)
    if suite is None:
        return set()
    return {t.text for t in suite.code_tokens
            if t.kind == "ident" and t.text.startswith("train_")}


def _check_trainer_matrix(project: Project) -> Iterable[Finding]:
    resumed = _trainers_named_in(project, TRAINER_MATRIX_SUITE)
    pinned = _trainers_named_in(project, TRAINER_GOLDEN_SUITE)
    for src in project.src_files():
        if not src.in_dir("algo") or not src.rel.endswith(".hpp"):
            continue
        for name, line in sorted(_trainer_declarations(src).items()):
            if name not in resumed:
                yield Finding(
                    src.rel, line, "trainer-not-in-resume-matrix",
                    f"trainer '{name}' is not exercised by the "
                    f"kill-and-resume matrix ({TRAINER_MATRIX_SUITE}); "
                    f"snapshot/resume must be proven bit-exact for every "
                    f"trainer (or the gap baselined with a rationale)")
            if name not in pinned:
                yield Finding(
                    src.rel, line, "trainer-not-in-resume-matrix",
                    f"trainer '{name}' has no golden trajectory "
                    f"({TRAINER_GOLDEN_SUITE}); every trainer's seeded "
                    f"run must be pinned bit for bit")


RULE_TRAINER_MATRIX = ProjectRule(
    "trainer-not-in-resume-matrix",
    "Every train_* entry point declared under src/algo must appear in "
    "tests/test_snapshot.cpp's kill-and-resume matrix, which proves "
    "crash/resume is bit-exact per trainer, and in the trainer table of "
    "tests/test_util.hpp, whose seeded trajectories tests/test_golden.cpp "
    "pins.",
    _check_trainer_matrix,
)


_FLAG_READERS = {"get_string", "get_int", "get_double", "get_bool", "has"}
_FLAG_NAME_RE = re.compile(r"[A-Za-z][\w-]*$")


def _flag_reads(src: SourceFile) -> Iterable[Tuple[str, int]]:
    """(flag name, line) for each `<expr>.get_*("name", ...)` or
    `<expr>.has("name")` read of an hm::Flags object. The string-literal
    first argument is what distinguishes a Flags read from unrelated
    has()/get() members (snapshot sections, containers) — those pass
    tags or keys, not quoted flag names."""
    ts = src.code_tokens
    for i, t in enumerate(ts):
        if not (t.kind == "ident" and t.text in _FLAG_READERS
                and i >= 1 and ts[i - 1].kind == "punct"
                and ts[i - 1].text == "."
                and i + 2 < len(ts)
                and ts[i + 1].kind == "punct" and ts[i + 1].text == "("
                and ts[i + 2].kind == "string"):
            continue
        name = string_value(ts[i + 2])
        if _FLAG_NAME_RE.fullmatch(name):
            yield name, t.line


def _documented_flags(project: Project) -> Set[str]:
    docs: Set[str] = set()
    for rel in DOC_FILES:
        text = project.read_text(rel)
        if text is None:
            continue
        docs.update(m.group(1)
                    for m in re.finditer(r"--([A-Za-z][\w-]*)", text))
    return docs


def _check_flag_docs(project: Project) -> Iterable[Finding]:
    documented = _documented_flags(project)
    for src in project.src_files():
        for name, line in _flag_reads(src):
            if name not in documented:
                yield Finding(
                    src.rel, line, "undocumented-flag",
                    f"CLI flag '--{name}' is read here but documented in "
                    f"neither README.md nor DESIGN.md")


RULE_FLAG_DOCS = ProjectRule(
    "undocumented-flag",
    "Every CLI flag read via hm::Flags in src/ must appear as --name in "
    "README.md or DESIGN.md; flags discoverable only from the source are "
    "dead weight to users.",
    _check_flag_docs,
)


# (header, struct, row-name prefix): the structs whose fields the options
# record must cover, and how a field's row is named there.
OPTION_STRUCTS = (
    ("algo/options.hpp", "TrainOptions", ""),
    ("sim/fault.hpp", "FaultSpec", "fault."),
    ("algo/projection.hpp", "SimplexSet", "p_set."),
)
OPTION_RECORD = "algo/options.cpp"
RECORD_ROWS, RECORD_EXEMPT = "kRows", "kNoRow"


def _matching(ts: List[Token], i: int) -> int:
    """Index of the bracket closing the one opened at ts[i]."""
    pairs = {"{": "}", "(": ")", "[": "]"}
    opener, closer, depth = ts[i].text, pairs[ts[i].text], 0
    for j in range(i, len(ts)):
        if ts[j].kind == "punct" and ts[j].text == opener:
            depth += 1
        elif ts[j].kind == "punct" and ts[j].text == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(ts) - 1


def _struct_fields(src: SourceFile, struct: str) -> List[Tuple[str, int]]:
    """(name, line) of each data member of `struct Name { ... }`: member
    functions (a `(` before any initializer) and their bodies, nested
    types, static members and access labels are skipped."""
    ts = src.code_tokens
    for i, t in enumerate(ts):
        if (t.kind == "ident" and t.text == struct and i > 0
                and ts[i - 1].text == "struct" and i + 1 < len(ts)
                and ts[i + 1].text == "{"):
            break
    else:
        return []
    end = _matching(ts, i + 1)
    fields: List[Tuple[str, int]] = []
    stmt: List[Token] = []
    k = i + 2
    while k < end:
        tk = ts[k]
        if tk.kind == "ident" and tk.text in ("public", "private",
                                               "protected"):
            k += 2  # label and its ':'
            continue
        if tk.kind == "punct" and tk.text in ("{", "(", "["):
            is_body = tk.text == "{" and any(x.text == "(" for x in stmt)
            stmt.append(tk)
            k = _matching(ts, k) + 1
            if is_body:  # a member function's body ends its declaration
                stmt = []
            continue
        if tk.kind == "punct" and tk.text == ";":
            heads = [x for x in stmt if x.text in ("=", "{", "(", "[")]
            head = stmt[:stmt.index(heads[0])] if heads else stmt
            names = [x for x in head if x.kind == "ident"]
            skip = (heads and heads[0].text == "(") or any(
                x.text in ("static", "using", "enum", "struct", "class",
                           "friend", "template") for x in head)
            if names and not skip:
                fields.append((names[-1].text, names[-1].line))
            stmt = []
        else:
            stmt.append(tk)
        k += 1
    return fields


def _initializer(ts: List[Token], name: str) -> List[Token]:
    """The tokens inside the braced initializer of variable `name`."""
    for i, t in enumerate(ts):
        if t.kind == "ident" and t.text == name:
            for j in range(i + 1, len(ts)):
                if ts[j].text == ";":
                    break
                if ts[j].text == "{":
                    return ts[j + 1:_matching(ts, j)]
    return []


def _record_rows(src: SourceFile) -> Set[str]:
    """Row names of the record table: HM_ROW(member.path) arguments and
    the names of hand-written `{"name", renderer}` rows."""
    ts = _initializer(src.code_tokens, RECORD_ROWS)
    rows: Set[str] = set()
    for i, t in enumerate(ts):
        if t.kind == "ident" and t.text == "HM_ROW" and i + 1 < len(ts):
            close = _matching(ts, i + 1)
            rows.add("".join(x.text for x in ts[i + 2:close]))
        elif (t.text == "{" and i + 2 < len(ts) and ts[i + 1].kind == "string"
              and ts[i + 2].text == ","):
            rows.add(string_value(ts[i + 1]))
    return rows


def _record_exempt(src: SourceFile) -> List[Tuple[str, str, int]]:
    """(name, reason, line) of each `{"name", "reason"}` exempt entry."""
    ts = _initializer(src.code_tokens, RECORD_EXEMPT)
    return [(string_value(ts[i + 1]), string_value(ts[i + 3]), ts[i].line)
            for i in range(len(ts) - 4)
            if ts[i].text == "{" and ts[i + 1].kind == "string"
            and ts[i + 2].text == "," and ts[i + 3].kind == "string"
            and ts[i + 4].text == "}"]


def _check_option_record(project: Project) -> Iterable[Finding]:
    record = project.src_file(OPTION_RECORD)
    if record is None:
        return
    rows = _record_rows(record)
    covered = set(rows)
    for name, reason, line in _record_exempt(record):
        covered.add(name)
        if not reason.strip():
            yield Finding(
                record.rel, line, "option-not-in-record",
                f"exempt option '{name}' gives no reason for having no "
                f"row in the options record")
    for rel, struct, prefix in OPTION_STRUCTS:
        header = project.src_file(rel)
        if header is None:
            continue
        for name, line in _struct_fields(header, struct):
            path = prefix + name
            if path in covered or any(r.startswith(path + ".")
                                      for r in rows):
                continue
            yield Finding(
                header.rel, line, "option-not-in-record",
                f"{struct} field '{name}' has no row '{path}' in the "
                f"options record ({OPTION_RECORD}) and no exempt entry "
                f"with a reason; a resume could change it unnoticed")


RULE_OPTION_RECORD = ProjectRule(
    "option-not-in-record",
    "Every field of TrainOptions, FaultSpec and SimplexSet must be a row "
    "of the options record in src/algo/options.cpp (kRows) or an exempt "
    "entry with a one-line reason (kNoRow): the record is what a resume "
    "is checked against, so a field outside it could change unnoticed.",
    _check_option_record,
)


ALL_PROJECT_RULES: List[ProjectRule] = [
    RULE_KERNEL_PINS,
    RULE_TRAINER_MATRIX,
    RULE_FLAG_DOCS,
    RULE_OPTION_RECORD,
]
