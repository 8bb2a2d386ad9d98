"""detlint — the repo's project-aware static analysis framework.

The headline guarantee of this codebase is bit-exact, thread-count-
invariant reproduction of HierMinimax and its baselines.  That guarantee
is easy to break silently: one iteration over a std::unordered_map, one
wall-clock seed, one std::reduce, and results differ between runs or
hosts while every functional test still passes.  detlint machine-checks
the conventions that keep the guarantee true — and, since v2, the
invariants that span translation units: the module layering DAG, the
KernelTable <-> 0-ULP-pin contract, the trainer <-> resume-matrix
contract, and CLI-flag documentation.

Layout:
  lexer.py          C++ token-stream lexer (raw strings, prefixes, digit
                    separators, line splices, unterminated recovery)
  engine.py         SourceFile/Project model, suppression scoping,
                    selftest harnesses
  rules.py          the per-file rules, as token matchers
  graph.py          include-graph extraction + layering DAG enforcement
  contracts.py      cross-file contract checks
  baseline.py       checked-in accepted-findings ledger (baseline.json)
  selftest_lexer.py lexer unit tests
  fixtures/         per-file rule fixtures (detlint-expect headers)
  fixtures_project/ mini-project fixtures for the whole-project analyses

Entry point: scripts/lint.py (also registered as the `determinism_lint`
ctest, with `determinism_lint_selftest` and `determinism_lint_exitcodes`
guarding the harness itself).

Suppressions: a finding is suppressed when the offending line carries a
trailing comment `detlint: allow(<rule>) — reason`, or when the line
directly above is a whole-line comment with the marker. One marker, one
line — see DESIGN.md §12 for etiquette. Every suppression is deliberate
and reviewable with `git grep 'detlint:'`.
"""

from .baseline import Baseline, write_baseline  # noqa: F401
from .contracts import ALL_PROJECT_RULES as CONTRACT_RULES  # noqa: F401
from .engine import (  # noqa: F401
    Finding, Project, ProjectRule, Rule, SourceFile, findings_to_json,
    run_lint, run_selftest,
)
from .graph import RULE_LAYERING  # noqa: F401
from .rules import ALL_RULES  # noqa: F401

ALL_PROJECT_RULES = [RULE_LAYERING] + list(CONTRACT_RULES)
