"""Static determinism & contract linter for the repro tree.

The golden transcripts and parity canaries *sample* the repo's core
contract -- same seed => byte-identical transcript -- on the seeds a
run happens to execute.  This package *proves the absence* of whole
bug classes across all seeds with an AST pass over the source:

* :mod:`repro.lint.rules` -- one visitor class per rule (unseeded
  randomness, wall-clock reads, unordered-set iteration, trace-kind
  encoding stability, capability/verb parity, pool picklability);
* :mod:`repro.lint.engine` -- parses each file once, dispatches the
  rules, applies inline ``# repro: allow[RULE] reason`` suppressions,
  and reports missing-reason and stale suppressions as findings of
  their own;
* :mod:`repro.lint.config` -- the per-rule scopes and allowlists that
  encode which modules legitimately own a private RNG or measure wall
  time.

Surface: ``repro lint [--format text|json] [--rule ID] [--check-stale]``
(see :mod:`repro.cli`), the tier-1 suite (``tests/unit/test_lint.py``
asserts the tree is clean *and* every rule fires on its fixtures), and
the CI ``lint`` job.  The contract itself is documented in
``docs/determinism.md``.
"""

from __future__ import annotations

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import LintError, LintReport, lint_file, lint_paths, lint_tree
from repro.lint.findings import Finding
from repro.lint.rules import RULES, all_rule_ids, get_rule

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "lint_file",
    "RULES",
    "all_rule_ids",
    "get_rule",
    "lint_paths",
    "lint_tree",
]
