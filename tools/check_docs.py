#!/usr/bin/env python
"""Documentation health check: intra-repo links and importable modules.

Two gates, both cheap enough for every CI run and the tier-1 suite
(``tests/unit/test_docs.py`` calls the same functions):

1. **Links** -- every relative markdown link in ``README.md`` and the
   ``docs/`` tree must point at a file (or directory) that exists in
   the repo.  External (``http``/``https``/``mailto``) links are not
   checked.
2. **Modules** -- every public module under ``src/repro`` must import
   cleanly (what ``python -m pydoc repro.x`` requires) and carry a
   module docstring, so the API documentation pydoc renders never goes
   stale or breaks.
3. **Lint rules** -- the linter's rule registry (``repro.lint.RULES``)
   and the docs must agree in both directions: every registered rule
   id is documented in ``docs/determinism.md``, and every rule id
   mentioned anywhere in the docs exists in the registry (a doc that
   cites a deleted or mistyped rule is lying about what is enforced).

Exit status is non-zero with a readable report when any gate fails::

    python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
DOC_GLOBS = ("README.md", "ROADMAP.md", "CHANGES.md", "docs/*.md")

#: ``[text](target)`` -- good enough for the hand-written docs here
#: (no nested brackets, no angle-bracket targets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def iter_doc_files() -> List[Path]:
    files: List[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def check_links() -> List[str]:
    """Broken relative links, as ``file: target`` strings."""
    problems = []
    for doc in iter_doc_files():
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def iter_public_modules() -> List[str]:
    """Every importable module name under ``src/repro``, no privates."""
    src = REPO_ROOT / "src"
    names = ["repro"]
    for info in pkgutil.walk_packages([str(src / "repro")], prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        names.append(info.name)
    return sorted(names)


def check_modules() -> List[str]:
    """Modules that fail to import or lack a docstring."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for name in iter_public_modules():
        try:
            module = importlib.import_module(name)
        except Exception as exc:  # pydoc would fail identically
            problems.append(f"{name}: import failed -- {exc!r}")
            continue
        doc = (module.__doc__ or "").strip()
        if not doc:
            problems.append(f"{name}: missing module docstring")
    return problems


#: Rule-id tokens worth cross-checking: the registry's prefixes with a
#: three-digit number.  Keeping the prefixes explicit avoids false
#: positives on other ALLCAPS+digits tokens in prose.
_RULE_ID = re.compile(r"\b(?:DET|TRC|API|POOL|LINT)[0-9]{3}\b")

#: The document that must describe every registered lint rule.
RULES_DOC = "docs/determinism.md"


def check_lint_rules() -> List[str]:
    """Registry/docs rule-id drift, in both directions."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lint import all_rule_ids

    registered = set(all_rule_ids())
    problems = []

    rules_doc = REPO_ROOT / RULES_DOC
    documented = (
        set(_RULE_ID.findall(rules_doc.read_text()))
        if rules_doc.is_file()
        else set()
    )
    for rule_id in sorted(registered - documented):
        problems.append(
            f"{RULES_DOC}: registered lint rule {rule_id} is not documented"
        )

    for doc in iter_doc_files():
        for rule_id in sorted(set(_RULE_ID.findall(doc.read_text()))):
            if rule_id not in registered:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: mentions lint rule "
                    f"{rule_id}, which is not in the registry"
                )
    return problems


def main() -> int:
    problems = check_links() + check_modules() + check_lint_rules()
    for problem in problems:
        print(problem)
    checked = len(iter_doc_files())
    modules = len(iter_public_modules())
    if problems:
        print(f"\nFAILED: {len(problems)} problem(s)")
        return 1
    print(
        f"ok: {checked} doc files link-clean, {modules} modules "
        "documented, lint rules in sync"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
