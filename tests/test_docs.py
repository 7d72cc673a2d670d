"""The README names only code that exists."""

import pkgutil
import re
from pathlib import Path

import textovision

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(textovision.__path__)}


def named_in_readme():
    """Each backticked ``module.name`` or ``module.Class.attr`` in the
    README, with or without a ``textovision.`` prefix or a call's
    parentheses, whose first part is ``textovision`` or one of its modules."""
    names = set()
    for span in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", README.read_text("utf-8")):
        parts = span.split(".")
        if len(parts) > 1 and (parts[0] == "textovision" or parts[0] in MODULES):
            names.add(span)
    return sorted(names)


def test_every_module_name_in_the_readme_resolves():
    names = named_in_readme()
    assert len(names) >= 10, names  # the pattern still finds the README's names
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(name if name.startswith("textovision.") else f"textovision.{name}")
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
