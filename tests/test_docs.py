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


def options_by_command():
    """Each ``textovision`` command's option strings, from the CLI's own parser."""
    import argparse

    from textovision import cli

    (commands,) = (action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {name: set(parser._option_string_actions) for name, parser in commands.choices.items()}


def readme_code_and_prose():
    """The README's fenced code blocks, each continuation line joined to
    the line it continues, and the text outside them."""
    parts = README.read_text("utf-8").split("```")
    return [block.replace("\\\n", " ") for block in parts[1::2]], "".join(parts[::2])


def test_every_flag_of_a_readme_example_is_an_option_of_its_command():
    options = options_by_command()
    code, _ = readme_code_and_prose()
    examples = re.findall(r"^textovision (\S+)(.*)$", "\n".join(code), re.MULTILINE)
    assert {command for command, _ in examples} >= {"train", "encode", "rank", "pool"}, examples
    wrong = [(command, flag) for command, rest in examples
             for flag in re.findall(r"(?<!\S)--[\w-]+", rest)
             if flag not in options.get(command, ())]
    assert wrong == []


def test_every_flag_named_in_the_readme_prose_is_an_option_of_some_command():
    known = set().union(*options_by_command().values())
    _, prose = readme_code_and_prose()
    flags = {flag for span in re.findall(r"`([^`\n]+)`", prose)
             for flag in re.findall(r"(?<![\w-])--[\w-]+", span)}
    assert len(flags) >= 10, flags  # the pattern still finds the README's flags
    assert sorted(flags - known) == []
