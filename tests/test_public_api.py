"""The package exports exactly the API that README lists, and the CLI
takes only the options that README names."""

import argparse
import re
from pathlib import Path

import gkcover
from gkcover import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names():
    """Backquoted names on the bullet lines of README's Public API section."""
    section = README.read_text().split("### Public API\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_readme_all_and_star_import_agree():
    listed = readme_api_names()
    assert len(listed) == len(set(listed)) == len(gkcover.__all__) == len(set(gkcover.__all__))
    namespace = {}
    exec("from gkcover import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert set(listed) == set(gkcover.__all__) == bound


def test_every_cli_option_is_in_readme():
    """Each option string of each subcommand, --help included, appears in
    README as a whole word, so no option goes undocumented."""
    text = README.read_text()
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for sub in subparsers.choices.values()
               for action in sub._actions for opt in action.option_strings}
    assert {"--k", "-o", "--output", "--help"} <= options
    missing = sorted(opt for opt in options
                     if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text))
    assert missing == []
