"""Help, usage errors and diagnostics of the command line, which `farey.cli`
loads on the first lookup of one of these names (see ``cli._LAZY``): a query
that its command table parses and that succeeds never compiles this module.
Only help and usage errors import argparse."""

import os
import sys

from . import cli
from .errors import DomainError


def build_parser():
    """The argparse parser of `farey.cli`'s command tables."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage; 2 is reserved for the
        # enumeration cap here, so route usage problems through an exception.
        def error(self, message):
            raise cli.UsageError(message)

        # Help text is output like any result.  argparse's own writer would
        # ignore a failed write and fall back to stderr for a closed stdout.
        def _print_message(self, message, file=None):
            cli._emit(message, end="")

    def token(parse):
        # An argparse type whose DomainError is the usage error argparse reports.
        def convert(text: str):
            try:
                return parse(text)
            except DomainError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    def add(parser, arguments, **overrides):
        for name, settings in arguments.items():
            wrapped = {"type": token(settings["type"])} if "type" in settings else {}
            parser.add_argument(name, **{**settings, **wrapped, **overrides})

    parser = _Parser(
        prog="farey",
        description="Exact Farey sequence queries: triples, neighbors,"
        " continued fractions, verification, benchmarks.",
    )
    add(parser, cli._SHARED)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_line, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add(p, arguments)
        # Subparsers copy their namespace over the root one: SUPPRESS keeps
        # an unset shared flag from erasing a value given before the command.
        add(p, cli._SHARED, default=argparse.SUPPRESS)
    return parser


def _report(kind: str, message) -> None:
    """Write ``kind: message`` to stderr, each word-initial repr (quotes kept)
    or whitespace-free run of over 40 characters cut to its first and last 16,
    then a message still over 200 characters cut to its first 100 and last 60."""
    import re

    def cut(match):
        quote, run = match[1] or "", match[2] or match[0]
        return match[0] if len(run) <= 40 else f"{quote}{run[:16]}...{run[-16:]}{quote}"

    text = re.sub(r"""(?<!\S)(['"])((?:\\.|(?!\1)[^\\])*)\1|\S{41,}""", cut, str(message))
    if len(text) > 200:
        text = f"{text[:100]}...{text[-60:]}"
    _diagnose(f"{kind}: {text}")


def _diagnose(line: str) -> None:
    """Write ``line`` to stderr, the one writer of diagnostics.  A line stderr
    cannot take is dropped: with fd 2 closed (sys.stderr is None) it never
    goes to stdout, and a failed write never changes the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the flush at
    interpreter exit has nothing left to fail on (the "Note on SIGPIPE" in
    the signal module's documentation)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no stdout, or one that is not a file
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
