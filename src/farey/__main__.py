import gc

from .cli import main


def run() -> int:
    """Run the command line, then freeze the heap so that the interpreter's
    exit skips its collection sweep; `python -m farey` and the `farey`
    script both end here. Atexit handlers, flushes and teardown still run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
