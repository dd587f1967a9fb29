"""`python -m qwtopo`: the `qwtopo` command line, exiting with its code."""
from .cli import entrypoint

if __name__ == "__main__":
    raise SystemExit(entrypoint())
