"""``python -m apio``: the ``apio`` command."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
