"""``python -m contextnet``: the same command as the ``contextnet`` script."""

from .cli import run

if __name__ == "__main__":
    run()
