"""``python -m ginibre_overlaps``: the command-line interface (cli.main)."""

from .cli import main

if __name__ == "__main__":
    main()
