"""``python -m qarrow``: the ``qarrow`` command."""
from .cli import entry

if __name__ == "__main__":
    entry()
