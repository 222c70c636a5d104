"""``python -m platoon_stab``: the ``platoon-stab`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
