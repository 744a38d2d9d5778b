"""``python -m fuzgeo <command> --scene scene.json --out results/``."""

from .cli import main

if __name__ == "__main__":
    main()
