"""`python -m ahgnn`: the `ahgnn` command."""

from .cli import main

if __name__ == "__main__":
    main()
