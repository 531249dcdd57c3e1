"""`python -m catql`: the catql command line, with its 0/1/2 exit codes."""

from .cli import main

if __name__ == "__main__":
    main()
