"""`python -m algcomplete`: the report CLI, same as the `algcomplete` command."""

from .cli import main

main()
