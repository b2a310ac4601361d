"""`python -m sicherman` runs the command line."""
from .cli import main

raise SystemExit(main())
