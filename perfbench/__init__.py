"""Layer-resolved benchmark of the repro design flow (see README.md)."""
