"""End-to-end benchmark with an outside-in layer trace (see README.md)."""
