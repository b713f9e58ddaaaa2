"""End-to-end and per-layer benchmark of the vet pipeline (see README.md)."""
