"""End-to-end and per-layer benchmark of the PANE pipeline (see README.md)."""
