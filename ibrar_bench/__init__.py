"""A steady repository benchmark for the IB-RAR reproduction (see README.md)."""
