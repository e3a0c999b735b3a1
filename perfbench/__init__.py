"""The qckt benchmark (see run.py)."""
