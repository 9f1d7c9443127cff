"""Speed benchmark for belyi: see run.py."""
