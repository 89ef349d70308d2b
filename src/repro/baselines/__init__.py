"""Baseline schedulers the steady-state approach is compared against."""
