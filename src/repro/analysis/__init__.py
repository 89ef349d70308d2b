"""Bounds, asymptotics and paper-style reporting helpers."""
