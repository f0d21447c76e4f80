"""Closed-loop benchmark of the distributed particle filter (see README.md)."""
