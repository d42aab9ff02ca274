"""Closed-loop benchmark of the gddp library; see README.md."""
