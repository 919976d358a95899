"""The one module the fixture specs may name."""

VALUE = 1
