"""Fixture package for the stale-spec-entry rule."""
