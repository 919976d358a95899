"""Same-host benchmark of the ``repro`` package (see ``perfbench/README.md``)."""
