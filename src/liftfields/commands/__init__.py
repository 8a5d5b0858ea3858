"""The CLI subcommands, one module each: ``cli`` imports the one it runs."""
