__version__ = "0.1.0"
FORMATS = ("delimited", "aligned", "json")  # the report formats: here, so the CLI's parser needs no data_pipeline
