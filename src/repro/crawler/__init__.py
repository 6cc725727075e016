"""Crawler substrate: the instrumented measurement crawler of §3.1."""

from repro.crawler.autoconsent import Autoconsent
from repro.crawler.behavior import UserBehavior
from repro.crawler.collector import CanvasCollector
from repro.crawler.crawl import (
    CrawlDataset,
    CrawlHealth,
    CrawlTarget,
    resume_crawl,
    run_crawl,
)
from repro.crawler.resilience import (
    PageBudget,
    RetryPolicy,
    collect_with_retries,
    is_transient,
)
from repro.crawler.shards import (
    ExecutionConfig,
    merge_shard_datasets,
    plan_shards,
    run_sharded_crawl,
    shard_checkpoint_path,
)
from repro.crawler.storage import (
    CheckpointWriter,
    DatasetError,
    checkpoint_path,
    load_checkpoint,
    load_dataset,
    save_dataset,
)
from repro.crawler.supervisor import (
    QuarantineLedger,
    QuarantineRecord,
    SupervisorConfig,
    SupervisorError,
    quarantine_ledger_path,
)

__all__ = [
    "Autoconsent",
    "UserBehavior",
    "CanvasCollector",
    "CrawlDataset",
    "CrawlHealth",
    "CrawlTarget",
    "run_crawl",
    "resume_crawl",
    "PageBudget",
    "RetryPolicy",
    "collect_with_retries",
    "is_transient",
    "ExecutionConfig",
    "plan_shards",
    "run_sharded_crawl",
    "merge_shard_datasets",
    "shard_checkpoint_path",
    "SupervisorConfig",
    "SupervisorError",
    "QuarantineLedger",
    "QuarantineRecord",
    "quarantine_ledger_path",
    "CheckpointWriter",
    "DatasetError",
    "checkpoint_path",
    "load_checkpoint",
    "load_dataset",
    "save_dataset",
]
