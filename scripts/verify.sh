#!/usr/bin/env sh
# Full verification gate: vet, build everything (commands and examples
# included), then run the test suite under the race detector.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Focused race gate for the concurrent paths: the chromatic parallel Gibbs
# engine and its worker pool (core), the metrics scrape storm, the shared
# inference executor (priority queue, shed/re-admit scanner, anytime
# republication, incremental slides — worker pool vs ingest vs readers),
# the telemetry registry's writer-vs-scraper test, the span ring's
# concurrent writers-vs-snapshot test, the end-to-end trace chain and
# freshness/readiness endpoints, the WAL's group-commit writers, the
# crash-recovery e2e oracle, and the mean-field fast path (its
# determinism-across-GOMAXPROCS contract and the worker-visit publish
# path). It runs fresh (-count=1, so schedule/sharding races can't hide
# behind the test cache) at 1, 2 and 4 Ps, so a test that leans on one
# core count's scheduling fails here rather than on another host.
go test -race -count=1 -cpu 1,2,4 -run 'Parallel|Recovery|Executor|Trace|Readyz|Freshness|MeanField' \
    ./internal/core ./internal/serve ./internal/obs ./internal/wal
