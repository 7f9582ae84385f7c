#!/usr/bin/env sh
# structure.sh — the structural rules CI's "Structure" step enforces,
# runnable locally. Each rule is a grep over non-test Go; a hit prints
# the offending lines and fails the script. It ends by printing the
# per-package line counts (scripts/loc.sh) so a PR description or a
# ROADMAP re-anchor quotes a number anyone can reproduce.
set -eu

cd "$(dirname "$0")/.."
fail=0

# internal/incremental is a pure state machine: its non-test code may
# not name the journal's I/O types, so durability cannot creep back in
# beside internal/shard's log.
if grep -n 'journal\.Store\|journal\.Committer\|journal\.FS\|journal\.Open' $(ls internal/incremental/*.go | grep -v _test.go); then
	echo "internal/incremental must do no I/O: the references above belong behind internal/shard's log" >&2
	fail=1
fi

# The crowd seam stays closed (DESIGN §5d): only crowd.Session discovers
# a source's optional abilities. Outside internal/crowd and the frozen
# benchmark/, non-test code may not type-assert to the six capability
# interfaces — the one allow-listed line is Market.SetRecorder pushing
# the recorder down to its backends.
caps='BatchSource|ContextBatchSource|Biller|VoteCounter|RecorderSetter|RecorderCarrier'
if grep -rnE "\.\(crowd\.($caps)\)" --include='*.go' --exclude='*_test.go' . |
	grep -v '^\./internal/crowd/\|^\./benchmark/\|^\./\.bench_build/' |
	grep -v '^\./internal/market/market\.go:[0-9]*:.*b\.cfg\.Source\.(crowd\.RecorderSetter)'; then
	echo "capability type assertions belong in crowd.Session: hand it the bare source and watch answers with Session.Observe" >&2
	fail=1
fi

# ...and nobody grows a new forwarding wrapper: outside internal/crowd,
# internal/market and benchmark/, no non-test type defines both
# ScoreBatch and Bill.
methods() {
	grep -rnE "^func \([A-Za-z_]+ \*?[A-Za-z_0-9]+\) $1\(" --include='*.go' --exclude='*_test.go' . |
		grep -v '^\./internal/crowd/\|^\./internal/market/\|^\./benchmark/\|^\./\.bench_build/' |
		sed -E 's|^(.*)/[^/]*\.go:[0-9]+:func \([A-Za-z_]+ \*?([A-Za-z_0-9]+)\).*|\1 \2|' | sort -u
}
both=$({ methods ScoreBatch; methods Bill; } | sort | uniq -d)
if [ -n "$both" ]; then
	echo "$both"
	echo "the types above define both ScoreBatch and Bill — a source-forwarding wrapper; use Session.Observe instead" >&2
	fail=1
fi

# The exact join stays a count-merge over interned ids: in non-test
# internal/blocking only the MinHash join (minhash.go) and
# SortedNeighborhood (blocking.go, which holds no join) may score a pair
# by merging token strings, so string-merge verification cannot creep
# back into JaccardJoin or IncrementalIndex.
if grep -n 'similarity\.JaccardSorted(' $(ls internal/blocking/*.go | grep -v '_test\.go$\|/minhash\.go$\|/blocking\.go$'); then
	echo "internal/blocking may call similarity.JaccardSorted only from minhash.go and SortedNeighborhood: the exact joins count overlaps on the interned index" >&2
	fail=1
fi

# Pair-keyed hashing stays off the hot path: the candidate set is fixed
# for a campaign, so refine, pruning, the crowd session and the market
# reach per-pair state through Candidates.Index or a packed
# record.PairKey. 38 non-test lines in those four packages still name
# map[record.Pair] — none in refine or pruning; 35 in crowd (the
# AnswerSet family's answer, provenance and charge maps, chaos,
# adaptive, pool and calibration, and Session.KnownPairs' exported
# copy); 3 in market (the exported Ledger and AnswerSet conversions).
# The count may fall, never rise.
max_pair_maps=38
pair_map_files=$(ls internal/refine/*.go internal/pruning/*.go internal/crowd/*.go internal/market/*.go | grep -v '_test\.go$')
pair_maps=$(cat $pair_map_files | grep -c 'map\[record\.Pair\]' || true)
if [ "$pair_maps" -gt "$max_pair_maps" ]; then
	grep -n 'map\[record\.Pair\]' $pair_map_files
	echo "internal/{refine,pruning,crowd,market} name map[record.Pair] on $pair_maps non-test lines, over the cap of $max_pair_maps: key per-pair state by Candidates.Index or record.PairKey" >&2
	fail=1
fi

# The predecessor load harness is retired: `go run ./benchmark` is the
# one instrument, and the serving drills are tests in internal/serve. No
# tracked file may name the harness's packages, commands, scripts or
# trajectory files again, except where history is the point: benchmark/
# (frozen, its README keeps the legacy map) and the root-level notes
# (change log, roadmap, paper and related-work references). README.md,
# DESIGN.md and EXPERIMENTS.md are checked. The bracketed letters keep
# the pattern from matching this script.
retired='BENCH_[0-9]|internal/loa[d]|acdloa[d]|loadbenc[h]|benchjso[n]|benchfm[t]'
hits=$(git grep -nE "$retired" -- . ':!benchmark/' ':(exclude,glob)*.md'; git grep -nE "$retired" -- README.md DESIGN.md EXPERIMENTS.md) || true
if [ -n "$hits" ]; then
	echo "$hits"
	echo "the lines above name the retired load harness: measure with go run ./benchmark, drill in internal/serve/drill_test.go" >&2
	fail=1
fi

[ "$fail" -eq 0 ] || exit 1
scripts/loc.sh
