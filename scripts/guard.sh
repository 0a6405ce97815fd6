#!/usr/bin/env bash
# Keeps deleted tiers deleted and the public surface called.
#
#   scripts/guard.sh
#
# Two checks, both plain text scans (bash + awk, no build needed); the
# script prints every finding and exits non-zero if there is one.
#
# 1. Forbidden patterns. Each row of FORBIDDEN names a pattern that must
#    not come back, the paths it is searched in, and why. A deleted tier
#    stays deleted because its names cannot return unnoticed.
# 2. Orphan `pub` items. A `pub` fn, struct, enum, trait, type, const,
#    static or mod in the non-test code of `crates/*/src` or `src/` that no
#    other `.rs` file names (in `crates/`, `src/`, `tests/`, `examples/` or
#    `benchmark/src`) fails, unless ORPHANS_ALLOWED lists it with a reason.
#    Such an item is called by nothing but its own file: make it private
#    or delete it. rustc's `dead_code` lint covers `pub(crate)` items, so
#    between them no uncalled item stays in the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# Rows are split on " | " (so a pattern may use `|` without spaces):
#   step     the invariant, as the report names it
#   pattern  an awk extended regular expression, matched per line
#   paths    space-separated directories (every file below) or files
#   scope    all        every line of every file
#            nontest    lines before a file's first `#[cfg(test)]`
#            nontest//  those, minus `//` comment lines
#   exempt   space-separated `file` (any number of matching lines) or
#            `file:N` (at most N matching lines) entries, or -
#   commit   the git commit that deleted the tier
#   reason   what coming back would mean
FORBIDDEN='
No capability machinery | supports_deletes|supports_snapshot|DeleteUnsupported|inner_supports_ | crates src tests examples | all | - | 7f9b7f6 | Every engine deletes and snapshots (the JoinSampler contract); a probe or an "unsupported" error handles a case that cannot occur.
One drive loop | \.delta_batch\(|consume_delta|apply_delete\(|fx_hash_columns\( | crates/core/src | nontest | crates/core/src/group.rs | eabb5b1 | Index insert -> delta batch -> reservoirs and delete -> repair live in the index group alone; ReservoirJoin and the service are groups, not copies of the loop.
One recovery path | replay_from\( | crates src | nontest// | crates/storage/src/wal.rs src/persist.rs:1 | 2fd622f | Replaying the log suffix happens once, in Persistent<T>, over the WAL that defines it.
One recovery path | Checkpoint::read_from\( | crates src | nontest// | crates/storage/src/wal.rs src/persist.rs:1 | 2fd622f | Restoring a checkpoint happens once, in Persistent<T>.
One recovery path | truncate_at_checkpoint\( | crates src | nontest// | crates/storage/src/wal.rs src/persist.rs:1 | 2fd622f | Truncating at a checkpoint happens once, in Persistent<T>.
One count source | JoinCounter|FxHashSet<Vec<Value>> | crates/core/src | nontest | - | b6dcbcf | Every engine answers exact_count from the state it keeps; nothing in rsj-core keeps a second copy of the input to count it.
No shard layer | Sharded|ShardedSampler|SupervisorPolicy|ShardHealth|ShardFault|partition_attr|INJECTED_FAULT|fx_hash_words | src crates tests examples | all | - | 47e8aaf | RSJoin is single-threaded; parallelism, if it returns, takes the weighted-reservoir-union shape in ARCHITECTURE.md.
One ingest path | ColumnarBatch|RelationColumns|insert_columnar|process_columnar|column_hashes|ColumnarScratch|insert_batch | src crates tests examples | all | - | bbcc89f | Every tuple reaches the index through DynamicIndex::insert/delete; batch ingest returns only with a caller and a workload.
One rewriting wrapper | pub struct (FkReservoirJoin|SJoinOpt|CyclicReservoirJoin)([^[:alnum:]_]|$)|impl JoinSampler for (FkReservoirJoin|SJoinOpt|CyclicReservoirJoin)([^[:alnum:]_]|$) | src crates tests examples | all | - | eb63dca | RSJoin_opt, SJoin_opt and RSJoin_cyclic are one Rewritten<R, S>; a hand-written wrapper is a fourth copy of the reduction.
One image codec | fn snapshot_state([^[:alnum:]_]|$) | src crates tests examples | all | crates/core/src/exec.rs | eb63dca | The byte-vector image pair is provided by SamplerExt alone, so nothing can report a missing image.
One checked entry point | (^|[^[:alnum:]_])(check_op|process_op_batch)([^[:alnum:]_]|$)|fn process_batch[(]|[.:]process_batch[(]([^&]|&[^m]|$) | src crates tests examples | all | crates/stream/tests/reservoir_properties.rs | 30bf42e | Ops enter an engine through SamplerExt::apply_ops (process_op is its one-op slice) or the process/delete primitives; a per-tuple batch adapter or a second check is another door to keep in step. Reservoir::process_batch(&mut batch, ..) is the predicate reservoir, not this.
One member kind | register_sampler|BoxedMember|SnapshotUnavailable|NoImage|Imageless | src crates tests examples | all | - | cd80931 | A SamplerService is a list of index groups and its image cannot fail.
One member kind | RebuildFn | crates | all | - | cd80931 | The boxed-member rebuild hook stays deleted.
One retrieval kernel | fn (retrieve_below|retrieve_in_group) | src crates tests examples | all | crates/index/src/retrieve.rs:2 | 77c1af7 | Every positional retrieval (reservoir stop, repair draw, allocating adapter) descends through retrieve_below/retrieve_in_group and its DescentMemo, which also report the dummy run a dummy begins; a second descent, a *_memo twin included, is a copy that the debug cross-check of the memo does not cover.
One stop path | DeltaCache | crates src tests examples | all | - | aa1bae5 | Every member of a group walks a delta batch through one stop closure (retrieve_into, then materialize or pass the dummy run) over the one DescentMemo of the group; a per-op row cache is a second stop path that must copy the run logic.
Eviction by tuple id | \[a\] == tuple\[pos\]|evict_where\(|backfill_distinct\( | crates/core/src | nontest | - | 812d1dc | Delete repair in rsj-core reads the tuple-id columns of each member: eviction scans one u32 column and dedup compares ids; a value-comparing eviction closure or a row-comparing backfill brings back the O(k·width) scan of every row per member per delete.
No planner | Planner|ReplanPolicy|TableStatistics|all_join_trees|PlanCost|CostWeights|fn replan\(|\.replan\( | crates src tests examples | all | - | ace165d | Plans are fixed at build time, as the one join tree of Alg. 6 is: an on/off record of automatic replanning found no workload where it won and 0 index rebuilds, while each check cost a full statistics scan. A cost model, a statistics collector or a replan hook brings that back; a caller that wants another tree or root passes a Plan.
One checksum kernel, one checkpoint frame | fn crc32([^[:alnum:]_]|$) | src crates tests examples | all | crates/common/src/codec.rs:1 | 98371ca | WAL records and checkpoints are checked by the one slicing-by-16 kernel in rsj-common::codec, held to the bytewise loop by its differential test (a reference named bytewise_crc32, not matched here); a second CRC is a copy that test does not cover.
One checksum kernel, one checkpoint frame | Checkpoint::to_bytes|fn to_bytes[(] | src crates tests examples | all | - | 72092da | A checkpoint is framed in place by Checkpoint::frame: the target writes its image into the file buffer and the length and CRC are patched over it. A to_bytes that re-encodes an image held in a separate Vec brings back two copies of every image.
One checksum kernel, one checkpoint frame | CHECKPOINT_MAGIC | src crates | nontest | crates/storage/src/wal.rs:3 | 72092da | The checkpoint magic is defined once, written by Checkpoint::frame and checked by Checkpoint::from_bytes; any further use is a second framing or a second parser.
'

# `pub` items no other file names, each with the reason it stays public.
# Rows are split on " | ": name | reason.
ORPHANS_ALLOWED='
Arbitrary | proptest shim: the bound of any::<T>()
Strategy | proptest shim: named by the proptest! expansion ($crate::Strategy)
TestRng | proptest shim: named by the proptest! expansion ($crate::TestRng)
from_name | proptest shim: called by the proptest! expansion
VecStrategy | proptest shim: returned by collection::vec
ReadmeDoctests | compiles the README code blocks as doctests
FxHasher | the hasher behind the FxHashMap / FxHashSet / FxBuildHasher aliases
PostingIter | returned by PostingArena::iter
SJoinStats | returned by SJoinIndex::stats
GhdError | error type returned by Ghd::manual
QueryError | error type returned by QueryBuilder::build
RootedError | error type returned by the rooted-tree builders
'

fail=0

files=$(find crates src tests examples -type f | sort)
# shellcheck disable=SC2086
GUARD_TABLE="$FORBIDDEN" awk '
function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
function under(file, list,    n, p, i) {
    n = split(list, p, " ")
    for (i = 1; i <= n; i++)
        if (file == p[i] || substr(file, 1, length(p[i]) + 1) == p[i] "/") return 1
    return 0
}
# Matching lines a file may hold for one row: -1 for any number.
function allowance(file, list,    n, e, i, c) {
    if (list == "-") return 0
    n = split(list, e, " ")
    for (i = 1; i <= n; i++) {
        c = index(e[i], ":")
        if (c == 0 && e[i] == file) return -1
        if (c > 0 && substr(e[i], 1, c - 1) == file) return substr(e[i], c + 1) + 0
    }
    return 0
}
BEGIN {
    n = split(ENVIRON["GUARD_TABLE"], lines, "\n")
    for (i = 1; i <= n; i++) {
        if (lines[i] ~ /^[ \t]*$/) continue
        if (split(lines[i], f, / [|] /) != 7) { print "guard: malformed row: " lines[i]; exit 2 }
        r++
        step[r] = trim(f[1]); pat[r] = trim(f[2]); paths[r] = trim(f[3])
        scope[r] = trim(f[4]); exempt[r] = trim(f[5]); commit[r] = trim(f[6]); why[r] = trim(f[7])
    }
}
FNR == 1 { intest = 0 }
/^#\[cfg\(test\)\]/ { intest = 1 }
{
    comment = $0 ~ /^[ \t]*\/\//
    for (i = 1; i <= r; i++) {
        if (scope[i] != "all" && intest) continue
        if (scope[i] == "nontest//" && comment) continue
        if ($0 !~ pat[i] || !under(FILENAME, paths[i])) continue
        lim = allowance(FILENAME, exempt[i])
        if (lim < 0 || ++seen[i, FILENAME] <= lim) continue
        printf "%s:%d: [%s, since %s] %s\n    %s\n", FILENAME, FNR, step[i], commit[i], why[i], $0
        bad = 1
    }
}
END { exit bad }
' $files || fail=1

dirs="crates src tests examples"
[ -d benchmark/src ] && dirs="$dirs benchmark/src"
# shellcheck disable=SC2086
rs=$(find $dirs -name '*.rs' | sort)
# shellcheck disable=SC2086
GUARD_ALLOWED="$ORPHANS_ALLOWED" awk '
BEGIN {
    n = split(ENVIRON["GUARD_ALLOWED"], lines, "\n")
    for (i = 1; i <= n; i++)
        if (split(lines[i], f, / [|] /) == 2) { gsub(/[ \t]/, "", f[1]); allowed[f[1]] = 1 }
}
FNR == 1 { intest = 0; defs = FILENAME ~ /^(crates\/[^\/]+\/)?src\// }
/^#\[cfg\(test\)\]/ { intest = 1 }
defs && !intest && /^[ \t]*pub[ \t]/ {
    k = split($0, w, /[ \t]+/)
    j = (w[1] == "") ? 3 : 2
    while (j < k && w[j] ~ /^(const|unsafe|async)$/ && w[j + 1] ~ /^(fn|const|unsafe|async|trait)$/) j++
    if (w[j] ~ /^(fn|struct|enum|trait|type|const|static|mod|union)$/) {
        name = w[j + 1]
        sub(/[^A-Za-z0-9_].*/, "", name)
        if (name != "") { d++; dname[d] = name; dfile[d] = FILENAME; dline[d] = FNR; dkind[d] = w[j] }
    }
}
{
    s = $0
    gsub(/[^A-Za-z0-9_]+/, " ", s)
    m = split(s, t, " ")
    for (i = 1; i <= m; i++)
        if (!((t[i], FILENAME) in named)) { named[t[i], FILENAME] = 1; nfiles[t[i]]++ }
}
END {
    for (i = 1; i <= d; i++) {
        if (dname[i] in allowed || nfiles[dname[i]] > 1) continue
        printf "%s:%d: pub %s %s is named by no other file: make it private or delete it\n", dfile[i], dline[i], dkind[i], dname[i]
        bad = 1
    }
    exit bad
}
' $rs || fail=1

if [ "$fail" -ne 0 ]; then
    echo "guard: FAILED"
    exit 1
fi
echo "guard: OK"
