#!/usr/bin/env bash
# CI smoke for the network server: start `guarded listen` on a Unix
# socket, drive it with ~50 relation/pattern/CQ queries plus an update
# batch through `guarded client`, check the STATS cache counters, and
# shut the server down cleanly with SIGTERM. In materialized mode the
# run also snapshots and warm-restarts, then checks that a snapshot
# rewritten to format version 1 is refused; in demand mode (`--demand`)
# snapshots are unavailable and the counters must move: repeat queries
# are cache hits.
#
# In repl mode (`repl`) the smoke instead drives a primary/replica
# pair: the replica bootstraps over the wire, serves reads, drains its
# lag, redirects writes, and takes over via PROMOTE after the primary
# is killed.
#
# In chase mode (`chase`) the smoke serves an existential theory whose
# finite chase is materialized directly (no Datalog translation):
# null-valued relations answer 0 (certain answers), additions continue
# the chase, deletions re-chase, snapshots are refused, and the
# chase_* STATS gauges track the resident nulls and derivations.
#
# Usage: scripts/server_smoke.sh [DOMAINS] [materialized|demand|repl|chase]
set -euo pipefail

# 0 means "the sequential CI leg": serve without a pool (--domains 1).
DOMAINS="${1:-1}"
[ "$DOMAINS" = 0 ] && DOMAINS=1
MODE="${2:-materialized}"
case "$MODE" in
  materialized|demand|repl|chase) ;;
  *) echo "usage: server_smoke.sh [DOMAINS] [materialized|demand|repl|chase]"; exit 2 ;;
esac
# The prebuilt binary: two dune exec instances (the backgrounded
# server and the client calls) would contend on dune's lock.
GUARDED="${GUARDED:-./_build/default/bin/guarded.exe}"
WORK="$(mktemp -d)"
SOCK="$WORK/serve.sock"
SNAP="$WORK/serve.snap"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cat > "$WORK/path.rules" <<'EOF'
e(X, Y) -> path(X, Y).
e(X, Z), path(Z, Y) -> path(X, Y).
EOF
cat > "$WORK/path.db" <<'EOF'
e(a, b).
e(b, c).
e(c, d).
EOF

if [ "$MODE" = chase ]; then
  # Finite-chase serving: an existential theory (each company gets an
  # invented lead), served from the materialized chase itself.
  cat > "$WORK/org.rules" <<'EOF'
company(X) -> exists L. lead(L, X).
lead(L, X) -> staffed(X).
EOF
  cat > "$WORK/org.db" <<'EOF'
company(acme).
company(blix).
EOF

  $GUARDED listen "$WORK/org.rules" "$WORK/org.db" \
    --socket "$SOCK" --chase --domains "$DOMAINS" 2> "$WORK/listen.log" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.2
  done
  [ -S "$SOCK" ] || { echo "chase server did not come up"; cat "$WORK/listen.log"; exit 1; }

  cstat() { # cstat KEY
    $GUARDED client --socket "$SOCK" -e STATS | awk -v key="$1" '$1 == key { print $2 }'
  }

  # The chase-mode STATS keys, and the mode flags: chase on, demand off.
  for key in chase_mode chase_nulls chase_derivations; do
    cstat "$key" | grep -q . || { echo "STATS missing key $key"; exit 1; }
  done
  [ "$(cstat chase_mode)" = 1 ] || { echo "chase_mode != 1"; exit 1; }
  [ "$(cstat demand)" = 0 ] || { echo "demand flag set in chase mode"; exit 1; }
  [ "$(cstat chase_nulls)" = 2 ] \
    || { echo "expected 2 resident nulls, got $(cstat chase_nulls)"; exit 1; }
  [ "$(cstat chase_derivations)" -gt 0 ] || { echo "no chase derivations"; exit 1; }

  # Certain answers: staffed holds for both companies, lead is
  # null-valued throughout and must answer 0.
  $GUARDED client --socket "$SOCK" -e "? staffed" | head -1 | grep -qx "ANSWERS 2" \
    || { echo "expected 2 staffed answers"; exit 1; }
  $GUARDED client --socket "$SOCK" -e "? lead" | head -1 | grep -qx "ANSWERS 0" \
    || { echo "null-valued lead tuples leaked into answers"; exit 1; }
  # A CQ may join through the nulls but still projects constants only.
  $GUARDED client --socket "$SOCK" -e "?? lead(L, X), company(X) -> q(X)." \
    | head -1 | grep -qx "ANSWERS 2" \
    || { echo "CQ through the invented lead failed"; exit 1; }

  # An addition continues the chase (a fresh null for the new company)...
  D0=$(cstat chase_derivations)
  $GUARDED client --socket "$SOCK" --exec="+company(corp)." --exec=COMMIT \
    | grep -q "^COMMITTED" || { echo "chase commit failed"; exit 1; }
  $GUARDED client --socket "$SOCK" -e "? staffed" | head -1 | grep -qx "ANSWERS 3" \
    || { echo "addition not chased"; exit 1; }
  [ "$(cstat chase_nulls)" = 3 ] \
    || { echo "expected 3 nulls after the addition, got $(cstat chase_nulls)"; exit 1; }
  [ "$(cstat chase_derivations)" -gt "$D0" ] \
    || { echo "chase_derivations did not grow on a continuation"; exit 1; }

  # ...and a deletion re-chases the shrunk EDB.
  $GUARDED client --socket "$SOCK" --exec="-company(acme)." --exec=COMMIT \
    | grep -q "^COMMITTED" || { echo "chase deletion commit failed"; exit 1; }
  $GUARDED client --socket "$SOCK" -e "? staffed" | head -1 | grep -qx "ANSWERS 2" \
    || { echo "deletion not re-chased"; exit 1; }

  # Snapshots have no wire format for nulls: refused in chase mode.
  SNAP_REPLY=$($GUARDED client --socket "$SOCK" -e "SNAPSHOT" || true)
  echo "$SNAP_REPLY" | head -1 | grep -q "^ERROR" \
    || { echo "snapshot accepted in chase mode: $SNAP_REPLY"; exit 1; }

  kill -TERM "$SERVER_PID"
  for _ in $(seq 1 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.2
  done
  kill -0 "$SERVER_PID" 2>/dev/null \
    && { echo "chase server did not stop on SIGTERM"; cat "$WORK/listen.log"; exit 1; }
  grep -q "server stopped" "$WORK/listen.log" \
    || { echo "no clean shutdown logged"; cat "$WORK/listen.log"; exit 1; }

  echo "server smoke: OK (domains=$DOMAINS, mode=$MODE)"
  exit 0
fi

if [ "$MODE" = repl ]; then
  # Primary/replica smoke: bootstrap over the wire, converge, redirect
  # writes, then fail over with PROMOTE after the primary dies.
  PSOCK="$WORK/primary.sock"
  RSOCK="$WORK/replica.sock"
  trap 'kill "$SERVER_PID" "$REPLICA_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
  REPLICA_PID=""

  $GUARDED listen "$WORK/path.rules" "$WORK/path.db" \
    --socket "$PSOCK" --domains "$DOMAINS" 2> "$WORK/primary.log" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$PSOCK" ] && break
    sleep 0.2
  done
  [ -S "$PSOCK" ] || { echo "primary did not come up"; cat "$WORK/primary.log"; exit 1; }

  # Commit before the replica exists, so the bootstrap snapshot must
  # carry post-load state, not just the initial database.
  $GUARDED client --socket "$PSOCK" --exec="+e(d, e)." --exec=COMMIT \
    | grep -q "^COMMITTED" || { echo "primary commit failed"; exit 1; }

  # The replica has no local database: it must bootstrap from the
  # primary's wire snapshot (FOLLOW -1).
  $GUARDED listen "$WORK/path.rules" --socket "$RSOCK" --follow "unix:$PSOCK" \
    2> "$WORK/replica.log" &
  REPLICA_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$RSOCK" ] && break
    sleep 0.2
  done
  [ -S "$RSOCK" ] || { echo "replica did not come up"; cat "$WORK/replica.log"; exit 1; }

  rstat() { # rstat SOCK KEY
    $GUARDED client --socket "$1" -e STATS | awk -v key="$2" '$1 == key { print $2 }'
  }
  drain() { # drain EXPECTED_EPOCH
    for _ in $(seq 1 150); do
      LAG=$(rstat "$RSOCK" replication_lag_epochs || echo 1)
      EPOCH=$(rstat "$RSOCK" epoch || echo -1)
      [ "$LAG" = 0 ] && [ "$EPOCH" -ge "$1" ] && return 0
      sleep 0.2
    done
    echo "replica did not drain to epoch $1 (lag=$LAG epoch=$EPOCH)"
    cat "$WORK/replica.log"; exit 1
  }
  drain 1

  # Converged reads: both ends agree on the recursive closure of the
  # 4-edge chain a-b-c-d-e (10 paths).
  P=$($GUARDED client --socket "$PSOCK" -e "? path" | head -1)
  R=$($GUARDED client --socket "$RSOCK" -e "? path" | head -1)
  [ "$P" = "ANSWERS 10" ] || { echo "primary: expected ANSWERS 10, got: $P"; exit 1; }
  [ "$R" = "$P" ] || { echo "replica diverged: primary=$P replica=$R"; exit 1; }

  # Replication STATS keys on both ends.
  for key in role replicas_connected replication_lag_epochs journal_bytes; do
    rstat "$PSOCK" "$key" | grep -q . || { echo "primary STATS missing $key"; exit 1; }
    rstat "$RSOCK" "$key" | grep -q . || { echo "replica STATS missing $key"; exit 1; }
  done
  [ "$(rstat "$PSOCK" role)" = 0 ] || { echo "primary role != 0"; exit 1; }
  [ "$(rstat "$RSOCK" role)" = 1 ] || { echo "replica role != 1"; exit 1; }
  [ "$(rstat "$PSOCK" replicas_connected)" -ge 1 ] \
    || { echo "primary sees no followers"; exit 1; }
  [ "$(rstat "$PSOCK" journal_bytes)" -gt 0 ] \
    || { echo "primary journal is empty after a commit"; exit 1; }

  # ROLE on both ends; the replica names its primary.
  $GUARDED client --socket "$PSOCK" -e ROLE | grep -q "^ROLE primary" \
    || { echo "primary ROLE wrong"; exit 1; }
  $GUARDED client --socket "$RSOCK" -e ROLE | grep "^ROLE replica" | grep -q "primary=" \
    || { echo "replica ROLE wrong"; exit 1; }

  # Writes to the replica are refused with a redirect naming the
  # primary (the client exits nonzero on ERROR replies).
  REDIR=$($GUARDED client --socket "$RSOCK" --exec="+e(e, f)." --exec=COMMIT || true)
  echo "$REDIR" | grep -q "^ERROR redirect" \
    || { echo "replica accepted a write: $REDIR"; exit 1; }
  echo "$REDIR" | grep -q "$PSOCK" \
    || { echo "redirect does not name the primary: $REDIR"; exit 1; }

  # A live commit streams through the journal and is served.
  $GUARDED client --socket "$PSOCK" --exec="+e(e, f)." --exec=COMMIT \
    | grep -q "^COMMITTED" || { echo "second primary commit failed"; exit 1; }
  drain 2
  R2=$($GUARDED client --socket "$RSOCK" -e "? path" | head -1)
  [ "$R2" = "ANSWERS 15" ] || { echo "replica missed the commit: $R2"; exit 1; }

  # Warm failover: kill the primary, promote the replica over the
  # wire, and commit against the promoted node.
  kill -TERM "$SERVER_PID"
  for _ in $(seq 1 50); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.2
  done
  kill -0 "$SERVER_PID" 2>/dev/null \
    && { echo "primary did not stop on SIGTERM"; cat "$WORK/primary.log"; exit 1; }
  $GUARDED client --socket "$RSOCK" -e PROMOTE | grep -q "^ROLE primary" \
    || { echo "PROMOTE did not flip the role"; exit 1; }
  [ "$(rstat "$RSOCK" role)" = 0 ] || { echo "promoted role != 0"; exit 1; }
  $GUARDED client --socket "$RSOCK" --exec="+e(f, g)." --exec=COMMIT \
    | grep -q "^COMMITTED" || { echo "commit on the promoted node failed"; exit 1; }
  POST=$($GUARDED client --socket "$RSOCK" -e "? path" | head -1)
  [ "$POST" = "ANSWERS 21" ] || { echo "promoted node: expected ANSWERS 21, got: $POST"; exit 1; }

  kill -TERM "$REPLICA_PID"
  for _ in $(seq 1 50); do
    kill -0 "$REPLICA_PID" 2>/dev/null || break
    sleep 0.2
  done
  kill -0 "$REPLICA_PID" 2>/dev/null \
    && { echo "replica did not stop on SIGTERM"; cat "$WORK/replica.log"; exit 1; }
  grep -q "server stopped" "$WORK/replica.log" \
    || { echo "no clean replica shutdown logged"; cat "$WORK/replica.log"; exit 1; }

  echo "server smoke: OK (domains=$DOMAINS, mode=$MODE)"
  exit 0
fi

if [ "$MODE" = demand ]; then
  $GUARDED listen "$WORK/path.rules" "$WORK/path.db" \
    --socket "$SOCK" --demand --domains "$DOMAINS" \
    2> "$WORK/listen.log" &
else
  $GUARDED listen "$WORK/path.rules" "$WORK/path.db" \
    --socket "$SOCK" --snapshot "$SNAP" --domains "$DOMAINS" \
    2> "$WORK/listen.log" &
fi
SERVER_PID=$!

for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.2
done
[ -S "$SOCK" ] || { echo "server did not come up"; cat "$WORK/listen.log"; exit 1; }

# STATS helpers: every cache counter key (satellite 2 of ISSUE 7) and
# every event-loop counter key (satellite 2 of ISSUE 8) must be
# present, and the monotone ones must never decrease across two
# identical queries.
stat_of() { # stat_of FILE KEY
  awk -v key="$2" '$1 == key { print $2; found = 1 } END { if (!found) exit 1 }' "$1"
}
take_stats() { # take_stats FILE
  $GUARDED client --socket "$SOCK" -e STATS > "$1"
  for key in cache_hits cache_misses cache_entries cache_evictions heap_kb demand \
             connections_open bytes_buffered backpressure_stalls load_facts; do
    stat_of "$1" "$key" > /dev/null \
      || { echo "STATS missing key $key"; cat "$1"; exit 1; }
  done
}

take_stats "$WORK/stats0.out"
WANT_DEMAND=0; [ "$MODE" = demand ] && WANT_DEMAND=1
[ "$(stat_of "$WORK/stats0.out" demand)" = "$WANT_DEMAND" ] \
  || { echo "STATS demand flag wrong for mode $MODE"; cat "$WORK/stats0.out"; exit 1; }

# Two identical queries with STATS around them: counters stay monotone
# in both modes; in demand mode the second query must hit the cache.
$GUARDED client --socket "$SOCK" -e "? path" > /dev/null
take_stats "$WORK/stats1.out"
$GUARDED client --socket "$SOCK" -e "? path" > /dev/null
take_stats "$WORK/stats2.out"
for key in cache_hits cache_misses cache_evictions backpressure_stalls load_facts; do
  V1=$(stat_of "$WORK/stats1.out" "$key")
  V2=$(stat_of "$WORK/stats2.out" "$key")
  [ "$V2" -ge "$V1" ] || { echo "$key not monotone: $V1 -> $V2"; exit 1; }
done
if [ "$MODE" = demand ]; then
  H1=$(stat_of "$WORK/stats1.out" cache_hits)
  H2=$(stat_of "$WORK/stats2.out" cache_hits)
  [ "$H2" -gt "$H1" ] || { echo "repeat query did not hit the cache: $H1 -> $H2"; exit 1; }
  [ "$(stat_of "$WORK/stats2.out" cache_entries)" -ge 1 ] \
    || { echo "no cache entries after queries"; cat "$WORK/stats2.out"; exit 1; }
else
  # Materialized serving has no subgoal cache: counters stay zero.
  [ "$(stat_of "$WORK/stats2.out" cache_hits)" = 0 ] \
    || { echo "materialized mode reported cache hits"; cat "$WORK/stats2.out"; exit 1; }
fi

# ~50 queries across the protocol's query forms.
for _ in $(seq 1 16); do
  $GUARDED client --socket "$SOCK" \
    -e "? path" \
    -e "? path(a, ?X)" \
    -e "?? path(X, Y), path(Y, Z) -> two(X, Z)." \
    > /dev/null
done

# Before the update: 6 paths over the 3-edge chain.
BEFORE=$($GUARDED client --socket "$SOCK" -e "? path" | head -1)
[ "$BEFORE" = "ANSWERS 6" ] || { echo "expected ANSWERS 6, got: $BEFORE"; exit 1; }

# An update batch: extend the chain, retire the first edge.
$GUARDED client --socket "$SOCK" \
  --exec="+e(d, e)." --exec="-e(a, b)." --exec=COMMIT --exec=STATS > "$WORK/commit.out"
grep -q "^COMMITTED" "$WORK/commit.out" || { echo "commit failed"; cat "$WORK/commit.out"; exit 1; }

AFTER=$($GUARDED client --socket "$SOCK" -e "? path" | head -1)
[ "$AFTER" = "ANSWERS 6" ] || { echo "expected ANSWERS 6 after update, got: $AFTER"; exit 1; }
$GUARDED client --socket "$SOCK" -e "? path(a, ?X)" | head -1 | grep -qx "ANSWERS 0" \
  || { echo "deleted edge still answers"; exit 1; }

# Retire, re-add and retire one edge on the same server, then restore
# it: every removal must take its paths away and every re-addition
# bring them back, so the answer count alternates between two values.
commit_edge() { # commit_edge +|- FACT
  $GUARDED client --socket "$SOCK" --exec="$1$2" --exec=COMMIT | grep -q "^COMMITTED" \
    || { echo "commit of $1$2 failed"; exit 1; }
}
expect_paths() { # expect_paths N WHAT
  GOT=$($GUARDED client --socket "$SOCK" -e "? path" | head -1)
  [ "$GOT" = "ANSWERS $1" ] || { echo "$2: expected ANSWERS $1, got: $GOT"; exit 1; }
}
commit_edge - "e(c, d)."; expect_paths 2 "after retiring e(c, d)"
commit_edge + "e(c, d)."; expect_paths 6 "after re-adding e(c, d)"
commit_edge - "e(c, d)."; expect_paths 2 "after retiring e(c, d) again"
commit_edge + "e(c, d)."; expect_paths 6 "after restoring e(c, d)"

# Bulk ingest over the binary LOAD path: 200 disjoint edges staged by
# `guarded load` in one go, committed, and served; load_facts must
# count them (it is monotone and was 0 until now).
seq 1 200 | awk '{ printf "e(u%d, v%d).\n", $1, $1 }' > "$WORK/bulk.db"
$GUARDED load "$WORK/bulk.db" --socket "$SOCK" --chunk 64 > "$WORK/load.out"
grep -q "^staged 200 facts" "$WORK/load.out" \
  || { echo "bulk load did not stage 200 facts"; cat "$WORK/load.out"; exit 1; }
grep -q "^committed: +" "$WORK/load.out" \
  || { echo "bulk load did not commit"; cat "$WORK/load.out"; exit 1; }
BULK=$($GUARDED client --socket "$SOCK" -e "? path" | head -1)
[ "$BULK" = "ANSWERS 206" ] \
  || { echo "expected ANSWERS 206 after the bulk load, got: $BULK"; exit 1; }
take_stats "$WORK/stats_load.out"
[ "$(stat_of "$WORK/stats_load.out" load_facts)" -ge 200 ] \
  || { echo "load_facts did not count the bulk load"; cat "$WORK/stats_load.out"; exit 1; }

if [ "$MODE" = demand ]; then
  # The commit invalidated path's component; snapshots are refused.
  take_stats "$WORK/stats3.out"
  [ "$(stat_of "$WORK/stats3.out" cache_evictions)" -ge 1 ] \
    || { echo "commit did not evict cached subgoals"; cat "$WORK/stats3.out"; exit 1; }
  # The client exits nonzero on an ERROR reply; what matters here is
  # the refusal itself.
  SNAP_REPLY=$($GUARDED client --socket "$SOCK" -e "SNAPSHOT" || true)
  echo "$SNAP_REPLY" | head -1 | grep -q "^ERROR" \
    || { echo "snapshot accepted in demand mode: $SNAP_REPLY"; exit 1; }
else
  # Persist, then check the snapshot below after shutdown.
  $GUARDED client --socket "$SOCK" -e "SNAPSHOT" | grep -qx "OK" || { echo "snapshot failed"; exit 1; }
fi

# Graceful shutdown on SIGTERM.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not stop on SIGTERM"; cat "$WORK/listen.log"; exit 1
fi
grep -q "server stopped" "$WORK/listen.log" || { echo "no clean shutdown logged"; cat "$WORK/listen.log"; exit 1; }

if [ "$MODE" = materialized ]; then
  [ -f "$SNAP" ] || { echo "snapshot file missing"; exit 1; }

  # Warm restart from the snapshot (no DATABASE argument) serves the
  # updated state.
  $GUARDED listen "$WORK/path.rules" --socket "$SOCK" --snapshot "$SNAP" \
    2>> "$WORK/listen.log" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.2
  done
  WARM=$($GUARDED client --socket "$SOCK" -e "? path" | head -1)
  [ "$WARM" = "ANSWERS 206" ] || { echo "warm restart: expected ANSWERS 206, got: $WARM"; exit 1; }
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true

  # A version-1 image (it also carried derivation counts) is refused
  # up front: exit 2 with the parseable version error, never a crash
  # and never a served socket.
  printf '1' | dd of="$SNAP" bs=1 seek=7 count=1 conv=notrunc 2>/dev/null
  OLD_RC=0
  timeout 60 $GUARDED listen "$WORK/path.rules" --socket "$SOCK" --snapshot "$SNAP" \
    2> "$WORK/old_snap.log" || OLD_RC=$?
  [ "$OLD_RC" = 2 ] || { echo "version-1 snapshot: expected exit 2, got $OLD_RC"; cat "$WORK/old_snap.log"; exit 1; }
  grep -q "unsupported snapshot version" "$WORK/old_snap.log" \
    || { echo "version-1 snapshot: no version error"; cat "$WORK/old_snap.log"; exit 1; }
  if grep -q "listening on" "$WORK/old_snap.log"; then
    echo "version-1 snapshot: the server started serving"; cat "$WORK/old_snap.log"; exit 1
  fi
fi

echo "server smoke: OK (domains=$DOMAINS, mode=$MODE)"
