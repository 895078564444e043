#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# Every suite runs under a hard wall-clock timeout: a hang (a worker that
# never observes its cancel token, an admission queue that never wakes) is
# a FAILURE here, not a stuck pipeline. `timeout` exits 124 on expiry,
# which trips `set -e`.
SUITE_TIMEOUT=${SUITE_TIMEOUT:-900}
BUILD_TIMEOUT=${BUILD_TIMEOUT:-1800}

echo "== cargo fmt --check =="
timeout "$BUILD_TIMEOUT" cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
timeout "$BUILD_TIMEOUT" cargo clippy --workspace --all-targets -- -D warnings

echo "== docs: rustdoc warnings are errors =="
timeout "$BUILD_TIMEOUT" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: cargo build --release && cargo test -q =="
timeout "$BUILD_TIMEOUT" cargo build --release
timeout "$BUILD_TIMEOUT" cargo test -q

echo "== every other suite once: storage, sql, engine, tpch, cjdbc, core, sim, crates/bench, compat/* =="
# Tier-1 is the root package (every file under tests/); this is every other
# package of the workspace, each suite whole: the column heap against its row
# model, parser and Display round-trip, evaluator against its reference and
# morsel byte identity (DESIGN.md §12), cancellation/deadline/budget (§11),
# rewriter, composer, gate, fault and governance paths, controller,
# admission, health, recovery log, overload_soak, the simulator.
timeout "$SUITE_TIMEOUT" cargo test -q --workspace --exclude apuama-suite

echo "== simulator tables: fig all and ablation at SF 0.002 must equal ci/sim_tables_sf0002.txt =="
# Every figure and ablation table is priced on the simulator's virtual clock,
# so the same code prints the same bytes. A change that means to move a table
# re-records the file and names the moved rows, and why, in CHANGES.md.
timeout "$BUILD_TIMEOUT" cargo build --release -p apuama-bench --bins
sim_tables=$(mktemp)
sim_log=$(mktemp)
(
  export APUAMA_SF=0.002 APUAMA_NODES=1,2,4,8,16,32 APUAMA_SEED=42
  timeout "$SUITE_TIMEOUT" ./target/release/fig all &&
    timeout "$SUITE_TIMEOUT" ./target/release/ablation
) > "$sim_tables" 2> "$sim_log" || { cat "$sim_log"; exit 1; }
if ! diff -u ci/sim_tables_sf0002.txt "$sim_tables"; then
  echo "FAIL: the simulator's tables moved (ci/sim_tables_sf0002.txt)."
  exit 1
fi
rm -f "$sim_tables" "$sim_log"

echo "== interleaving-sensitive tests, 20 times each =="
# The OS picks one interleaving per run; repetition stands in for the seeded
# scheduler of ROADMAP.md item 7, which replaces this loop once it exists.
# The update gate's own unit tests (`consistency::tests`) race an SVP block
# against writers on real threads, so they repeat too, and so does the
# README cluster's disable_backend test, which races writes against the gate.
for _ in $(seq 20); do
  timeout "$SUITE_TIMEOUT" cargo test -q --test fault_tolerance --test consistency_under_concurrency -- a_requeued_range_sees_its_siblings_prefix faulted_svp_under_concurrent_writes_neither_deadlocks_nor_skews_counters interleaved_refreshes_leave_every_replica_the_same_prefix_and_answers the_readme_cluster_keeps_serving_after_disable_backend
  timeout "$SUITE_TIMEOUT" cargo test -q -p apuama --lib consistency
done

echo "== SVP dispatch: every arrival order and failure set (DESIGN.md §8) =="
# By name: the dispatcher's exhaustive test walks every order in which runs
# report and every set of failing attempts up to four nodes, and checks
# routing, tickets, requeue, doom-cancel and the root-cause error.
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama --lib every_arrival_order_and_failure_set_keeps_the_invariants

echo "== failure classes: only a node's fault counts against it (DESIGN.md §8) =="
# By name: a statement error in SVP sub-queries, in a pass-through read and
# in a write strikes no breaker and disables no backend.
timeout "$SUITE_TIMEOUT" cargo test -q --test fault_tolerance -- statement_error

echo "== clustered ranges: ordered prefix and tail against the slot model (DESIGN.md §13) =="
# By name: the model is one unit test of the engine crate's suite above, and
# the one to look at first when a virtual partition answers wrongly.
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama-engine --lib clustered_model

echo "== dictionary-coded strings: the column heap against its row model (DESIGN.md §13) =="
# By name, as the clustered model above: the heap model checks after every
# step that a segment's strings are coded exactly while their distinct
# values fit the dictionary, and the column's own test walks the fallback.
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama-storage --test heap_model
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama-storage --lib strings_are_coded_until_the_dictionary_is_full

echo "== lifted text reads: plan-cache equivalence and hit accounting (DESIGN.md §9) =="
# By name: a text SELECT runs from the plan cache with its WHERE literals
# lifted into bound values; it must answer what the statement with its
# literals in place answers, counter for counter, and a thousand point
# reads through the controller must cost each serving node one miss.
timeout "$SUITE_TIMEOUT" cargo test -q --test property_prepared -- lifted
timeout "$SUITE_TIMEOUT" cargo test -q --test end_to_end -- distinct_key_point_reads_miss_once_per_serving_node
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama-engine --lib lifted_tests
timeout "$SUITE_TIMEOUT" cargo test -q -p apuama-sql --lib lift

echo "== key filters on a join's driving scan against nested loops (DESIGN.md §10) =="
timeout "$SUITE_TIMEOUT" cargo test -q --test join_oracle -- key_filters_answer_what_nested_loops_answer probe_placement_divergences_are_the_documented_ones

echo "== benchmark package: its own tests, then a smoke run that must answer correctly =="
# benchmark/ is a workspace of its own (BENCHMARK.json runs it from a fresh
# checkout), so the root `cargo test` never builds it. `--locked`: a change
# to a crate's dependencies that would make cargo rewrite
# benchmark/Cargo.lock fails here instead of editing a file under
# benchmark/.
(cd benchmark && timeout "$BUILD_TIMEOUT" cargo test --release --offline --locked -q)
# One client alone, two streams at once, refresh beside reads, pass-through:
# no other suite runs the last three, and each smoke takes about a second.
for workload in olap_power olap_streams mixed_refresh oltp_passthrough; do
  smoke=$(timeout "$SUITE_TIMEOUT" cargo run --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml -- --workload "$workload" --smoke | tail -n 1)
  echo "$smoke"
  case "$smoke" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
      echo "FAIL: the $workload smoke run reported a wrong answer or a failed operation."
      exit 1
      ;;
  esac
done

echo "== benchmark counters: the traced smoke run's work per pass must equal ci/olap_power_smoke.counters =="
traced=$(timeout "$SUITE_TIMEOUT" cargo run --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml -- --workload olap_power --smoke --trace 1 | tail -n 1)
while read -r name want; do
  case "$name" in ''|'#'*) continue ;; esac
  got=$(printf '%s' "$traced" | sed -n "s/.*\"$name\": {\"value\": \([0-9]*\),.*/\1/p")
  if [ "$got" != "$want" ]; then
    echo "FAIL: $name = ${got:-missing}, expected $want (ci/olap_power_smoke.counters)."
    exit 1
  fi
  echo "counter: $name = $got"
done < ci/olap_power_smoke.counters

echo "ci: all green"
