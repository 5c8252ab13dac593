#!/usr/bin/env bash
# Local CI gate: build everything, run the full test suite, and hold the
# workspace to zero clippy warnings.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release

# Test suite, held to a wall-clock budget so the tier-1 gate cannot creep
# into unusable territory (override for slow machines).
TEST_BUDGET_SECS="${CI_TEST_BUDGET_SECS:-600}"
test_start=$(date +%s)
cargo test -q
test_elapsed=$(( $(date +%s) - test_start ))
echo "test suite took ${test_elapsed}s (budget ${TEST_BUDGET_SECS}s)"
if [ "$test_elapsed" -gt "$TEST_BUDGET_SECS" ]; then
    echo "error: test suite exceeded its ${TEST_BUDGET_SECS}s budget" >&2
    exit 1
fi

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Timer gate (DESIGN.md §4m): (a) the non-test part of ckpt, parsl, serve
# and core (each file up to its first #[cfg(test)]) holds no `sleep(` at
# all. Every wait there is one something can end — `Clock::wait` with a
# StopSignal in a long-lived thread, the kernel timer's deadline heap, the
# daemon's poll(2), the client's `wait` verb — so the next timer someone
# puts on a request or exit path fails here instead of showing up as a 25
# or 50 ms step in the ledger. (b) The non-test part of dfk.rs starts no
# thread and carries no `timer-ok` marker: a walltime or a retry backoff is
# an entry on the kernel's one timer (timer.rs), not a thread of its own.
# (c) The non-test part of gridsim (its `bin/` included) starts no thread:
# the batch scheduler grants synchronously on submit and release, and the
# simulator is one event loop, so nothing there may wait on real time in
# the background. No timing is asserted anywhere: the tests that hang when
# a waiter cannot be woken are the regression guard.
sleeps=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /sleep\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/ckpt/src/*.rs crates/parsl/src/*.rs \
    crates/serve/src/*.rs crates/serve/src/bin/*.rs \
    crates/core/src/*.rs crates/core/src/bin/*.rs)
if [ -n "$sleeps" ]; then
    echo "error: sleep( outside a test module:" >&2
    echo "$sleeps" >&2
    echo "wait on what signals instead (Clock::wait + StopSignal, the kernel timer, poll, the wait verb); see DESIGN.md §4m" >&2
    exit 1
fi
dfk_threads=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /thread::Builder|thread::spawn|timer-ok/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/parsl/src/dfk.rs)
if [ -n "$dfk_threads" ]; then
    echo "error: dfk.rs starts a thread or keeps a timer of its own:" >&2
    echo "$dfk_threads" >&2
    echo "schedule it on the kernel timer (crates/parsl/src/timer.rs) instead" >&2
    exit 1
fi
gridsim_threads=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /thread::Builder|thread::spawn/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/gridsim/src/*.rs crates/gridsim/src/bin/*.rs)
if [ -n "$gridsim_threads" ]; then
    echo "error: gridsim starts a thread outside its tests:" >&2
    echo "$gridsim_threads" >&2
    echo "the scheduler and the simulator decide synchronously; see the gridsim::scheduler module doc" >&2
    exit 1
fi
echo "timer gate: no sleep( in ckpt, parsl, serve or core; dfk.rs and gridsim start no thread"

# One-protocol gate (DESIGN.md §4b, §4i): HTEX and the simulator make every
# interchange decision through gridsim::interchange, and HTEX waits on its
# channels, not on timers. (a) The non-test part of htex.rs has no
# `recv_timeout(`, no `WORKER_POLL` and no `timer-ok` marker: a lost node's
# workers are woken through their channel and a queue with no live node is
# held until a node registers. (b) sim.rs and htex.rs both name the
# module's types, so neither keeps a copy of the rules.
htex_timers=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /recv_timeout\(|WORKER_POLL|timer-ok/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/parsl/src/htex.rs)
if [ -n "$htex_timers" ]; then
    echo "error: HTEX waits on a timer instead of its channels:" >&2
    echo "$htex_timers" >&2
    exit 1
fi
for src in crates/gridsim/src/sim.rs crates/parsl/src/htex.rs; do
    for name in Ledger Dispatch Heartbeat after_loss; do
        if ! awk '/#\[cfg\(test\)\]/ { exit } { print }' "$src" | grep -qw "$name"; then
            echo "error: $src does not use gridsim::interchange's $name" >&2
            exit 1
        fi
    done
done
echo "protocol gate: htex.rs has no poll timer; sim.rs and htex.rs drive gridsim::interchange"

# One-attempt gate (DESIGN.md §4c): a task attempt is one object that the
# executor runs and completes. (a) The non-test part of dfk.rs makes one
# future per task, the task's own, so it calls `promise_pair(` exactly
# once; (b) `TaskPayload` carries no promise field, so no second future
# rides beside the attempt.
promise_calls=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /promise_pair\(/ { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/parsl/src/dfk.rs)
if [ "$(echo "$promise_calls" | grep -c .)" -ne 1 ]; then
    echo "error: dfk.rs must call promise_pair( once, for the task's own future:" >&2
    echo "${promise_calls:-(no call)}" >&2
    exit 1
fi
payload_promise=$(awk '
    /^pub struct TaskPayload/ { inside = 1 }
    inside && /^[[:space:]]*(pub[[:space:]]+)?promise[[:space:]]*:/ {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
    inside && /^}/ { inside = 0 }
' crates/parsl/src/executor.rs)
if [ -n "$payload_promise" ]; then
    echo "error: TaskPayload carries a promise beside its attempt:" >&2
    echo "$payload_promise" >&2
    exit 1
fi
echo "attempt gate: one promise_pair in dfk.rs; TaskPayload carries its attempt alone"

# One-journal gate (DESIGN.md §4f "One binding"): a parsl-cwl run's journal
# and a parsl-serve run's are one type in the kernel, reached through one
# lookup, and CWL tools have one subprocess spawner. (a) The non-test part
# of dfk.rs names neither of the two journal types that came before
# `BoundJournal`, nor the task-to-step side table's `bind_step`, nor the
# second submit entry; (b) the bash_app analogue is gone from crates/,
# tests/ and examples/: `cwlexec::SubprocessDispatch` runs every tool.
journal_doubles=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    { printf "%s:%d:%s\n", FILENAME, FNR, $0 }
' crates/parsl/src/dfk.rs | grep -wE 'CkptState|RunCkpt|bind_step|submit_bound' || true)
if [ -n "$journal_doubles" ]; then
    echo "error: dfk.rs binds journals or submits through a second path:" >&2
    echo "$journal_doubles" >&2
    exit 1
fi
second_spawner=$(grep -rnwE 'CommandApp|CommandSpec|run_command|submit_command' \
    crates tests examples || true)
if [ -n "$second_spawner" ]; then
    echo "error: a second subprocess spawner; run tools through cwlexec's SubprocessDispatch:" >&2
    echo "$second_spawner" >&2
    exit 1
fi
echo "journal gate: one journal binding in dfk.rs; SubprocessDispatch is the one spawner"

# Realpath gate (DESIGN.md §4g): the data plane and checkpoint validation
# know a file by the identity of the one stat they make, so in the non-test
# part of datastore and core's checkpoint.rs every `.canonicalize(` must
# say, on its own line, why that file needs a resolved path. The one
# expected marker is ingest's symlink-source fallback.
unmarked_realpaths=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\((all\()?test/ { in_tests = 1 }
    !in_tests && /\.canonicalize\(/ && !/\/\/ realpath-ok: [^ ]/ {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
' crates/datastore/src/*.rs crates/core/src/checkpoint.rs)
if [ -n "$unmarked_realpaths" ]; then
    echo "error: .canonicalize( without a same-line '// realpath-ok: <reason>' marker:" >&2
    echo "$unmarked_realpaths" >&2
    echo "probe the digest index with the stat you already have; see DESIGN.md §4g" >&2
    exit 1
fi
echo "realpath gate: every canonicalize in datastore and checkpoint carries its realpath-ok reason"

# Deterministic-simulation gate (DESIGN.md §4i): the invariant suite over a
# fixed 50-seed matrix plus one rotating seed indexed by the CI run (falling
# back to the date locally), so every CI run explores a schedule nobody has
# seen before while staying replayable. simrun prints the reproducing seed
# and the exact replay command on failure and exits nonzero.
rotating_seed=$(( ${GITHUB_RUN_NUMBER:-$(date +%Y%m%d)} + 1000003 ))
echo "sim gate: fixed seeds 1..50 + rotating seed ${rotating_seed}"
cargo run --release -p gridsim --bin simrun -- \
    --suite --count 50 --base 1 --seeds "$rotating_seed"
# The full-stack driver (real DFK/HTEX under a virtual clock) on the same
# rotating seed; the fixed matrix already ran inside `cargo test` above.
SIM_SEEDS="$rotating_seed" cargo test --release -q -p cwl_parsl \
    --test integration_simtest
# Replay guarantee: two consecutive runs of one seed must emit byte-identical
# event logs, else a CI failure's seed would not reproduce locally.
cargo run --release -p gridsim --bin simrun -- --log 42 > target/sim-seed42-a.log
cargo run --release -p gridsim --bin simrun -- --log 42 > target/sim-seed42-b.log
if ! cmp -s target/sim-seed42-a.log target/sim-seed42-b.log; then
    echo "error: seed 42 produced different event logs on consecutive runs:" >&2
    diff target/sim-seed42-a.log target/sim-seed42-b.log | head >&2
    exit 1
fi
echo "sim gate: seed 42 event log is byte-stable across runs"

# Static analysis gate: every shipped fixture and config must be
# diagnostic-free, warnings included. (fixtures/broken/ is the analyzer's
# own negative corpus and is deliberately not globbed here.)
cargo run --release -p cwl_parsl --bin cwl-check -- --strict -q fixtures/*.cwl configs/

# One-rulebook gate (DESIGN.md §4d): `cwl::analyze` is the only code that
# decides whether a CWL document is valid. (a) The benchmark's two compat
# names for it are called nowhere but their own file, and `Severity` is
# defined once; (b) `parsl-cwl --validate` passes exactly the documents
# `cwl-check` passes, broken corpus included.
compat_calls=$(grep -rnE --include='*.rs' '\bvalidate_document\b|\bvalidate::is_valid\b' \
    crates/*/src crates/*/tests tests | grep -v '^crates/cwl/src/lib.rs:' || true)
if [ -n "$compat_calls" ]; then
    echo "error: call the analyzer (cwl::analyze), not its benchmark compat names:" >&2
    echo "$compat_calls" >&2
    exit 1
fi
severity_defs=$(grep -rn --include='*.rs' 'enum Severity\b' crates tests || true)
if [ "$(echo "$severity_defs" | grep -c .)" -ne 1 ]; then
    echo "error: Severity must be defined once, in cwl::analyze::diag:" >&2
    echo "$severity_defs" >&2
    exit 1
fi
for doc in fixtures/*.cwl $(find fixtures/broken -name '*.cwl' | sort); do
    checked=pass validated=pass
    ./target/release/cwl-check -q "$doc" >/dev/null 2>&1 || checked=fail
    ./target/release/parsl-cwl --validate "$doc" >/dev/null 2>&1 || validated=fail
    if [ "$checked" != "$validated" ]; then
        echo "error: $doc: cwl-check ${checked}, parsl-cwl --validate ${validated}" >&2
        exit 1
    fi
done
echo "rulebook gate: one Severity, no compat calls, --validate agrees with cwl-check"

# Run-config lint gate: every shipped config must type-check against the
# parsl-lint schema, warnings included.
cargo run --release -p cwl_parsl --bin parsl-lint -- --strict -q configs/

# One-schema gate (DESIGN.md §4h): `core::config`'s key table is the only
# code that names a config key, so the loader, parsl-lint and
# `cwl-check --config` cannot disagree on which keys exist. A string
# literal naming one of these keys (bare or dotted) outside that one file
# means a second reader has grown back.
schema_files=$(grep -rlE \
    '"([A-Za-z_.]*\.)?(heartbeat_timeout_ms|workers_per_node|max_in_flight|builtin_tools|period_ms)"' \
    crates/*/src | sort -u)
if [ "$schema_files" != "crates/core/src/config.rs" ]; then
    echo "error: config keys must be read in crates/core/src/config.rs alone; found in:" >&2
    echo "$schema_files" >&2
    exit 1
fi
# Negative config corpus: every file under fixtures/broken_configs/ is a
# config the run refuses, so parsl-lint must fail it and cwl-check --config
# must refuse it rather than size an executor from it.
for bad in fixtures/broken_configs/*.yml; do
    if ./target/release/parsl-lint -q "$bad" >/dev/null 2>&1; then
        echo "error: parsl-lint passed $bad" >&2
        exit 1
    fi
    if ./target/release/cwl-check --config "$bad" fixtures/echo.cwl >/dev/null 2>&1; then
        echo "error: cwl-check --config $bad passed" >&2
        exit 1
    fi
done
echo "config gates: one key table; every broken config is refused by parsl-lint and cwl-check"

# One-event-path gate (DESIGN.md §4e): every task and node event is one
# counter in the kernel's obs registry, read back by `monitoring()` and
# waited on with `Observability::wait_for`. The per-event ring that ran
# beside it must not grow back: not its types, not the executor hook that
# fed it, not the config key that bounded it. Test modules are skipped
# (each file from its first #[cfg(test)] on): the lint test feeds the
# removed key to parsl-lint to see it refused.
event_path=$(find crates tests examples -type f | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /MonitoringLog|TaskEvent|attach_monitoring|events_cap/ {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
')
if [ -n "$event_path" ]; then
    echo "error: task events have one path, the obs registry; found a second:" >&2
    echo "$event_path" >&2
    exit 1
fi
echo "event-path gate: no event ring, no attach_monitoring, no events_cap"

# The analyzer must still CATCH what it exists to catch: a clean exit on
# the negative corpus would mean the effect/feasibility passes regressed.
for bad in effect_collision unschedulable nested_unschedulable; do
    if cargo run --release -p cwl_parsl --bin cwl-check -- --strict -q \
        "fixtures/broken/$bad.cwl" >/dev/null 2>&1; then
        echo "error: cwl-check --strict passed fixtures/broken/$bad.cwl" >&2
        exit 1
    fi
done

# Benches must at least compile.
cargo bench --no-run

# The ledger (BENCHMARK.json) is a package of its own, outside the
# workspace, built against these crates' public API: test it and smoke-run
# every workload here, so a crate change that stops the benchmark compiling
# or verifying its outputs fails CI rather than the next measurement.
cargo test --offline --manifest-path ledger/Cargo.toml
cargo run --release --offline --manifest-path ledger/Cargo.toml -- --smoke

# Dispatch-pipeline throughput smoke: exercises the batched HTEX protocol
# and the compiled-expression cache end to end. The committed
# BENCH_dispatch.json comes from a full run (no --smoke); see EXPERIMENTS.md.
cargo run --release -p bench --bin throughput -- --smoke --json target/BENCH_dispatch.smoke.json

# Stage-in throughput smoke: the zero-copy ladder vs the byte-copy baseline
# over a small scatter, with byte-identity verified inside the driver. The
# committed BENCH_staging.json comes from a full run; see EXPERIMENTS.md.
cargo run --release -p bench --bin staging -- --smoke --json target/BENCH_staging.smoke.json

# Observability smoke: run a workflow with monitoring on, then summarize the
# exported trace with parsl-trace in both human and JSON form. The JSON
# output must name every diamond task.
rm -rf target/trace-smoke-work target/trace-smoke.jsonl target/trace-smoke.jsonl.chrome.json
cargo run --release -p cwl_parsl --bin parsl-cwl -- \
    configs/trace-smoke.yml fixtures/diamond.cwl --message='trace smoke'
test -s target/trace-smoke.jsonl
test -s target/trace-smoke.jsonl.chrome.json
cargo run --release -p obs --bin parsl-trace -- target/trace-smoke.jsonl
trace_json=$(cargo run --release -p obs --bin parsl-trace -- target/trace-smoke.jsonl --json)
for step in seed left right join; do
    echo "$trace_json" | grep -q "\"$step\"" || {
        echo "error: parsl-trace --json is missing task \"$step\"" >&2
        exit 1
    }
done

# Data-plane smoke, on the same trace: the diamond's fan-out must have
# staged at least one input by link (not copy) and saved bytes doing it.
for metric in stage.links stage.bytes_saved; do
    value=$(echo "$trace_json" \
        | grep -o "\"name\":\"$metric\",\"kind\":\"counter\",\"value\":[0-9]*" \
        | grep -o '[0-9]*$')
    if [ -z "$value" ] || [ "$value" -eq 0 ]; then
        echo "error: data plane staged nothing zero-copy ($metric=${value:-missing})" >&2
        exit 1
    fi
    echo "data-plane smoke: $metric=$value"
done

# linkMerge smoke, same config: the diamond whose join gathers both branches
# through one `source` list (fixtures/diamond_merge.cwl) must run through the
# shipped binary and join the message twice.
cargo run --release -p cwl_parsl --bin parsl-cwl -- \
    configs/trace-smoke.yml fixtures/diamond_merge.cwl --message='merge smoke'
merged=$(grep -c '^merge smoke$' target/trace-smoke-work/join/joined.txt || true)
if [ "$merged" -ne 2 ]; then
    echo "error: linkMerge join holds the message $merged time(s), expected 2" >&2
    exit 1
fi

# Blur-radius smoke: box_blur's cost must not depend on its radius and its
# window sums must not wrap. An 8x8 all-white image (checker kind, seed 100:
# cells wider than the image) blurred at the largest u32 radius must finish
# well inside the timeout and stay all white.
rm -rf target/blur-smoke
mkdir -p target/blur-smoke
./target/release/imgtool gen target/blur-smoke/white.rimg \
    --width 8 --height 8 --kind checker --seed 100
timeout 10 ./target/release/imgtool blur target/blur-smoke/white.rimg \
    target/blur-smoke/wide.rimg --radius 4294967295
blur_info=$(./target/release/imgtool info target/blur-smoke/wide.rimg)
case "$blur_info" in
*"mean_rgb=(255.0, 255.0, 255.0)"*) echo "blur-radius smoke: $blur_info" ;;
*)
    echo "error: blur at radius u32::MAX changed a white image: $blur_info" >&2
    exit 1
    ;;
esac

# .rimg integrity smoke: a generated image reads back; one pixel byte
# overwritten in place (offset 40 of an all-white 8x8 image: past the
# 13-byte header, inside the 192 pixel bytes) makes `info` refuse it as
# corrupt; and a dimension the codec cannot store is a usage error (exit 1),
# never a panic (exit 101) or a file nothing can read.
rm -rf target/rimg-smoke
mkdir -p target/rimg-smoke
./target/release/imgtool gen target/rimg-smoke/white.rimg \
    --width 8 --height 8 --kind checker --seed 100
./target/release/imgtool info target/rimg-smoke/white.rimg >/dev/null
printf '\000' | dd of=target/rimg-smoke/white.rimg bs=1 seek=40 count=1 \
    conv=notrunc 2>/dev/null
if rimg_err=$(./target/release/imgtool info target/rimg-smoke/white.rimg 2>&1); then
    echo "error: imgtool info read an image with an overwritten pixel" >&2
    exit 1
fi
case "$rimg_err" in
*corrupt*) echo "rimg smoke: $rimg_err" ;;
*)
    echo "error: overwritten pixel not reported as corrupt: $rimg_err" >&2
    exit 1
    ;;
esac
for width in 0 65537; do
    rimg_code=0
    rimg_err=$(./target/release/imgtool gen target/rimg-smoke/bad.rimg \
        --width "$width" --height 4 2>&1) || rimg_code=$?
    case "$rimg_code:$rimg_err" in
    "1:imgtool: --width must be"*) echo "rimg smoke: $rimg_err" ;;
    *)
        echo "error: gen --width $width exited $rimg_code: $rimg_err" >&2
        exit 1
        ;;
    esac
done
if [ -e target/rimg-smoke/bad.rimg ]; then
    echo "error: a refused gen left target/rimg-smoke/bad.rimg behind" >&2
    exit 1
fi

# Crash-resume smoke: kill parsl-cwl mid-run with SIGKILL, resume from the
# checkpoint journal, and require the resumed run to report replayed tasks
# through parsl-trace. The workflow is generated under target/ (not
# fixtures/) so the cwl-check gate's corpus is unchanged; each step gates on
# the previous one so the kill window is wide.
rm -rf target/ckpt-smoke target/ckpt-smoke-work target/ckpt-smoke.jsonl
mkdir -p target/ckpt-smoke
cat > target/ckpt-smoke/slow_step.cwl <<'EOF'
cwlVersion: v1.2
class: CommandLineTool
baseCommand: sleepms
inputs:
  ms:
    type: int
    inputBinding:
      position: 1
  gate:
    type: File?
    inputBinding:
      position: 2
outputs:
  output:
    type: stdout
stdout: slept.txt
EOF
cat > target/ckpt-smoke/slow.cwl <<'EOF'
cwlVersion: v1.2
class: Workflow
inputs:
  first_ms:
    type: int
outputs:
  done:
    type: File
    outputSource: s4/output
steps:
  s1:
    run: slow_step.cwl
    in:
      ms: first_ms
    out: [output]
  s2:
    run: slow_step.cwl
    in:
      ms:
        default: 800
      gate: s1/output
    out: [output]
  s3:
    run: slow_step.cwl
    in:
      ms:
        default: 800
      gate: s2/output
    out: [output]
  s4:
    run: slow_step.cwl
    in:
      ms:
        default: 800
      gate: s3/output
    out: [output]
EOF
cat > target/ckpt-smoke/config.yml <<'EOF'
executor:
  kind: thread-pool
  workers: 1
checkpoint:
  mode: task-exit
monitoring:
  enabled: true
  sample_rate: 1.0
  export: target/ckpt-smoke.jsonl
  sinks: [jsonl]
run:
  workdir: ./target/ckpt-smoke-work
  builtin_tools: true
EOF
./target/release/parsl-cwl target/ckpt-smoke/config.yml \
    target/ckpt-smoke/slow.cwl --first_ms=10 >/dev/null 2>&1 &
smoke_pid=$!
ckpt_journal=target/ckpt-smoke-work/ckpt/journal.ckpt
# A journal with at least one task record is well past the ~40-byte header.
for _ in $(seq 1 600); do
    size=$(stat -c %s "$ckpt_journal" 2>/dev/null || echo 0)
    [ "$size" -gt 120 ] && break
    kill -0 "$smoke_pid" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$smoke_pid" 2>/dev/null || true
wait "$smoke_pid" 2>/dev/null || true
test -s "$ckpt_journal"
./target/release/parsl-cwl target/ckpt-smoke/config.yml \
    target/ckpt-smoke/slow.cwl --first_ms=10 --resume target/ckpt-smoke-work
replayed=$(cargo run --release -p obs --bin parsl-trace -- target/ckpt-smoke.jsonl --json \
    | grep -o '"name":"ckpt.replayed","kind":"counter","value":[0-9]*' \
    | grep -o '[0-9]*$')
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
    echo "error: resumed run replayed no checkpointed tasks (ckpt.replayed=${replayed:-missing})" >&2
    exit 1
fi
echo "crash-resume smoke: $replayed task(s) replayed from the journal"

# Service smoke: one warm parsl-serve daemon runs several workflows
# concurrently, is SIGTERMed mid-run, restarts with --resume replaying the
# interrupted run's journal, and drains cleanly. The slow workflow reuses
# the crash-resume smoke's gated sleepms steps so the kill window is wide.
rm -rf target/serve-smoke target/serve-smoke-work target/serve-smoke.jsonl
mkdir -p target/serve-smoke
cp target/ckpt-smoke/slow_step.cwl target/ckpt-smoke/slow.cwl target/serve-smoke/
cat > target/serve-smoke/config.yml <<'EOF'
executor:
  kind: thread-pool
  workers: 4
monitoring:
  enabled: true
  sample_rate: 1.0
  export: target/serve-smoke.jsonl
  sinks: [jsonl]
run:
  workdir: ./target/serve-smoke-work
  builtin_tools: true
serve:
  max_in_flight: 3
  tenants:
    alice: 2.0
    bob: 1.0
EOF
cat > target/serve-smoke/words.yml <<'EOF'
words: [serve, smoke, gate]
EOF
serve_cfg=target/serve-smoke/config.yml
serve_sock=target/serve-smoke-work/serve.sock
wait_for_socket() {
    for _ in $(seq 1 200); do
        [ -S "$serve_sock" ] && return 0
        sleep 0.05
    done
    echo "error: parsl-serve never bound $serve_sock" >&2
    exit 1
}
./target/release/parsl-serve "$serve_cfg" &
serve_pid=$!
wait_for_socket
# Two concurrent submissions from different tenants through one daemon.
./target/release/parsl-cwl submit "$serve_cfg" fixtures/diamond.cwl \
    --message='serve smoke' --tenant=alice
./target/release/parsl-cwl submit "$serve_cfg" fixtures/scatter_words_py.cwl \
    target/serve-smoke/words.yml --tenant=bob
# `wait` returns when the daemon says the run has ended; nothing polls.
./target/release/parsl-cwl wait "$serve_cfg" 0
./target/release/parsl-cwl wait "$serve_cfg" 1
finished=$(./target/release/parsl-cwl status "$serve_cfg" \
    | grep -c 'state=completed' || true)
if [ "$finished" -lt 2 ]; then
    echo "error: concurrent serve runs did not both complete:" >&2
    ./target/release/parsl-cwl status "$serve_cfg" >&2 || true
    exit 1
fi
echo "serve smoke: 2 concurrent runs completed"
# Third run, then SIGTERM the daemon mid-run (after >=1 journaled task).
./target/release/parsl-cwl submit "$serve_cfg" target/serve-smoke/slow.cwl \
    --first_ms=10 --tenant=alice
serve_journal=target/serve-smoke-work/runs/run-2/ckpt/journal.ckpt
for _ in $(seq 1 600); do
    size=$(stat -c %s "$serve_journal" 2>/dev/null || echo 0)
    [ "$size" -gt 120 ] && break
    sleep 0.05
done
kill -TERM "$serve_pid"
wait "$serve_pid"
test -s "$serve_journal"
# Restart with --resume: the interrupted run must replay, not re-execute.
./target/release/parsl-serve "$serve_cfg" --resume &
serve_pid=$!
wait_for_socket
./target/release/parsl-cwl wait "$serve_cfg" 2
line=$(./target/release/parsl-cwl status "$serve_cfg" 2 | grep '^run 2 ' || true)
echo "$line" | grep -q 'state=completed' || {
    echo "error: resumed serve run did not complete: $line" >&2
    exit 1
}
resumed_replayed=$(echo "$line" | grep -o 'replayed=[0-9]*' | grep -o '[0-9]*$')
if [ -z "$resumed_replayed" ] || [ "$resumed_replayed" -eq 0 ]; then
    echo "error: resumed serve run replayed nothing: $line" >&2
    exit 1
fi
./target/release/parsl-cwl drain "$serve_cfg" --wait
wait "$serve_pid"
# The drained daemon exported its trace; replay must be visible there too.
serve_replayed=$(cargo run --release -p obs --bin parsl-trace -- target/serve-smoke.jsonl --json \
    | grep -o '"name":"ckpt.replayed","kind":"counter","value":[0-9]*' \
    | grep -o '[0-9]*$')
if [ -z "$serve_replayed" ] || [ "$serve_replayed" -eq 0 ]; then
    echo "error: serve trace shows no replayed tasks (ckpt.replayed=${serve_replayed:-missing})" >&2
    exit 1
fi
echo "serve smoke: resumed run replayed $resumed_replayed task(s) (trace ckpt.replayed=$serve_replayed), drained cleanly"

# Disabled-monitoring overhead gate: the instrumented pipeline with
# monitoring off must stay within noise of the committed pre-instrumentation
# numbers (tolerance overridable via BENCH_CHECK_TOLERANCE).
cargo run --release -p bench --bin throughput -- --check BENCH_dispatch.json

# Data-plane regression gate: the link-vs-copy speedup on the full
# 1000-image scatter must hold the 3x floor and stay within tolerance of
# the committed BENCH_staging.json.
cargo run --release -p bench --bin staging -- --check BENCH_staging.json
